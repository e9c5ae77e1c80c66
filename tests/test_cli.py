import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patex.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def seq_file(tmp_path):
    f = tmp_path / "u.seq"
    f.write_text("a b a b c a\n")
    return str(f)


@pytest.fixture
def j2_file(tmp_path):
    f = tmp_path / "j2.mat"
    f.write_text("11\n11\n")
    return str(f)


@pytest.fixture
def host_file(tmp_path):
    f = tmp_path / "host.mat"
    f.write_text("111\n111\n111\n")
    return str(f)


def test_lss_json_shape(capsys, seq_file):
    code, out, _ = run_cli(capsys, "lss", "--seq", seq_file, "--pattern", "abab")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"value", "witness", "nodes", "elapsed_ms"}
    assert payload["value"] == 5


def test_lsm_and_ex(capsys, host_file, j2_file):
    code, out, _ = run_cli(capsys, "lsm", "--matrix", host_file, "--pattern", j2_file)
    assert code == 0 and json.loads(out)["value"] == 6
    code, out, _ = run_cli(capsys, "ex", "--n", "3", "--pattern", j2_file)
    assert code == 0 and json.loads(out)["value"] == 6


def test_oracles(capsys, tmp_path, j2_file):
    code, out, _ = run_cli(capsys, "ss-oracle", "--m", "4", "--pattern", "abab")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 3 and payload["witness"] == [0, 1, 0, 1]
    code, out, _ = run_cli(capsys, "sm-oracle", "--m", "3", "--pattern", j2_file)
    assert code == 0 and json.loads(out)["value"] == 3


def test_lsp_upper(capsys, tmp_path):
    f = tmp_path / "u.seq"
    f.write_text("a b a b\n")
    code, out, _ = run_cli(capsys, "lsp-upper", "--seq", str(f), "--k", "1")
    assert code == 0 and json.loads(out)["value"] == 3


def test_construct_commands(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "construct", "block", "--k", "3")
    assert code == 0 and out.strip() == "0 1 2 0 1 2 0 1 2"
    code, out, _ = run_cli(capsys, "construct", "all-ones", "--r", "2", "--c", "3")
    assert code == 0 and out == "111\n111\n"
    code, out, _ = run_cli(capsys, "construct", "lemma3", "--m", "64", "--r", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 16 and lines[0] == "1111"
    code, out, _ = run_cli(capsys, "construct", "pattern-from-seq", "--seq", "abab")
    assert code == 0 and out == "1010\n0101\n"
    code, out, _ = run_cli(capsys, "construct", "four-patterns")
    assert code == 0 and out.count("\n\n") == 3


def test_construct_to_file(capsys, tmp_path):
    target = tmp_path / "out.mat"
    code, out, _ = run_cli(capsys, "construct", "all-ones", "--r", "2", "--c", "2", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == "11\n11\n"
    # the shared flags belong to the leaf subcommand, never to the group
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--out", str(target), "block", "--k", "2"])
    assert exc.value.code == 2


def test_extract_commands(capsys, tmp_path, host_file, j2_file):
    code, out, _ = run_cli(
        capsys, "extract", "prob", "--matrix", host_file, "--pattern", j2_file, "--seed", "3"
    )
    assert code == 0
    payload = json.loads(out)
    assert {"size", "guarantee", "method", "seed", "witness"} <= set(payload)
    assert payload["seed"] == 3

    code, out, _ = run_cli(capsys, "extract", "es", "--matrix", host_file)
    assert code == 0 and json.loads(out)["method"] == "erdos-szekeres"

    f = tmp_path / "d.seq"
    f.write_text("a a b b c c\n")
    code, out, _ = run_cli(capsys, "extract", "dichotomy", "--seq", str(f))
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "rainbow" and payload["positions"] == [0, 2, 4]

    code, out, _ = run_cli(capsys, "extract", "thin", "--matrix", host_file)
    assert code == 0 and out == "101\n101\n101\n"


def test_envelope_and_realize(capsys, tmp_path):
    f = tmp_path / "p.polys"
    f.write_text("0,1\n0,-1\n")
    code, out, _ = run_cli(capsys, "envelope", "--polys", str(f))
    assert code == 0
    payload = json.loads(out)
    assert payload["sequence"] == [0, 1] and payload["breakpoints"] == [0.0]

    code, out, _ = run_cli(capsys, "realize", "--seq", "abc")
    assert code == 0
    f2 = tmp_path / "r.polys"
    f2.write_text(out)
    code, out, _ = run_cli(capsys, "envelope", "--polys", str(f2))
    assert code == 0 and json.loads(out)["sequence"] == [0, 1, 2]


def test_sweep_and_fit(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "sweep", "ss-block", "--k-min", "2", "--k-max", "4")
    assert code == 0
    assert out.startswith("m,k,value,lower_ref,upper_ref,seed,elapsed_ms\n")

    records = tmp_path / "rec.json"
    code, _, _ = run_cli(
        capsys,
        "sweep",
        "sm-allones",
        "--r",
        "2",
        "--m-list",
        "64,256,1024",
        "--trials",
        "30",
        "--format",
        "json",
        "--out",
        str(records),
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "fit", "--records", str(records))
    assert code == 0
    fit = json.loads(out)
    assert 0.5 < fit["exponent"] < 0.85


def test_sweep_svg(capsys):
    code, out, _ = run_cli(capsys, "sweep", "ss-block", "--k-min", "2", "--k-max", "5", "--format", "svg")
    assert code == 0
    assert out.startswith("<svg ") and out.count('<circle class="pt"') == 4


def test_config_file_sets_defaults_and_flags_override(capsys, tmp_path, seq_file):
    cfg = tmp_path / "patex.cfg"
    cfg.write_text("budget=4\n")
    code, _, err = run_cli(capsys, "lss", "--seq", seq_file, "--pattern", "abab", "--config", str(cfg))
    assert code == 3 and "budget" in err
    code, out, _ = run_cli(
        capsys,
        "lss", "--seq", seq_file, "--pattern", "abab",
        "--config", str(cfg), "--budget", "100000",
    )
    assert code == 0 and json.loads(out)["value"] == 5


def _comparable(out):
    """CLI output with the run-dependent elapsed_ms field dropped."""
    try:
        payload = json.loads(out)
    except ValueError:
        return out
    if isinstance(payload, dict):
        payload.pop("elapsed_ms", None)
    return payload


def test_reused_parser_matches_fresh_runs(capsys, tmp_path, seq_file):
    # main() reuses one cached parser; a flag or config given to one call
    # must not leak into the next.
    cfg = tmp_path / "patex.cfg"
    cfg.write_text("budget=4\n")
    calls = [
        ["lss", "--seq", seq_file, "--pattern", "abab", "--config", str(cfg), "--budget", "2"],
        ["lss", "--seq", seq_file, "--pattern", "abab"],
        ["ss-oracle", "--m", "5", "--pattern", "abab", "--config", str(cfg)],
        ["construct", "block", "--k", "3"],
        ["ss-oracle", "--m", "5", "--pattern", "abab"],
        ["lss", "--seq", seq_file, "--pattern", "abab", "--budget", "100000"],
    ]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        code, out, err = run_cli(capsys, *argv)
        fresh.append((code, _comparable(out), err))
    assert [code for code, _, _ in fresh] == [3, 0, 3, 0, 0, 0]
    reused = []
    for argv in calls:
        code, out, err = run_cli(capsys, *argv)
        reused.append((code, _comparable(out), err))
    assert build_parser() is build_parser()
    assert reused == fresh


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_exit_code_precondition(capsys, seq_file, j2_file):
    code, _, err = run_cli(capsys, "lss", "--seq", seq_file, "--pattern", "")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "ex", "--n", "0", "--pattern", j2_file)
    assert code == 2 and "ex_exact needs n >= 1" in err


def test_exit_code_budget(capsys, seq_file):
    code, _, err = run_cli(capsys, "lss", "--seq", seq_file, "--pattern", "abab", "--budget", "2")
    assert code == 3
    # the oracle budget caps the total over all instances
    argv = ["ss-oracle", "--m", "6", "--pattern", "abab"]
    total = json.loads(run_cli(capsys, *argv)[1])["nodes"]
    code, _, err = run_cli(capsys, *argv, "--budget", str(total - 1))
    assert code == 3 and "total node budget" in err
    code, out, _ = run_cli(capsys, *argv, "--budget", str(total))
    assert code == 0 and json.loads(out)["nodes"] == total


def test_exit_code_degenerate(capsys, tmp_path):
    f = tmp_path / "dup.polys"
    for text in ("0,1\n0,1\n", "nan,1\n", "0,1\n0,inf\n", "-inf\n", "1e-300,1e300\n0,1,1\n"):
        f.write_text(text)
        code, out, err = run_cli(capsys, "envelope", "--polys", str(f))
        assert code == 4 and out == "" and err.startswith("error: ")


def test_exit_code_missing_file(capsys):
    code, _, err = run_cli(capsys, "lss", "--seq", "/nonexistent/u.seq", "--pattern", "ab")
    assert code == 2


def _file(directory: Path, name: str, data: bytes) -> str:
    path = directory / name
    path.write_bytes(data)
    return str(path)


def _seq(d):
    return _file(d, "u.seq", b"a b a b\n")


def _records(value) -> bytes:
    return json.dumps(
        [{"m": m, "k": 2, "value": value, "lower_ref": None, "upper_ref": None, "seed": 0, "elapsed_ms": 0}
         for m in (1, 2, 3)]
    ).encode()


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(lambda d: ["fit", "--records", _file(d, "r.json", b"not json")], id="fit-non-json"),
        pytest.param(
            lambda d: ["fit", "--records", _file(d, "r.json", b'[{"m": 64}]')], id="fit-missing-fields"
        ),
        pytest.param(
            lambda d: ["fit", "--records", _file(d, "r.json", _records("x"))], id="fit-non-numeric-field"
        ),
        pytest.param(
            lambda d: ["fit", "--records", _file(d, "r.json", _records(float("nan")))], id="fit-nan-value"
        ),
        pytest.param(
            lambda d: ["lss", "--seq", _file(d, "u.seq", b"a \xff b\n"), "--pattern", "ab"],
            id="seq-not-utf8",
        ),
        pytest.param(lambda d: ["lss", "--seq", str(d), "--pattern", "ab"], id="seq-directory"),
        pytest.param(
            lambda d: ["lss", "--seq", _seq(d), "--pattern", "ab", "--config", str(d)], id="config-directory"
        ),
        pytest.param(lambda d: ["construct", "block", "--k", "2", "--out", str(d)], id="out-directory"),
        pytest.param(
            lambda d: ["lss", "--seq", _seq(d), "--pattern", "ab", "--config", _file(d, "c.cfg", b"budget=abc\n")],
            id="config-budget-not-int",
        ),
        pytest.param(
            lambda d: ["sweep", "sm-allones", "--m-list", "64,x", "--trials", "1"], id="m-list-not-int"
        ),
    ],
)
def test_input_boundary_exits_2(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, *argv(tmp_path))
    assert code == 2 and out == "" and err.startswith("error: ")


# Each template names a file-reading job.  F and G stand for two files of
# random bytes, P for a pattern string, N for a small or malformed integer;
# OUT and DIR (for --out) for a new file and a directory.
_TEMPLATES = [
    ["lss", "--seq", "F", "--pattern", "P"],
    ["lsm", "--matrix", "F", "--pattern", "G"],
    ["ex", "--n", "N", "--pattern", "F"],
    ["envelope", "--polys", "F"],
    ["fit", "--records", "F"],
    ["extract", "prob", "--matrix", "F", "--pattern", "G"],
    ["extract", "es", "--matrix", "F"],
    ["extract", "dichotomy", "--seq", "F"],
    ["extract", "thin", "--matrix", "F"],
    ["construct", "insert-column", "--pattern", "F", "--row", "N", "--col", "N"],
    ["construct", "corner-join", "--pattern", "F", "--copies", "N"],
]
_BYTES = st.one_of(
    st.binary(max_size=24),
    *(st.text(alphabet=chars, max_size=16).map(str.encode) for chars in ("01\n", "ab \n", "01.,-einf\n")),
)


@st.composite
def _job(draw):
    files = {"F": draw(_BYTES), "G": draw(_BYTES)}
    values = {
        "P": draw(st.text(alphabet="ab c", max_size=4)),
        "N": draw(st.sampled_from(["-1", "0", "1", "2", "3", "x"])),
    }
    argv = [values.get(tok, tok) for tok in draw(st.sampled_from(_TEMPLATES))]
    argv += ["--budget", str(draw(st.integers(0, 10**4)))]
    for flag, values in (
        ("--config", ["G"]),
        ("--seed", ["0", "7", "-1"]),
        ("--tol", ["1e-9", "0", "nan"]),
        ("--out", ["OUT", "OUT", "DIR"]),
    ):
        if draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(values))]
    if draw(st.integers(0, 7)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "-", "--n", "7"])))
    return files, argv


@settings(max_examples=150, deadline=None)
@given(_job())
def test_random_jobs_keep_the_exit_code_contract(job):
    files, template = job
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        paths = {name: _file(d, name, data) for name, data in files.items()}
        paths.update(OUT=str(d / "out"), DIR=tmp)
        argv = [paths.get(tok, tok) for tok in template]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the usage
                code = exc.code
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()


def test_cli_sweep_byte_identical(capsys, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["sweep", "sm-allones", "--r", "2", "--m-list", "64,256", "--trials", "20", "--seed", "9"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
