"""Seeded job lists for the four benchmark workloads.

``build(name, seed, workdir, tiny)`` writes the workload's input files
into ``workdir`` and returns its jobs.  A job is one argv for
``patex.cli.main`` plus a check of its output.  The checks live in ``gate.py`` and use none of the package's
solvers, kernels or parsers, so a wrong answer from the program cannot
pass them.

Input files are written with the package's own constructions and
formatters, the way a user would produce them, so that cost is part of
``setup_s``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gate

WORKLOADS = ("exact", "oracle", "extract", "envelope")

# Full and tiny sizes.  The tiny sizes exist for the smoke tests only.
SIZES = {
    "exact": {
        False: {"block_k": 5, "ex_n": 5, "hosts": 10, "host_blocks": 4, "host_letters": 6},
        True: {"block_k": 3, "ex_n": 3, "hosts": 2, "host_blocks": 3, "host_letters": 3},
    },
    "oracle": {
        False: {"ss_m": 9, "sm_m": 5},
        True: {"ss_m": 5, "sm_m": 3},
    },
    "extract": {
        False: {"m_list": (1024, 4096, 32768), "trials": 20, "mid_m": 32768, "mid_trials": 40,
                "big_m": 262144},
        True: {"m_list": (1000, 1331, 1728), "trials": 20, "mid_m": 512, "mid_trials": 2,
               "big_m": 1000},
    },
    "envelope": {
        False: {"small": 300, "large": 20, "large_n": 40, "roundtrip": (100, 150, 200)},
        True: {"small": 6, "large": 1, "large_n": 8, "roundtrip": (5, 9)},
    },
}


@dataclass
class Job:
    """One CLI call: its argv and the check its output must pass (a
    function of the output text that returns an error message, or None
    when the output is right).  Every job must exit 0 unless digests.json
    freezes another exit code for it."""

    id: str
    argv: list[str]
    check: Callable[[str], str | None]
    out: str | None = None  # file the job writes its output to (--out)
    seeded: bool = False  # inputs depend on the seed (else its frozen digest holds for every seed)


def _write(path: Path, text: str) -> str:
    path.write_text(text + "\n", encoding="utf-8")
    return str(path)


def _patterns(workdir: Path):
    """The matrix patterns the workloads forbid, written as files."""
    from patex import constructions, matrices

    pats = {
        "allones2": constructions.all_ones(2, 2),
        "lshape": constructions.l_shape(),
        "ident3": constructions.diagonal(3),
    }
    pats["cj2"] = constructions.corner_join(pats["allones2"], 2)
    return {
        name: (_write(workdir / f"{name}.mat", matrices.format_matrix(p)), gate.dense_ones(p.dense()))
        for name, p in pats.items()
    }


def _exact(rng, workdir, size):
    """A few long branch-and-bound searches: the kernel is almost all of it."""
    from patex import constructions, sequences

    k, n = size["block_k"], size["ex_n"]
    pats = _patterns(workdir)
    block = _write(workdir / "block.seq", sequences.format_sequence(constructions.block_sequence(k)))
    solves = [
        Job(f"lss-block{k}", ["lss", "--seq", block, "--pattern", "abab"],
            gate.lss_check(list(range(k)) * k, [0, 1, 0, 1], lo=k, hi=3 * k - 1)),
    ]
    for name in ("allones2", "lshape", "ident3"):
        path, ones = pats[name]
        solves.append(Job(f"ex{n}-{name}", ["ex", "--n", str(n), "--pattern", path],
                          gate.ex_check(n, ones, gate.ex_closed_form(name, n))))
    # Each host is a run of random permutations of the letters: a seeded
    # relative of the block sequence whose search cost varies little with
    # the seed (uniform random hosts vary several-fold).
    hosts = []
    for h in range(size["hosts"]):
        host = []
        for _ in range(size["host_blocks"]):
            perm = list(range(size["host_letters"]))
            rng.shuffle(perm)
            host += perm
        path = _write(workdir / f"host{h:02d}.seq", sequences.format_sequence(host))
        hosts.append(Job(f"lsp-host{h:02d}", ["lsp-upper", "--seq", path, "--k", "1"],
                         gate.lss_check(host, [0, 1, 0]), seeded=True))
    # The short lsp-upper jobs, which hold the median latency, are spread
    # between the long solves so that they sample the whole pass.
    jobs = []
    for i, solve in enumerate(solves):
        jobs.append(solve)
        jobs += hosts[i::len(solves)]
    return jobs


def _oracle(rng, workdir, size):
    """Many tiny kernel calls inside the enumeration oracles."""
    m, sm = size["ss_m"], size["sm_m"]
    pats = _patterns(workdir)
    jobs = [
        Job(f"ss{m}-abab", ["ss-oracle", "--m", str(m), "--pattern", "abab"],
            gate.ss_oracle_check(m, [0, 1, 0, 1])),
        Job(f"ss{m}-abc", ["ss-oracle", "--m", str(m), "--pattern", "abc"],
            gate.ss_oracle_check(m, [0, 1, 2], closed=min(m, 2))),
    ]
    for name in ("allones2", "lshape", "ident3", "cj2"):
        path, ones = pats[name]
        jobs.append(Job(f"sm{sm}-{name}", ["sm-oracle", "--m", str(sm), "--pattern", path],
                        gate.sm_oracle_check(sm, ones)))
    return jobs


def _extract(rng, workdir, size):
    """The extractor repair loop, large matrix files and large JSON output."""
    from patex import constructions, matrices

    pats = _patterns(workdir)
    path2, ones2 = pats["allones2"]
    m_list = size["m_list"]
    jobs = [
        Job("sweep-sm-allones",
            ["sweep", "sm-allones", "--r", "2", "--m-list", ",".join(map(str, m_list)),
             "--trials", str(size["trials"]), "--seed", str(rng.randrange(10**6)),
             "--format", "csv"],
            gate.sweep_check(2, m_list), seeded=True),
    ]
    mid = constructions.upper_construction_allones(size["mid_m"], 2)
    mid_path = _write(workdir / "host_mid.mat", matrices.format_matrix(mid))
    for t in range(size["mid_trials"]):
        jobs.append(Job(f"prob-mid-{t:02d}",
                        ["extract", "prob", "--matrix", mid_path, "--pattern", path2,
                         "--seed", str(rng.randrange(10**6))],
                        gate.prob_check(mid.rows, mid.cols, ones2), seeded=True))
    big = constructions.upper_construction_allones(size["big_m"], 2)
    big_path = _write(workdir / "host_big.mat", matrices.format_matrix(big))
    # The L-shape keeps few ones here, so this call is mostly parsing and
    # serializing a large matrix; a 2 x 2 repair loop on this host would
    # vary several-fold in time with the seed.
    path_l, ones_l = pats["lshape"]
    jobs.append(Job("prob-big",
                    ["extract", "prob", "--matrix", big_path, "--pattern", path_l,
                     "--seed", str(rng.randrange(10**6))],
                    gate.prob_check(big.rows, big.cols, ones_l), seeded=True))
    jobs.append(Job("es-big", ["extract", "es", "--matrix", big_path],
                    gate.es_check(big.rows, big.cols)))
    return jobs


def _family(rng, n, k):
    return [[rng.uniform(-1.0, 1.0) for _ in range(k + 1)] for _ in range(n)]


def _envelope(rng, workdir, size):
    """No kernel at all: many small CLI calls, some large families."""
    jobs = []
    families = [(f"env-small-{i:03d}", _family(rng, rng.randint(2, 6), rng.randint(1, 4)))
                for i in range(size["small"])]
    # The large families carry most of a pass's time, and it grows with
    # the degree, so their degrees cycle through 2, 3, 4 instead of being
    # drawn: a drawn mix moved the pass time with the seed.
    families += [(f"env-large-{i:02d}", _family(rng, size["large_n"], 2 + i % 3))
                 for i in range(size["large"])]
    for job_id, fam in families:
        text = "\n".join(",".join(repr(c) for c in poly) for poly in fam)
        path = _write(workdir / f"{job_id}.poly", text)
        jobs.append(Job(job_id, ["envelope", "--polys", path], gate.envelope_check(fam), seeded=True))
    for n in size["roundtrip"]:
        path = str(workdir / f"lines{n}.poly")
        letters = " ".join(str(i) for i in range(n))
        jobs.append(Job(f"realize-{n}", ["realize", "--seq", letters, "--out", path],
                        gate.realize_check(n), out=path))
        jobs.append(Job(f"roundtrip-{n}", ["envelope", "--polys", path],
                        gate.roundtrip_check(n)))
    return jobs


_BUILDERS = {"exact": _exact, "oracle": _oracle, "extract": _extract, "envelope": _envelope}


def build(name: str, seed: int, workdir: Path, tiny: bool = False) -> list[Job]:
    """Write the inputs of workload ``name`` for ``seed`` and return its jobs."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    return _BUILDERS[name](rng, workdir, SIZES[name][tiny])
