import math
import random
from fractions import Fraction

import pytest

from patex.containment import seq_contains
from patex.envelopes import (
    DEFAULT_TOL,
    EnvelopeSequence,
    Polynomial,
    _derive,
    _sign_change_roots,
    envelope_sequence,
    format_polynomials,
    lower_envelope,
    parse_polynomials,
    realizable_extract,
    realize_lines,
    verify_envelope,
    verify_pointwise,
)
from patex.errors import DegenerateInputError, PreconditionError, ToleranceError
from patex.extractors import isqrt_ceil
from patex.sequences import Sequence, alternation, is_isomorphic, parse_sequence


def poly(*coeffs):
    return Polynomial(tuple(coeffs))


# ---------------------------------------------------------------------------
# Polynomial basics
# ---------------------------------------------------------------------------

def test_polynomial_trims_trailing_zeros():
    assert poly(1.0, 2.0, 0.0).coeffs == (1.0, 2.0)
    assert poly(0.0, 0.0).coeffs == (0.0,)
    assert poly().is_zero()


@pytest.mark.parametrize("coeffs", [(math.nan, 1.0), (0.0, math.inf), (-math.inf,)])
def test_polynomial_rejects_non_finite(coeffs):
    with pytest.raises(DegenerateInputError):
        Polynomial(coeffs)


@pytest.mark.parametrize("coeffs", [(10**400, 1), (1.0, -(10**400)), (Fraction(10**400, 3),)])
def test_polynomial_rejects_coefficient_too_large_for_a_float(coeffs):
    with pytest.raises(DegenerateInputError, match="too large for a float") as info:
        Polynomial(coeffs)
    assert info.value.exit_code == 4


def test_polynomial_eval_and_sub():
    p = poly(1.0, 0.0, 1.0)  # 1 + x^2
    assert p(2.0) == 5.0
    q = poly(0.0, 1.0)
    assert (p - q)(3.0) == 1 + 9 - 3


def test_derivative():
    assert _derive((1.0, 2.0, 3.0)) == (2.0, 6.0)
    assert _derive((5.0,)) == (0.0,)


# ---------------------------------------------------------------------------
# root isolation
# ---------------------------------------------------------------------------

def test_linear_root():
    assert _sign_change_roots((1.0, 2.0), 1e-12) == [-0.5]


def test_cubic_roots():
    # x^3 - x = x(x-1)(x+1)
    roots = _sign_change_roots((0.0, -1.0, 0.0, 1.0), 1e-12)
    assert len(roots) == 3
    for got, want in zip(roots, (-1.0, 0.0, 1.0)):
        assert abs(got - want) < 1e-9


def test_even_multiplicity_touch_is_skipped():
    # (x-1)^2 (x+2): sign change only at -2
    roots = _sign_change_roots((2.0, -3.0, 0.0, 1.0), 1e-12)
    assert len(roots) == 1
    assert abs(roots[0] + 2.0) < 1e-9


def test_odd_multiplicity_at_critical_point():
    # x^3 changes sign at its inflection point
    roots = _sign_change_roots((0.0, 0.0, 0.0, 1.0), 1e-12)
    assert len(roots) == 1
    assert abs(roots[0]) < 1e-9


def test_constant_has_no_roots():
    assert _sign_change_roots((3.0,), 1e-12) == []


# ---------------------------------------------------------------------------
# lower envelope
# ---------------------------------------------------------------------------

def test_envelope_two_lines():
    env = lower_envelope([poly(0.0, 1.0), poly(0.0, -1.0)])
    assert env.labels == (0, 1)
    assert env.breakpoints == (0.0,)
    assert env.sequence().letters == (0, 1)


def test_envelope_crossing_parabolas():
    env = lower_envelope([poly(0.0, 0.0, 1.0), poly(2.0, 0.0, -1.0)])
    assert is_isomorphic(env.sequence(), parse_sequence("aba"))
    assert env.labels == (1, 0, 1)


def test_envelope_single_polynomial():
    env = lower_envelope([poly(4.0, 1.0)])
    assert env.pieces == ((0, (-math.inf, math.inf)),)
    assert env.sequence().letters == (0,)


def test_envelope_tangential_pair_crosses_once():
    # x^2 vs (x-1)^2 cross transversally at 1/2
    env = lower_envelope([poly(0.0, 0.0, 1.0), poly(1.0, -2.0, 1.0)])
    assert env.labels == (0, 1)
    assert abs(env.breakpoints[0] - 0.5) < 1e-9


def test_envelope_tangent_touch_is_not_a_boundary():
    # x^2 vs x^2 shifted up touch nowhere... use x^2 and 2x^2: equal only at 0
    # (difference x^2 has even multiplicity), argmin never swaps
    env = lower_envelope([poly(0.0, 0.0, 1.0), poly(0.0, 0.0, 2.0)])
    assert env.labels == (0,)


def test_equal_polynomials_rejected():
    with pytest.raises(DegenerateInputError):
        lower_envelope([poly(1.0, 2.0), poly(1.0, 2.0)])


def test_empty_family_rejected():
    with pytest.raises(PreconditionError):
        lower_envelope([])
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(PreconditionError):
            lower_envelope([poly(1.0)], tol=tol)


@pytest.mark.parametrize(
    "family",
    [
        # values on the root-isolation grid of the difference overflow to inf
        [poly(1e-300, 1e300), poly(0.0, 1.0, 1.0)],
        # the two lines cross at -1e600, beyond the largest float
        [poly(1e300, 1e-300), poly(0.0)],
    ],
)
def test_overflowing_family_raises(family):
    with pytest.raises(DegenerateInputError):
        lower_envelope(family)


def test_root_on_rounded_cauchy_bound_is_found():
    # x^2 - 1e20 x - 1 < 0 exactly between its roots near -1e-20 and 1e20;
    # the Cauchy bound 1 + 1e20 rounds to 1e20, on the far root
    env = lower_envelope([poly(-1.0, -1e20, 1.0), poly(0.0)])
    assert env.labels == (1, 0, 1)
    near, far = env.breakpoints
    assert abs(near) < DEFAULT_TOL and abs(far - 1e20) <= 1e20 * 1e-12


def test_root_in_a_huge_bracket_is_refined_to_tolerance():
    # the root near -1e-100 is bisected out of a bracket about 1e100 wide,
    # which takes some 360 halvings
    env = lower_envelope([poly(-1.0, -1e100, 1.0), poly(0.0)])
    assert env.labels == (1, 0, 1)
    near, far = env.breakpoints
    assert abs(near) < DEFAULT_TOL and abs(far - 1e100) <= 1e100 * 1e-12


def test_near_tie_raises_tolerance_error():
    # two constants 1e-12 apart share the envelope bottom between the dips
    # of two side parabolas; the midpoint argmin cannot be disambiguated
    family = [
        poly(0.0),
        poly(1e-12),
        poly(8.0, 6.0, 1.0),  # (x+3)^2 - 1, dips below 0 on (-4,-2)
        poly(8.0, -6.0, 1.0),  # (x-3)^2 - 1, dips below 0 on (2,4)
    ]
    with pytest.raises(ToleranceError):
        lower_envelope(family, tol=1e-9)
    # loosening the input separation resolves it
    family[1] = poly(0.5)
    env = lower_envelope(family, tol=1e-9)
    assert 0 in env.labels and 2 in env.labels and 3 in env.labels


def test_adjacent_labels_always_differ():
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randint(2, 5)
        polys = [poly(*(rng.uniform(-1, 1) for _ in range(4))) for _ in range(n)]
        env = lower_envelope(polys)
        for (l1, _), (l2, _) in zip(env.pieces, env.pieces[1:]):
            assert l1 != l2


def test_envelope_pointwise_minimality_sampled():
    rng = random.Random(3)
    for trial in range(30):
        n = rng.randint(2, 6)
        polys = [poly(*(rng.uniform(-1, 1) for _ in range(4))) for _ in range(n)]
        env = lower_envelope(polys)
        assert verify_pointwise(polys, env, samples=50, seed=trial, tol=1e-6) <= 1e-6


def test_envelope_avoids_alternation_bound():
    rng = random.Random(12)
    for k in (1, 2, 3):
        forbidden = alternation(k + 2)
        for _ in range(40):
            n = rng.randint(2, 5)
            polys = [poly(*(rng.uniform(-1, 1) for _ in range(k + 1))) for _ in range(n)]
            assert seq_contains(envelope_sequence(polys), forbidden) is None


# ---------------------------------------------------------------------------
# realization
# ---------------------------------------------------------------------------

def test_realize_lines_examples():
    lines = realize_lines(parse_sequence("abc"))
    assert [p.degree for p in lines] == [1, 1, 0]
    assert verify_envelope(lines, parse_sequence("abc"))
    assert envelope_sequence(realize_lines(parse_sequence("ab"))).letters == (0, 1)
    single = realize_lines(parse_sequence("a"))
    assert len(single) == 1 and single[0].degree == 0


def test_realize_lines_rejects_repeats_and_empty():
    with pytest.raises(PreconditionError):
        realize_lines(parse_sequence("aba"))
    with pytest.raises(PreconditionError):
        realize_lines(Sequence())


@pytest.mark.parametrize("n", range(1, 8))
def test_realize_lines_roundtrip(n):
    u = Sequence(tuple(range(n)))
    assert verify_envelope(realize_lines(u), u)


def test_realize_lines_accepts_unnormalized_distinct_letters():
    u = Sequence((3, 0, 7, 2))
    assert verify_envelope(realize_lines(u), u)


def test_verify_envelope_examples():
    two = [poly(0.0, 1.0), poly(0.0, -1.0)]
    assert verify_envelope(two, parse_sequence("ab"))
    assert not verify_envelope(two, parse_sequence("aba"))
    # constant-run convention: a piece may be split into equal labels
    assert verify_envelope([poly(0.0)], parse_sequence("aaa"))
    assert verify_envelope(two, parse_sequence("aab"))


def test_realizable_extract_repeated():
    r = realizable_extract(parse_sequence("a" * 9), 1)
    assert r.kind == "repeated"
    assert len(r.witness) == 9
    assert len(r.polynomials) == 1


def test_realizable_extract_rainbow():
    r = realizable_extract(parse_sequence("abcdefgh"), 2)
    assert r.kind == "rainbow"
    assert len(r.witness) == isqrt_ceil(8)
    assert verify_envelope(r.polynomials, r.witness)


def test_realizable_extract_guarantee_and_positions():
    rng = random.Random(4)
    for _ in range(40):
        m = rng.randint(1, 25)
        u = Sequence(tuple(rng.randrange(4) for _ in range(m)))
        r = realizable_extract(u, 1)
        assert len(r.witness) >= isqrt_ceil(m)
        assert tuple(u.letters[i] for i in r.positions) == r.witness.letters
        assert all(p.degree <= 1 for p in r.polynomials)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def test_polynomial_file_roundtrip():
    polys = [poly(0.5, -1.0), poly(0.0, 0.0, 2.0)]
    text = format_polynomials(polys)
    assert parse_polynomials(text) == polys


def test_polynomial_file_rejects_garbage():
    with pytest.raises(PreconditionError):
        parse_polynomials("1.0,abc\n")
