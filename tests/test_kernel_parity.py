"""The compiled kernels must be bit-identical twins of the pure-Python
ones: same values, same witnesses, same node counts."""

import random

import pytest

from patex import _corepy
from patex.constructions import block_sequence

_corec = pytest.importorskip("patex._corec")

BUDGET = 10**9
INT_MAX = 2**31 - 1
INT_MIN = -(2**31)


def random_sequence_case(rng):
    n = rng.randint(0, 14)
    alpha = rng.randint(1, 4)
    u = [rng.randrange(alpha) for _ in range(n)]
    t = rng.randint(1, 4)
    v = [0]
    mx = 0
    for _ in range(t - 1):
        x = rng.randint(0, min(mx + 1, 2))
        mx = max(mx, x)
        v.append(x)
    return u, v


def random_matrix_case(rng):
    ar, ac = rng.randint(1, 6), rng.randint(1, 6)
    cells = sorted(rng.sample(range(ar * ac), rng.randint(0, min(10, ar * ac))))
    pr, pc = rng.randint(1, 3), rng.randint(1, 3)
    pcells = sorted(rng.sample(range(pr * pc), rng.randint(1, min(4, pr * pc))))
    return ar, ac, cells, pr, pc, pcells


def test_backend_names_differ():
    assert _corepy.BACKEND == "python"
    assert _corec.BACKEND == "c"


def test_seq_find_parity():
    rng = random.Random(100)
    for _ in range(400):
        u, v = random_sequence_case(rng)
        assert _corepy.seq_find(u, v) == _corec.seq_find(u, v)
    # one search level per pattern letter, past the default recursion limit
    u, v = list(range(3000)), list(range(1500))
    assert _corepy.seq_find(u, v) == _corec.seq_find(u, v) == v


def test_lss_parity_including_nodes():
    rng = random.Random(101)
    for _ in range(300):
        u, v = random_sequence_case(rng)
        assert _corepy.lss_search(u, v, BUDGET) == _corec.lss_search(u, v, BUDGET)
    # the creates-check of the last keep level nests 1,499 levels deeper
    u = v = [0] * 1500
    assert _corepy.lss_search(u, v, BUDGET) == _corec.lss_search(u, v, BUDGET)


def test_lss_parity_under_budget_stop():
    u = [i % 3 for i in range(12)]
    v = [0, 1, 0, 1]
    for budget in (-(2**70), -1, 0, 1, 5, 20, 100):
        assert _corepy.lss_search(u, v, budget) == _corec.lss_search(u, v, budget)


def test_mat_find_parity():
    rng = random.Random(102)
    for _ in range(400):
        case = random_matrix_case(rng)
        assert _corepy.mat_find(*case) == _corec.mat_find(*case)
    # a 0 x 0 pattern occurs with empty index maps
    case = (1, 1, [0], 0, 0, [])
    assert _corepy.mat_find(*case) == _corec.mat_find(*case) == ((), ())


def test_lsm_parity_including_nodes():
    rng = random.Random(103)
    for _ in range(250):
        case = random_matrix_case(rng)
        assert _corepy.lsm_search(*case, BUDGET) == _corec.lsm_search(*case, BUDGET)
    # a 1 x 1200 row in a 1 x 1200 host: the creates-check of the last keep
    # level nests 1,199 levels deeper
    n = 1200
    case = (1, n, list(range(n)), 1, n, list(range(n)))
    assert _corepy.lsm_search(*case, BUDGET) == _corec.lsm_search(*case, BUDGET)


def test_lsm_parity_under_budget_stop():
    case = (3, 3, list(range(9)), 2, 2, [0, 1, 2, 3])
    for budget in (-(2**70), -1, 0, 1, 7, 50):
        assert _corepy.lsm_search(*case, budget) == _corec.lsm_search(*case, budget)


def test_tuple_inputs():
    rng = random.Random(104)
    for _ in range(100):
        u, v = random_sequence_case(rng)
        u, v = tuple(u), tuple(v)
        assert _corepy.seq_find(u, v) == _corec.seq_find(u, v)
        assert _corepy.lss_search(u, v, BUDGET) == _corec.lss_search(u, v, BUDGET)
        case = tuple(tuple(x) if isinstance(x, list) else x for x in random_matrix_case(rng))
        assert _corepy.mat_find(*case) == _corec.mat_find(*case)
        assert _corepy.lsm_search(*case, BUDGET) == _corec.lsm_search(*case, BUDGET)


def test_empty_host():
    for kern in (_corepy, _corec):
        assert kern.seq_find([], []) == []
        assert kern.seq_find([], [0]) is None
        assert kern.lss_search([], [0, 1], BUDGET) == (0, 0, (), 1)
        assert kern.mat_find(3, 3, [], 1, 1, [0]) is None
        assert kern.lsm_search(3, 3, [], 2, 2, [0, 1, 2, 3], BUDGET) == (0, 0, (), 1)


def test_letters_and_indices_near_int_max():
    u = [INT_MAX, INT_MIN, INT_MAX, INT_MAX - 1, INT_MIN, INT_MAX, 0]
    for v in ([0, 0], [0, 1, 0], [0, 1, 0, 1], [0, 1, 2]):
        assert _corepy.seq_find(u, v) == _corec.seq_find(u, v)
        assert _corepy.lss_search(u, v, BUDGET) == _corec.lss_search(u, v, BUDGET)
    # Columns reach INT_MAX - 1; mat_find indexes host rows, so only the
    # column count is near INT_MAX there.
    rows = [0, 0, 0, 1, 1]
    cols = [0, INT_MAX - 2, INT_MAX - 1, 5, INT_MAX - 1]
    cells = [r * INT_MAX + c for r, c in zip(rows, cols)]
    for pcells in ([0, 3], [1, 2], [0, 1, 3]):
        case = (2, INT_MAX, cells, 2, 2, pcells)
        assert _corepy.mat_find(*case) == _corec.mat_find(*case)
    # cell indices up to INT_MAX * INT_MAX - 1, past every C int
    rows = [0, 0, INT_MAX - 2, INT_MAX - 1, INT_MAX - 1]
    cols = [3, INT_MAX - 1, 0, 7, INT_MAX - 1]
    cells = [r * INT_MAX + c for r, c in zip(rows, cols)]
    assert cells[-1] == INT_MAX * INT_MAX - 1
    case = (INT_MAX, INT_MAX, cells, 2, 2, [0, 3])
    assert _corepy.lsm_search(*case, BUDGET) == _corec.lsm_search(*case, BUDGET)


@pytest.mark.parametrize("bad", [INT_MAX + 1, INT_MIN - 1, 2**64])
def test_values_outside_c_int_raise_overflow(bad):
    with pytest.raises(OverflowError):
        _corec.seq_find([0, bad], [0])
    with pytest.raises(OverflowError):
        _corec.lss_search([bad], [0], BUDGET)
    with pytest.raises(OverflowError):
        _corec.mat_find(2, bad, [0], 1, 1, [0])
    with pytest.raises(OverflowError):
        _corec.lsm_search(bad, 2, [0], 1, 1, [0], BUDGET)


def test_cells_outside_long_long_raise_overflow():
    # cell indices are read as C long long, so only these overflow
    for bad in (2**63, -(2**63) - 1, 2**64):
        with pytest.raises(OverflowError):
            _corec.mat_find(2, 2, [0, bad], 1, 1, [0])
        with pytest.raises(OverflowError):
            _corec.lsm_search(2, 2, [0], 1, 1, [bad], BUDGET)


def test_indices_outside_their_arrays_raise_value_error():
    with pytest.raises(ValueError):
        _corec.seq_find([0, 1], [0, 2])
    with pytest.raises(ValueError):
        _corec.lss_search([0], [-1], BUDGET)
    with pytest.raises(ValueError):
        _corec.lss_search([0], [], BUDGET)
    for bad in (-1, 4, INT_MAX + 1, 2**63 - 1):
        with pytest.raises(ValueError):
            _corec.mat_find(2, 2, [0, bad], 1, 1, [0])
    with pytest.raises(ValueError):
        _corec.mat_find(0, 2, [0], 1, 1, [0])
    with pytest.raises(ValueError):
        _corec.lsm_search(2, 2, [0], 1, 1, [1], BUDGET)
    with pytest.raises(ValueError):
        _corec.lsm_search(2, 2, [0], 1, 1, [], BUDGET)


@pytest.mark.parametrize("budget", [2**31 - 1, 2**31, 2**32 + 7, 2**63 - 1, 2**63, 2**64, 10**30])
def test_huge_budgets_act_unlimited(budget):
    u = [i % 3 for i in range(12)]
    assert _corepy.lss_search(u, [0, 1, 0, 1], budget) == _corec.lss_search(u, [0, 1, 0, 1], budget)
    case = (3, 3, list(range(9)), 2, 2, [0, 1, 2, 3])
    assert _corepy.lsm_search(*case, budget) == _corec.lsm_search(*case, budget)


def test_block_sequence_k5_node_count():
    u = list(block_sequence(5).letters)
    res = _corec.lss_search(u, [0, 1, 0, 1], BUDGET)
    assert res == _corepy.lss_search(u, [0, 1, 0, 1], BUDGET)
    assert res[3] == 690_084


def test_host_deeper_than_the_c_stack():
    # Every one of a 1 x n host is kept, one keep branch per search level:
    # a compiled search that recursed on the C stack would overflow it.
    n = 300_000
    case = (1, n, list(range(n)), 2, 1, [0, 1])
    res = _corec.lsm_search(*case, BUDGET)
    assert res[:2] == (0, n) and res[3] == 2 * n + 1
    assert res == _corepy.lsm_search(*case, BUDGET)
