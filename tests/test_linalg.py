"""ScalarMatrix against plain triple-loop oracles, over the rationals and over
truncated Lambda-series: the product, the difference, the exact solve and
the inverse, which every matrix identity of the package is written with,
and the row-major order in which the suites compare two matrices.  The
solve, which inverts each pivot once, is also pinned against the
elimination that divides by the pivot at every use."""

import random

import pytest

from qkz.errors import SingularMatrixError
from qkz.linalg import ScalarMatrix
from qkz.qseries import LambdaSeries
from qkz.rmatrix import expansion_matrices
from qkz.scalars import Rat, TruncatedSeries, invertible, sample_generic_point
from qkz.suites import Recorder, _Mismatch

ORDER = 2
RINGS = ["rational", "series"]


def _zero(ring):
    return Rat(0) if ring == "rational" else LambdaSeries.constant(0, ORDER)


def _one(ring):
    return Rat(1) if ring == "rational" else LambdaSeries.constant(1, ORDER)


def _scalar(rng, ring, unit=False):
    """A random entry, zero about one time in four (never when ``unit``, which
    asks for an invertible constant term)."""
    def rational(nonzero):
        num = rng.randint(-6, 6)
        while nonzero and num == 0:
            num = rng.randint(-6, 6)
        return Rat(num, rng.randint(1, 5)) if nonzero or rng.random() > 0.25 else Rat(0)

    if ring == "rational":
        return rational(unit)
    return LambdaSeries([rational(unit)] + [rational(False) for _ in range(ORDER)])


def _rows(rng, ring, rows, cols):
    return [[_scalar(rng, ring) for _ in range(cols)] for _ in range(rows)]


def _product(a, b, ring):
    """The triple loop: out[i][j] = sum_k a[i][k] b[k][j], nothing skipped."""
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            acc = _zero(ring)
            for k in range(len(b)):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def _as_rows(matrix):
    return [[matrix[i, j] for j in range(matrix.cols)] for i in range(matrix.rows)]


def _diagonally_dominant(rng, ring, size):
    """A matrix whose constant terms are strictly diagonally dominant, so it
    is invertible over either ring."""
    rows = _rows(rng, ring, size, size)
    for i in range(size):
        rows[i][i] = rows[i][i] + _one(ring) * (10 * size)
    return rows


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("seed", range(4))
def test_product_and_difference_match_the_triple_loop(ring, seed):
    rng = random.Random(seed)
    a = _rows(rng, ring, 3, 4)
    b = _rows(rng, ring, 4, 2)
    c = _rows(rng, ring, 3, 2)
    prod = ScalarMatrix.from_rows(a) @ ScalarMatrix.from_rows(b)
    assert (prod.rows, prod.cols) == (3, 2)
    assert _as_rows(prod) == _product(a, b, ring)
    diff = prod - ScalarMatrix.from_rows(c)
    assert _as_rows(diff) == [[x - y for x, y in zip(r, s)]
                              for r, s in zip(_product(a, b, ring), c)]


def test_product_whose_entries_all_vanish():
    # over the rationals by cancellation, over the series by truncation:
    # Lambda^2 times Lambda^2 is past order 2
    ones = ScalarMatrix.from_rows([[Rat(1), Rat(1)], [Rat(1), Rat(1)]])
    alternating = ScalarMatrix.from_rows([[Rat(1), Rat(-1)], [Rat(-1), Rat(1)]])
    lam2 = LambdaSeries([0, 0, 1])
    square = ScalarMatrix.from_rows([[lam2, lam2], [lam2, lam2]])
    for a, b, ring in ((ones, alternating, "rational"), (square, square, "series")):
        prod = a @ b
        assert _as_rows(prod) == _product(_as_rows(a), _as_rows(b), ring)
        assert all(x == 0 for x in prod.entries)
        assert all(x == 0 for x in (prod - prod).entries)


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("seed", range(4))
def test_first_nonzero_is_the_first_in_row_major_order(ring, seed):
    rng = random.Random(100 + seed)
    rows = [[_zero(ring)] * 3 for _ in range(3)]
    i, j = rng.randrange(3), rng.randrange(3)
    rows[i][j] = _scalar(rng, ring, unit=True)
    for _ in range(2):
        # further nonzero entries, all after (i, j) in row-major order
        k = rng.randrange(i * 3 + j, 9)
        rows[k // 3][k % 3] = _scalar(rng, ring, unit=True)
    # the suites' recorder compares a matrix with zero entry by entry and
    # stops at the first nonzero one
    zero = ScalarMatrix.from_rows([[_zero(ring)] * 3 for _ in range(3)])
    with pytest.raises(_Mismatch) as stop:
        Recorder().matrix(ScalarMatrix.from_rows(rows), zero, {})
    assert stop.value.args[0] == {"i": i, "j": j, "left": str(rows[i][j]),
                                  "right": str(_zero(ring))}


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("seed", range(4))
def test_solve_and_inverse_satisfy_the_triple_loop(ring, seed):
    rng = random.Random(200 + seed)
    a = _diagonally_dominant(rng, ring, 3)
    b = _rows(rng, ring, 3, 2)
    x = ScalarMatrix.from_rows(a).solve(ScalarMatrix.from_rows(b))
    assert _product(a, _as_rows(x), ring) == b
    inv = ScalarMatrix.from_rows(a).solve(ScalarMatrix.identity(3))
    identity = [[_one(ring) if i == j else _zero(ring) for j in range(3)] for i in range(3)]
    assert _product(a, _as_rows(inv), ring) == identity
    assert _product(_as_rows(inv), a, ring) == identity


def test_solve_swaps_rows_for_a_zero_leading_pivot():
    a = [[Rat(0), Rat(2)], [Rat(3), Rat(1)]]
    b = [[Rat(4)], [Rat(5)]]
    x = ScalarMatrix.from_rows(a).solve(ScalarMatrix.from_rows(b))
    assert _product(a, _as_rows(x), "rational") == b


def test_series_pivot_chain_with_zero_constant_terms_is_singular():
    # det = Lambda - Lambda^2 is not zero, but no entry of column 0 is
    # invertible in the series ring, so the solve refuses: it never divides
    # by a series without a constant term
    lam = LambdaSeries.variable(ORDER)
    one = LambdaSeries.constant(1, ORDER)
    a = ScalarMatrix.from_rows([[lam, one], [lam * lam, one]])
    with pytest.raises(SingularMatrixError, match="column 0"):
        a.solve(ScalarMatrix.from_rows([[one], [one]]))
    with pytest.raises(SingularMatrixError):
        a.solve(ScalarMatrix.identity(2))
    # the same shape with an invertible constant term in column 0 solves
    b = ScalarMatrix.from_rows([[one + lam, one], [lam * lam, one]])
    x = b.solve(ScalarMatrix.from_rows([[one], [one]]))
    assert _product(_as_rows(b), _as_rows(x), "series") == [[one], [one]]


def _solve_dividing_per_entry(a: ScalarMatrix, rhs: ScalarMatrix) -> ScalarMatrix:
    """The elimination that divides by the pivot at every use: once per
    eliminated row and once per entry of the solution."""
    n = a.rows
    a, b = a.copy(), rhs.copy()
    for col in range(n):
        pivot_row = next(r for r in range(col, n) if invertible(a[r, col]))
        for j in range(n):
            a[col, j], a[pivot_row, j] = a[pivot_row, j], a[col, j]
        for j in range(b.cols):
            b[col, j], b[pivot_row, j] = b[pivot_row, j], b[col, j]
        piv = a[col, col]
        for r in range(n):
            if r == col:
                continue
            factor = a[r, col] / piv
            if factor == 0:
                continue
            for j in range(col, n):
                a[r, j] = a[r, j] - factor * a[col, j]
            for j in range(b.cols):
                b[r, j] = b[r, j] - factor * b[col, j]
    return ScalarMatrix(n, b.cols, [b[i, j] / a[i, i] for i in range(n) for j in range(b.cols)])


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("seed", range(4))
def test_solve_equals_the_divide_per_entry_solve(ring, seed):
    rng = random.Random(300 + seed)
    a = ScalarMatrix.from_rows(_diagonally_dominant(rng, ring, 4))
    a[0, 0] = _zero(ring)  # forces a row swap in column 0
    b = ScalarMatrix.from_rows(_rows(rng, ring, 4, 3))
    assert a.solve(b) == _solve_dividing_per_entry(a, b)


def _qkz_matrix_2_1_system():
    """T^T and S^T of the R-matrix solve in QKZ_MATRIX (2,1) at lmax 4."""
    p = sample_generic_point(1, guard=8).with_overrides(2, 1)
    lmax = 4
    S, T = expansion_matrices(
        2, 1, LambdaSeries.constant(p.d1, lmax), LambdaSeries.constant(p.d4, lmax),
        LambdaSeries.variable(lmax), LambdaSeries.constant(p.q, lmax))
    return T.transpose(), S.transpose()


def test_solve_inverts_each_pivot_once(monkeypatch):
    # 4 x 4 over Lambda-series: one inverse per pivot, where dividing at
    # every use takes 3 per column plus one per solution entry
    a, b = _qkz_matrix_2_1_system()
    real = TruncatedSeries.inverse
    calls = []

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(TruncatedSeries, "inverse", counted)
    x = a.solve(b)
    assert len(calls) == 4
    del calls[:]
    assert _solve_dividing_per_entry(a, b) == x
    assert len(calls) == 4 * 3 + 4 * 4
