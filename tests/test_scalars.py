import json
import operator
import os
import pickle
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import qkz.scalars
from qkz.cone import ConeSeries
from qkz.errors import DegenerateParameterError, QkzError, SamplingError, SingularMatrixError
from qkz.jackson import JacksonParams
from qkz.laumon import z_al_truncated
from qkz.linalg import ScalarMatrix
from qkz.partitions import partitions_of
from qkz.qseries import LambdaSeries, dbl_qt_poch_series, heine_2phi1, phi_coeffs, qpoch
from qkz.rmatrix import dual_qkz_residuals, qkz_residual
from qkz.scalars import (
    ONE,
    HJet,
    Monomial,
    ParamPoint,
    Rat,
    _draw_root,
    _passes_guards,
    _reduced,
    coprime_base,
    dot,
    exp_jet,
    exponent_vector,
    int_pairs,
    is_plain,
    product,
    quotient,
    reciprocal,
    sample_generic_point,
    series_exp,
    shakirov_eigenvalue,
)

rationals = st.builds(Rat, st.integers(-40, 40), st.integers(1, 40))
small_rationals = st.builds(Rat, st.integers(-9, 9), st.integers(1, 9))


@given(rationals, rationals, rationals)
def test_rat_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if c != 0:
        assert (a / c) * c == a


fraction_backend = pytest.mark.skipif(
    Rat.__module__ != "qkz.scalars", reason="Rat is gmpy2.mpq, not the Fraction subclass")


def _draw_operand(rng, kind):
    """A Rat (small, large, signed or 0), an int or a bool."""
    bits = rng.choice((4, 4, 40, 130))
    n = 0 if rng.random() < 0.15 else rng.randint(-2 ** bits, 2 ** bits)
    if kind is int:
        return n
    if kind is bool:
        return bool(n % 2)
    return Rat(n, rng.randint(1, 2 ** bits))


def _as_fraction(x):
    return Fraction(x) if type(x) is Rat else x


def _agrees_with_fraction(op, *args, fast=False):
    """op on Rat operands gives what it gives on their Fractions, or raises
    the same exception.  A `fast` operator (Rat, int and bool operands only)
    gives a Rat where Fraction gives a Fraction; any other result has the
    type of Fraction's own."""
    try:
        want = op(*map(_as_fraction, args))
    except ArithmeticError as exc:
        with pytest.raises(type(exc)) as got:
            op(*args)
        assert str(got.value) == str(exc), args
        return
    got = op(*args)
    assert got == want and type(got) is (
        Rat if fast and type(want) is Fraction else type(want)), (op, args, got, want)


BINARY = (operator.add, operator.sub, operator.mul, operator.truediv, operator.eq, operator.ne)


def _remainder(a, b):
    return divmod(a, b)[1]


# % and the remainder of divmod, which Fraction gives as a plain Fraction
REMAINDERS = (operator.mod, _remainder)


@fraction_backend
def test_rat_arithmetic_equals_fraction_arithmetic():
    rng = random.Random(20)
    for _ in range(3000):
        x = _draw_operand(rng, Rat)
        y = _draw_operand(rng, rng.choice((Rat, Rat, int, bool)))
        for op in BINARY:
            _agrees_with_fraction(op, x, y, fast=True)
            _agrees_with_fraction(op, y, x, fast=True)
        for unary in (operator.neg, bool):
            _agrees_with_fraction(unary, x, fast=True)
        e = rng.randint(-4, 4)
        for power in (e, e > 0):
            _agrees_with_fraction(operator.pow, x, power, fast=True)
        # Fraction's own: unary +, abs, remainders, round and Rat exponents
        for unary in (operator.pos, operator.abs):
            _agrees_with_fraction(unary, x)
        _agrees_with_fraction(operator.pow, x, Rat(e))
        for op in REMAINDERS:
            _agrees_with_fraction(op, x, y)
            _agrees_with_fraction(op, y, x)
        for ndigits in (-2, 0, 3):
            _agrees_with_fraction(round, x, ndigits)
    # int ** Rat: an int for an exponent >= 0, a Fraction below 0, a float
    # or complex off the integers
    for base in range(-3, 4):
        for e in (-3, -1, 0, 1, 2, Rat(1, 2), Rat(-2, 3)):
            _agrees_with_fraction(operator.pow, base, Rat(e))


@fraction_backend
@pytest.mark.parametrize("x", [Rat(0), Rat(-3), Rat(-7, 3), Rat(2 ** 100 + 1, 3 ** 50)])
def test_rat_with_a_foreign_operand_takes_the_fraction_path(x):
    # every result is Fraction's own: a Fraction stays a Fraction, a float a float
    for y in (Fraction(5, 4), Fraction(0), 0.5, -2.0):
        _agrees_with_fraction(operator.pow, x, y)
        _agrees_with_fraction(operator.pow, y, x)
        for op in BINARY + REMAINDERS:
            _agrees_with_fraction(op, x, y)
            _agrees_with_fraction(op, y, x)


def test_a_fraction_is_a_plain_scalar():
    # any exact rational is plain: Fraction inputs give the kernels' values
    # for Rat inputs, and a series takes a Fraction as a constant
    assert is_plain(Fraction(1, 3))
    rats = [Rat(1, 3), Rat(-5, 7), Rat(2), Rat(9, 4)]
    for values in ([Fraction(x) for x in rats], [Fraction(1, 3), Rat(-5, 7), 2, Fraction(9, 4)]):
        assert dot(zip(values, values[1:])) == dot(zip(rats, rats[1:]))
        assert product(values) == product(rats)
        assert int_pairs(values) == int_pairs(rats)
        assert quotient(values[0], values[1], "x") == quotient(rats[0], rats[1], "x")
        assert reciprocal(values[1]) == reciprocal(rats[1])
        assert qpoch(values[0], values[3], 3) == qpoch(rats[0], rats[3], 3)
    s = LambdaSeries([Rat(1, 2), Rat(-3), Rat(2, 7)])
    assert s * Fraction(1, 3) == Fraction(1, 3) * s == s * Rat(1, 3)
    x = Rat(-3, 5)
    assert s * abs(x) == abs(x) * s == s * Rat(3, 5)


@fraction_backend
def test_rat_hash_pickle_and_zero_division():
    for n, d in ((0, 1), (3, 4), (-5, 6), (2 ** 80, 3 ** 40), (7, 2 ** 61 - 1)):
        x = Rat(n, d)
        assert hash(x) == hash(Fraction(n, d))
        back = pickle.loads(pickle.dumps(x))
        assert back == x and type(back) is Rat
    assert {Rat(6, 3): "two"}[2] == "two"
    for fault in (lambda: Rat(3, 4) / 0, lambda: Rat(3, 4) / Rat(0), lambda: 1 / Rat(0),
                  lambda: Rat(0) ** -2, lambda: Rat(0, 5) ** -1):
        with pytest.raises(ZeroDivisionError):
            fault()


def test_an_importable_gmpy2_gives_its_mpq(tmp_path):
    # the Fraction subclass exists only where gmpy2 is missing
    (tmp_path / "gmpy2.py").write_text("from fractions import Fraction as mpq\n")
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import gmpy2, qkz.scalars as s; "
            "assert s.Rat is s._reduced is gmpy2.mpq and not hasattr(s, '_rat')")
    done = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": f"{tmp_path}{os.pathsep}{src}"})
    assert done.returncode == 0


def test_rat_with_a_series_gives_the_series():
    s = LambdaSeries([Rat(1, 2), Rat(-3), Rat(2, 7)])
    x = Rat(3, 5)
    for got, want in ((s * x, [Rat(3, 10), Rat(-9, 5), Rat(6, 35)]),
                      (x * s, [Rat(3, 10), Rat(-9, 5), Rat(6, 35)]),
                      (x - s, [Rat(1, 10), Rat(3), Rat(-2, 7)])):
        assert type(got) is LambdaSeries and list(got.coeffs) == want
    assert type(x / s) is LambdaSeries and x / s * s == x
    jet = x + HJet([Rat(1), Rat(2, 3)])
    assert type(jet) is HJet and jet.coeffs == (Rat(8, 5), Rat(2, 3))


def _jet(coeffs):
    return HJet([Rat(x) for x in coeffs])


@given(st.lists(small_rationals, min_size=4, max_size=4),
       st.lists(small_rationals, min_size=4, max_size=4),
       st.lists(small_rationals, min_size=4, max_size=4))
def test_hjet_ring_axioms(a, b, c):
    x, y, z = HJet(a), HJet(b), HJet(c)
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x


@given(small_rationals)
def test_hjet_inverse(c0):
    x = HJet([c0, Rat(1), Rat(2, 3), Rat(-1, 5)])
    if c0 == 0:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert x * x.inverse() == 1


@pytest.mark.parametrize("den", [Rat(0), 0, LambdaSeries([0, Rat(2), Rat(-1, 3)])])
def test_quotient_by_a_non_invertible_denominator_is_degenerate(den):
    with pytest.raises(DegenerateParameterError, match="^test denominator vanishes$"):
        quotient(Rat(3, 5), den, "test denominator")


@given(small_rationals, small_rationals, small_rationals)
def test_quotient_by_an_invertible_denominator_divides(a, b, c):
    if a == 0:
        return
    assert quotient(b, a, "x") == b / a
    num, den = LambdaSeries([b, c, a]), LambdaSeries([a, b, c])
    assert quotient(num, den, "x") == num / den
    assert quotient(b, den, "x") == b / den


def test_exp_jet_examples():
    assert exp_jet(Rat(0), 3).coeffs == (1, 0, 0, 0)
    assert exp_jet(Rat(1), 2).coeffs == (1, 1, Rat(1, 2))
    assert exp_jet(Rat(-2), 2).coeffs == (1, -2, 2)


@given(small_rationals, small_rationals)
def test_exp_jet_multiplicative(a, b):
    K = 5
    assert exp_jet(a, K) * exp_jet(b, K) == exp_jet(a + b, K)


@given(small_rationals)
def test_exp_jet_derivative_property(c):
    # termwise derivative of exp(c h) equals c * exp(c h) up to order K-1
    K = 5
    e = exp_jet(c, K)
    deriv = [e.coeffs[k + 1] * (k + 1) for k in range(K)]
    expect = [c * e.coeffs[k] for k in range(K)]
    assert deriv == expect


def _series_exp_power_sum(s):
    """exp(s) as the sum of s^k / k!, one series product per term."""
    out = term = type(s).constant(ONE, s.order)
    for k in range(1, s.order + 1):
        term = term * s / k
        out = out + term
    return out


@given(st.lists(small_rationals, min_size=0, max_size=6), small_rationals)
def test_series_exp_and_shift_equal_their_loop_forms(coeffs, factor):
    for cls in (LambdaSeries, HJet):
        s = cls([0, *coeffs])
        assert series_exp(s) == _series_exp_power_sum(s)
        powers = [ONE]
        for _ in coeffs:
            powers.append(powers[-1] * factor)
        assert s.shift_variable(factor).coeffs == tuple(c * w for c, w in zip(s.coeffs, powers))


def test_series_are_unhashable():
    # a series equals its plain constant (LambdaSeries((3, 0, 0)) == 3), so
    # no hash of its coefficients could agree with the scalar's
    assert LambdaSeries.constant(3, 2) == 3
    for cls in (LambdaSeries, HJet):
        with pytest.raises(TypeError):
            hash(cls.constant(3, 2))


def test_series_of_different_orders_are_unequal():
    # the coefficients past the shorter series are unknown, not 0, so
    # neither the series nor matrices over them compare equal
    short, long = LambdaSeries([1, 2]), LambdaSeries([1, 2, 3])
    assert short != long and long != short
    assert LambdaSeries([1, 2]) != LambdaSeries([1, 2, 0])
    assert ScalarMatrix(1, 1, [short]) != ScalarMatrix(1, 1, [long])
    assert LambdaSeries([1, 2]) == LambdaSeries([Rat(1), 2]) != HJet([1, 2])


def test_sampling_determinism_and_guards():
    p1 = sample_generic_point(1, guard=8)
    # a fresh draw, past the memo
    p2 = sample_generic_point.__wrapped__(1, guard=8)
    assert p1 == p2
    assert p1.q != 1 and p1.t != 1
    # exact non-degeneracy checked during sampling
    for k in range(4):
        for ell in range(4):
            if (k, ell) != (0, 0):
                assert shakirov_eigenvalue(p1, k, ell) != 1


def _eigenvalue_unreduced(p, k, ell):
    """q^(a(a+1)) (qtQ)^(-a) t^(-ell) at x-degree a = k - ell, as the two
    Borel passes and the inverse shifts contribute it."""
    a = k - ell
    return p.q ** (a * (a + 1)) * (p.q * p.t * p.Q) ** (-a) * p.t ** (-ell)


def _passes_guards_reference(p, guard):
    """The guard as a literal search: q^j, t^j != 1 for 0 < j <= guard, every
    q^a t^b Q^c != 1 with 0 < max(|a|, |b|, |c|) <= guard, eigenvalues != 1."""
    for base in (p.q, p.t):
        pw = ONE
        for _ in range(guard):
            pw = pw * base
            if pw == 1:
                return False
    span = range(-guard, guard + 1)
    qa, tb = ({j: base ** j for j in span} for base in (p.q, p.t))
    # q^a t^b Q^c = 1 exactly when Q^c = 1/(q^a t^b): each value Q^c with
    # all its exponents c, so that Q = 1 (every c) is still found
    Q_exponents = {}
    for c in span:
        Q_exponents.setdefault(p.Q ** c, []).append(c)
    for a in span:
        for b in span:
            if any((a, b, c) != (0, 0, 0) for c in Q_exponents.get(1 / (qa[a] * tb[b]), ())):
                return False
    return all(_eigenvalue_unreduced(p, k, ell) != 1
               for k in range(guard + 1) for ell in range(guard + 1) if (k, ell) != (0, 0))


@pytest.mark.parametrize("seed", range(1, 6))
def test_reduced_eigenvalue_equals_the_unreduced_form(seed):
    p = sample_generic_point(seed, guard=8)
    for k in range(9):
        for ell in range(9):
            assert shakirov_eigenvalue(p, k, ell) == _eigenvalue_unreduced(p, k, ell)


def test_guard_agrees_with_the_literal_search():
    firsts = [ParamPoint(*[_draw_root(rng) for _ in range(7)])
              for rng in (random.Random(seed) for seed in range(1, 201))]
    p = firsts[0]
    rq, rt = p.rq, p.rt
    degenerate = [replace(p, rQ=rQ) for rQ in (rq, 1 / rq, rt / rq, rq ** 2 / rt ** 3, ONE)]
    degenerate += [replace(p, rt=rq), replace(p, rq=ONE)]
    for point in firsts + degenerate:
        assert _passes_guards(point, 8) == _passes_guards_reference(point, 8), point
    assert not any(_passes_guards(point, 8) for point in degenerate)


SHARED_PRIMES = (Rat(6, 35), Rat(10, 21), Rat(15, 14))


def test_coprime_base_splits_numbers_that_share_primes():
    # each of 6, 35, 10, 21, 15, 14 shares a prime with four of the others,
    # and gcd refinement splits them into 2, 3, 5, 7
    base = coprime_base(SHARED_PRIMES)
    assert base == [2, 3, 5, 7]
    assert [exponent_vector(r, base) for r in SHARED_PRIMES] \
        == [(1, 1, -1, -1), (1, -1, 1, -1), (-1, 1, 1, -1)]
    assert exponent_vector(Rat(-12, 49), base) == (2, 1, 0, -2)
    assert exponent_vector(Rat(22, 3), base) is None
    # a factor that no two numbers share stays whole
    assert coprime_base([6, 35, 1]) == [6, 35]
    assert coprime_base([12, 18]) == [2, 3]
    assert coprime_base([]) == []


_S = SHARED_PRIMES[1]


@pytest.mark.parametrize("rt, rQ, passes", [
    (_S, Rat(15, 14), True), (_S, Rat(9, 25), False),
    (_S ** 3, SHARED_PRIMES[0] ** 3 / _S ** 4, False)])
def test_guard_on_roots_that_share_primes(rt, rQ, passes):
    # rq = 6/35, rt = 10/21: with rQ = 9/25 = rq/rt, q t^-1 Q^-1 = 1 lies in
    # the box; with rQ = 15/14 no relation does.  With rt = s^3 and
    # rQ = rq^3 s^-4 (s = 10/21) the smallest relation is q^9 t^-4 Q^-3 = 1,
    # outside the box, and only the eigenvalue lambda_{4,1} = 1 rejects it
    p = replace(sample_generic_point(1, guard=8), rq=SHARED_PRIMES[0], rt=rt, rQ=rQ)
    assert _passes_guards(p, 8) == _passes_guards_reference(p, 8) == passes


def test_sampling_is_memoized_and_overrides_leave_the_shared_point():
    p = sample_generic_point(4, guard=8)
    assert sample_generic_point(4, guard=8) is p
    before = p.to_json()
    p.with_overrides(2, 1)
    assert sample_generic_point(4, guard=8) is p
    assert p.to_json() == before
    assert p.m is None and p.n is None


def test_derived_parameters_are_computed_once():
    # each is set once, at construction; equality, hashing and pickling
    # still see the fourth roots and overrides alone (a pickled copy is
    # equal and carries the same values)
    import pickle

    p = sample_generic_point(6, guard=8).with_overrides(1, 2)
    fresh = ParamPoint(p.rq, p.rt, p.rQ, p.rd1, p.rd2, p.rd3, p.rd4, m=1, n=2)
    for name in ("q", "t", "Q", "d1", "d2", "d3", "d4"):
        value = getattr(p, name)
        assert getattr(p, name) is value
        assert value == getattr(p, "r" + name) ** 4
    assert p == fresh and hash(p) == hash(fresh)
    copy = pickle.loads(pickle.dumps(p))
    assert copy == p and hash(copy) == hash(p) and copy.q == p.q


_ROOTS = [Rat(2), Rat(3), Rat(5, 2), Rat(3, 2), Rat(5, 3), Rat(7, 3), Rat(9, 5)]


def test_a_zero_fourth_root_is_degenerate():
    for i, name in enumerate(("rq", "rt", "rQ", "rd1", "rd2", "rd3", "rd4")):
        with pytest.raises(DegenerateParameterError, match=f"fourth root {name} is zero"):
            ParamPoint(*_ROOTS[:i], 0, *_ROOTS[i + 1:])


def test_point_monomial_guard():
    p = sample_generic_point(2, guard=8)
    assert p.q ** 2 * p.t != 1


def test_overrides_and_dictionary():
    p = sample_generic_point(1, guard=6).with_overrides(1, 0)
    assert p.d2 * p.q == 1
    assert p.d3 == 1
    assert p.window == (1, 0)


@pytest.mark.parametrize("build", [
    lambda p: z_al_truncated(p, 1),
    lambda p: qkz_residual(p, 1),
    lambda p: dual_qkz_residuals(p, 1),
    lambda p: JacksonParams.from_point(p, Rat(5, 7)),
], ids=["z_al_truncated", "qkz_residual", "dual_qkz_residuals", "from_point"])
def test_builders_need_a_mass_truncated_point(build):
    # each windowed builder reads (m, n) from the point, through `window`
    p = sample_generic_point(51, guard=6)
    with pytest.raises(QkzError, match="needs a mass-truncated point"):
        build(p)
    with pytest.raises(QkzError, match="needs a mass-truncated point"):
        build(replace(p.with_overrides(1, 0), n=None))


exponent_vectors = st.builds(Monomial, st.lists(st.integers(-6, 6), min_size=7, max_size=7))


def test_monomial_half_needs_even_exponents():
    assert Monomial((2, -4, 0, 6, 0, -2, 8)).half() == (1, -2, 0, 3, 0, -1, 4)
    for i in range(7):
        odd = Monomial(1 if j == i else 2 for j in range(7))
        with pytest.raises(QkzError):
            odd.half()


@given(exponent_vectors, exponent_vectors)
def test_monomial_arithmetic_is_evaluated_exactly(a, b):
    p = sample_generic_point(1, guard=8)
    assert p.at(a + b) == p.at(a) * p.at(b)
    assert p.at(a - b) == p.at(a) / p.at(b)
    assert p.at(-a) * p.at(a) == 1
    v = a + a
    assert p.at(v.half()) == p.at(a)
    assert p.at(v.half()) ** 2 == p.at(v)


def test_point_serialization_round_trip():
    p = sample_generic_point(5, guard=6).with_overrides(2, 1)
    obj = json.loads(p.to_json())
    assert obj["m"] == 2 and obj["n"] == 1
    assert all("/" in obj[k] or obj[k].lstrip("-").isdigit()
               for k in ("rq", "rt", "rQ", "rd1", "rd2", "rd3", "rd4"))


def test_matrix_solve_and_failure():
    m = ScalarMatrix.from_rows([[Rat(2), Rat(1)], [Rat(1), Rat(1)]])
    rhs = ScalarMatrix.from_rows([[Rat(3)], [Rat(2)]])
    sol = m.solve(rhs)
    assert sol[0, 0] == 1 and sol[1, 0] == 1
    singular = ScalarMatrix.from_rows([[Rat(1), Rat(2)], [Rat(2), Rat(4)]])
    with pytest.raises(SingularMatrixError):
        singular.solve(rhs)
    assert m.solve(ScalarMatrix.identity(2)) @ m == ScalarMatrix.identity(2)


def test_matrix_solve_over_jets_needs_invertible_leading_term():
    one = HJet.constant(1, 2)
    h = HJet.variable(2)
    m = ScalarMatrix.from_rows([[one, h], [h, one]])
    rhs = ScalarMatrix.from_rows([[one], [h]])
    sol = m.solve(rhs)
    assert m @ sol == rhs
    # matrix with nilpotent entries everywhere cannot be solved
    bad = ScalarMatrix.from_rows([[h, h], [h, h]])
    with pytest.raises(SingularMatrixError):
        bad.solve(ScalarMatrix.from_rows([[one], [one]]))


def test_mul_variable_power_keeps_the_order():
    s = LambdaSeries([1, 2])
    assert s.mul_variable_power(3) == LambdaSeries([0, 0])
    for power in range(5):
        shifted = s.mul_variable_power(power)
        assert shifted.order == 1
        assert shifted.coeffs == ((1, 2), (0, 1), (0, 0), (0, 0), (0, 0))[power]


_R = Rat(1, 3)


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: HJet([1, 2]) + LambdaSeries([1, 2]), TypeError, "cannot mix"),
    (lambda: LambdaSeries([1, 2]) + LambdaSeries([1, 2, 3]), ValueError, "orders differ"),
    (lambda: LambdaSeries.variable(0), ValueError, "order >= 1"),
    (lambda: LambdaSeries([1, 2]).mul_variable_power(-1), ValueError, "negative powers"),
    (lambda: series_exp(LambdaSeries([1, 2])), ValueError, "zero constant term"),
    (lambda: exp_jet(_R, -1), ValueError, "order must be >= 0"),
    (lambda: ParamPoint(*_ROOTS).with_overrides(-1, 0), ValueError, "m, n >= 0"),
    (lambda: ScalarMatrix(2, 2, [0] * 3), ValueError, "does not match shape"),
    (lambda: ScalarMatrix.from_rows([[1, 2], [3]]), ValueError, "ragged rows"),
    (lambda: ScalarMatrix.identity(2) @ ScalarMatrix.identity(3), ValueError, "shape mismatch"),
    (lambda: ScalarMatrix.identity(2).solve(ScalarMatrix(3, 1, [1] * 3)), ValueError,
     "row count mismatch"),
    (lambda: phi_coeffs(_R, _R, -1), ValueError, "order must be >= 0"),
    (lambda: dbl_qt_poch_series(_R, _R, _R, -1), ValueError, "order must be >= 0"),
    (lambda: heine_2phi1(_R, _R, _R, _R, -1), ValueError, "z_order must be >= 0"),
    (lambda: partitions_of(-1), ValueError, "n must be >= 0"),
    (lambda: ConeSeries(1, 1, [[0]]), ValueError, "does not match truncation orders"),
    (lambda: ConeSeries.one(1, 1).borel(_R, direction=2), ValueError, "+1 or -1"),
    (lambda: JacksonParams(1, 2, 3, 4, 5, 6, 1, 0).shifted(3), ValueError, "1 or 2"),
    (lambda: sample_generic_point.__wrapped__(1), SamplingError, "no generic point found"),
])
def test_argument_guards_raise(monkeypatch, call, error, fragment):
    # a caller's bad argument, never the point; with no resamples allowed
    # the sampler gives up at once
    monkeypatch.setattr(qkz.scalars, "MAX_RESAMPLES", 0)
    with pytest.raises(error) as raised:
        call()
    assert fragment in str(raised.value)


# -- the exact kernels against their one-operation-at-a-time forms -------------

def _sum_of_products(pairs):
    acc = 0
    for x, y in pairs:
        acc = acc + x * y
    return acc


def _product_one_at_a_time(values):
    acc = ONE
    for v in values:
        acc = acc * v
    return acc


def _kernel_cases():
    rng = random.Random(7)

    def r():
        return Rat(rng.randint(-30, 30), rng.randint(1, 30))

    def series(cls):
        return cls([r() for _ in range(3)])

    rats = [(r(), r()) for _ in range(6)]
    ints = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(6)]
    lam = [(series(LambdaSeries), series(LambdaSeries)) for _ in range(4)]
    jets = [(series(HJet), series(HJet)) for _ in range(4)]
    mixed = [(r(), series(LambdaSeries)), (3, r()), (series(LambdaSeries), -2),
             (Rat(0), series(LambdaSeries)), (r(), 0), (LambdaSeries.constant(0, 2), r())]
    return {"rat": rats, "int": ints, "lambda": lam, "jet": jets, "mixed": mixed,
            "rat and int": rats[:3] + ints[:3],
            "sparse": [(Rat(0), r()), (r(), r()), (0, 5), (r(), Rat(0))]}


def _kernel_type(want):
    """The type a kernel gives where the one-at-a-time form gives `want`: a
    plain result is a Rat, even when the int operands made it an int."""
    return Rat if is_plain(want) else type(want)


@pytest.mark.parametrize("case", sorted(_kernel_cases()))
def test_dot_equals_the_sum_of_products(case):
    pairs = _kernel_cases()[case]
    want = _sum_of_products(pairs)
    for got in (dot(pairs), dot(iter(pairs))):
        assert got == want and type(got) is _kernel_type(want)


def test_dot_of_no_nonzero_term_is_the_int_zero():
    zero_lam = LambdaSeries.constant(0, 2)
    for pairs in ([], [(Rat(0), Rat(3))], [(0, 0), (Rat(2), 0)],
                  [(zero_lam, Rat(1, 2)), (LambdaSeries([1, 2, 3]), zero_lam)],
                  [(HJet.constant(0, 1), HJet.variable(1))]):
        result = dot(pairs)
        assert type(result) is int and result == 0, pairs
    # terms that cancel are a rational zero
    cancelled = dot([(Rat(1, 3), Rat(3)), (-1, 1)])
    assert cancelled == 0 and type(cancelled) is Rat
    assert type(dot([(2, 3)])) is Rat


def test_int_pairs_take_plain_values_only():
    assert int_pairs([3, Rat(-4, 6), True, Rat(0)]) == [(3, 1), (-2, 3), (1, 1), (0, 1)]
    with pytest.raises(ValueError, match="LambdaSeries"):
        int_pairs([Rat(1, 2), LambdaSeries([1, 2])])


@pytest.mark.parametrize("case", sorted(_kernel_cases()))
def test_product_equals_the_one_at_a_time_product(case):
    values = [v for pair in _kernel_cases()[case] for v in pair]
    want = _product_one_at_a_time(values)
    got = product(values)
    assert got == want and type(got) is _kernel_type(want)
    assert product([]) == 1 and type(product([])) is Rat
    assert type(product([2, -3])) is Rat


def test_reduced_equals_the_rat_of_its_pair():
    # the kernels' one reduction: any sign, a zero numerator, large ints
    rng = random.Random(8)
    pairs = [(0, 5), (0, -7), (5, 1), (-5, -1), (6, -4), (-6, -4), (2 ** 90 * 3, -(2 ** 70) * 9)]
    pairs += [(rng.randint(-2 ** 70, 2 ** 70), rng.choice((-1, 1)) * rng.randint(1, 2 ** 70))
              for _ in range(200)]
    for n, d in pairs:
        got = _reduced(n, d)
        assert got == Rat(n, d) and type(got) is Rat, (n, d)


def _convolution(a, b):
    n = len(a.coeffs)
    return [_sum_of_products([(a.coeffs[i], b.coeffs[k - i]) for i in range(k + 1)])
            for k in range(n)]


@given(st.lists(small_rationals, min_size=4, max_size=4),
       st.lists(small_rationals, min_size=4, max_size=4))
def test_series_product_and_inverse_equal_the_convolution(a, b):
    sa, sb = LambdaSeries(a), LambdaSeries(b)
    assert list((sa * sb).coeffs) == _convolution(sa, sb)
    if a[0] != 0:
        inv = sa.inverse()
        assert list((sa * inv).coeffs) == [1, 0, 0, 0]
        assert _convolution(sa, inv) == [1, 0, 0, 0]
