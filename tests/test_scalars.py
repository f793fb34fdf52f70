import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qkz.errors import DegenerateParameterError, QkzError, SingularMatrixError
from qkz.linalg import ScalarMatrix
from qkz.qseries import LambdaSeries
from qkz.scalars import (
    ONE,
    HJet,
    Monomial,
    ParamPoint,
    Rat,
    _draw_root,
    _passes_guards,
    dot,
    exp_jet,
    product,
    quotient,
    rat,
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


def _jet(coeffs):
    return HJet([rat(x) for x in coeffs])


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
    x = HJet([c0, rat(1), rat(2, 3), rat(-1, 5)])
    if c0 == 0:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert x * x.inverse() == 1


@pytest.mark.parametrize("den", [Rat(0), 0, LambdaSeries([0, rat(2), rat(-1, 3)])])
def test_quotient_by_a_non_invertible_denominator_is_degenerate(den):
    with pytest.raises(DegenerateParameterError, match="^test denominator vanishes$"):
        quotient(rat(3, 5), den, "test denominator")


@given(small_rationals, small_rationals, small_rationals)
def test_quotient_by_an_invertible_denominator_divides(a, b, c):
    if a == 0:
        return
    assert quotient(b, a, "x") == b / a
    num, den = LambdaSeries([b, c, a]), LambdaSeries([a, b, c])
    assert quotient(num, den, "x") == num / den
    assert quotient(b, den, "x") == b / den


def test_exp_jet_examples():
    assert exp_jet(rat(0), 3).coeffs == (1, 0, 0, 0)
    assert exp_jet(rat(1), 2).coeffs == (1, 1, Rat(1, 2))
    assert exp_jet(rat(-2), 2).coeffs == (1, -2, 2)


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
    qa, tb, Qc = ({j: base ** j for j in range(-guard, guard + 1)}
                  for base in (p.q, p.t, p.Q))
    for a in range(-guard, guard + 1):
        for b in range(-guard, guard + 1):
            ab = qa[a] * tb[b]
            for c in range(-guard, guard + 1):
                if (a, b, c) != (0, 0, 0) and ab * Qc[c] == 1:
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
    degenerate = [p.replace_roots(rQ=rQ) for rQ in (rq, 1 / rq, rt / rq, rq ** 2 / rt ** 3, ONE)]
    degenerate += [p.replace_roots(rt=rq), p.replace_roots(rq=ONE)]
    for point in firsts + degenerate:
        assert _passes_guards(point, 8) == _passes_guards_reference(point, 8), point
    assert not any(_passes_guards(point, 8) for point in degenerate)


def test_sampling_is_memoized_and_overrides_leave_the_shared_point():
    p = sample_generic_point(4, guard=8)
    assert sample_generic_point(4, guard=8) is p
    before = p.to_json()
    p.with_overrides(2, 1)
    assert sample_generic_point(4, guard=8) is p
    assert p.to_json() == before
    assert p.m is None and p.n is None


def test_derived_parameters_are_computed_once():
    # each is computed on its first read and kept; equality, hashing and
    # pickling still see the fourth roots and overrides alone
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


def test_point_monomial_guard():
    p = sample_generic_point(2, guard=8)
    assert p.q ** 2 * p.t != 1


def test_overrides_and_dictionary():
    p = sample_generic_point(1, guard=6).with_overrides(1, 0)
    assert p.d2 * p.q == 1
    assert p.d3 == 1


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
    m = ScalarMatrix.from_rows([[rat(2), rat(1)], [rat(1), rat(1)]])
    rhs = ScalarMatrix.from_rows([[rat(3)], [rat(2)]])
    sol = m.solve(rhs)
    assert sol[0, 0] == 1 and sol[1, 0] == 1
    singular = ScalarMatrix.from_rows([[rat(1), rat(2)], [rat(2), rat(4)]])
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


@pytest.mark.parametrize("case", sorted(_kernel_cases()))
def test_dot_equals_the_sum_of_products(case):
    pairs = _kernel_cases()[case]
    assert dot(pairs) == _sum_of_products(pairs)
    assert dot(iter(pairs)) == _sum_of_products(pairs)


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


@pytest.mark.parametrize("case", sorted(_kernel_cases()))
def test_product_equals_the_one_at_a_time_product(case):
    values = [v for pair in _kernel_cases()[case] for v in pair]
    assert product(values) == _product_one_at_a_time(values)
    assert product([]) == 1 and type(product([])) is Rat
    assert type(product([2, -3])) is Rat


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
