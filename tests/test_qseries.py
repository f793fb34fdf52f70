import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qkz.errors import DegenerateParameterError
from qkz.qseries import (
    LambdaSeries,
    bailey_check,
    bracket_parts,
    dbl_qt_poch_series,
    heine_2phi1,
    hyper_terms,
    phi_coeffs,
    qbinom,
    qbracket_poch,
    qfactorial,
    qpoch,
    qpoch_run,
    very_well_poised,
    w10_9,
)
from qkz.scalars import HJet, Rat, quotient

from oracles import typed

nonzero_rats = st.builds(Rat, st.integers(1, 30), st.integers(1, 30))


def test_qpoch_examples():
    a, q = Rat(2), Rat(3)
    assert qpoch(a, q, 0) == 1
    assert qpoch(a, q, 2) == (1 - 2) * (1 - 6)
    # splitting (a)_{k+l} = (a)_k (a q^k)_l at k = l = 1
    assert qpoch(a, q, 2) == qpoch(a, q, 1) * qpoch(a * q, q, 1)


@given(nonzero_rats, nonzero_rats, st.integers(0, 8))
def test_qpoch_inversion_identity(a, q, n):
    if a == 0 or q == 0:
        return
    lhs = qpoch(a, q, n)
    rhs = (-a) ** n * q ** (n * (n - 1) // 2) * qpoch(1 / (a * q ** (n - 1)), q, n)
    assert lhs == rhs


@given(nonzero_rats, nonzero_rats, st.integers(0, 5), st.integers(0, 5))
def test_qpoch_splitting(a, q, k, ell):
    assert qpoch(a, q, k + ell) == qpoch(a, q, k) * qpoch(a * q ** k, q, ell)


def test_qbracket_examples():
    assert qbracket_poch(Rat(2), Rat(3), 0) == 1
    # [u]_1 = u^(-1/2) - u^(1/2) at u = 4
    assert qbracket_poch(Rat(2), Rat(7), 1) == Rat(1, 2) - 2 == Rat(-3, 2)
    assert qbracket_poch(Rat(2), Rat(3), 2) == Rat(35, 4)


@given(nonzero_rats, nonzero_rats, st.integers(0, 6))
def test_qbracket_product_form(su, sq, n):
    # [u; q]_n = prod over [q^i u] with [v] = v^(-1/2) - v^(1/2)
    expect = Rat(1)
    for i in range(n):
        sv = su * sq ** i
        expect = expect * (1 / sv - sv)
    assert qbracket_poch(su, sq, n) == expect


signed_ints = st.integers(1, 40).flatmap(lambda v: st.sampled_from([v, -v]))


def _bracket_run(a, b, c, d, n):
    """[u; q]_n for sqrt(u) = a/b, sqrt(q) = c/d, as the product of the
    elementary brackets [u q^i], i < n, each an int pair from bracket_parts."""
    num = den = 1
    for i in range(n):
        bn, bd = bracket_parts(a * c ** i, b * d ** i)
        num, den = num * bn, den * bd
    return num, den


@given(signed_ints, st.integers(1, 40), signed_ints, st.integers(1, 40), st.integers(0, 6))
def test_bracket_parts_equal_the_rational_form(a, b, c, d, n):
    # qbracket_poch, one Rat operation at a time, is the oracle for the int kernel
    assert Rat(*_bracket_run(a, b, c, d, n)) == qbracket_poch(Rat(a, b), Rat(c, d), n)


def test_bracket_parts_meets_the_zero_bracket():
    # sqrt(u) = -1 is [1] = 0; sqrt(u) = (2/3)^-1 and sqrt(q) = 2/3 reach it at i = 1
    assert bracket_parts(-3, 3) == (0, -9)
    assert _bracket_run(-3, 3, 5, 7, 2)[0] == 0
    assert _bracket_run(3, 2, 2, 3, 3)[0] == 0
    assert _bracket_run(3, 2, 2, 3, 1)[0] != 0


@pytest.mark.parametrize("args", [(0, 1, 2, 3, 2), (2, 3, 0, 1, 2), (0, 1, 0, 1, 1)])
def test_bracket_parts_zero_input_is_degenerate(args):
    with pytest.raises(DegenerateParameterError):
        _bracket_run(*args)
    sqrt_u, sqrt_q = Rat(*args[:2]), Rat(*args[2:4])
    with pytest.raises(DegenerateParameterError):
        qbracket_poch(sqrt_u, sqrt_q, args[4])


def test_qbinom_examples():
    q = Rat(5, 7)
    assert qbinom(3, 0, q) == 1
    assert qbinom(2, 1, q) == 1 + q
    for qv in (Rat(2, 3), Rat(5), Rat(7, 2)):
        assert qbinom(4, 2, qv) == (1 + qv ** 2) * (1 + qv + qv ** 2)
    with pytest.raises(ValueError):
        qbinom(2, 3, q)


def test_phi_coeffs_examples():
    q = Rat(1, 2)
    assert phi_coeffs(Rat(3), q, 0) == [1]
    # Euler: coefficient of z^1 in (c z; q)_inf is -c/(1-q)
    assert phi_coeffs(Rat(3), q, 1)[1] == Rat(-3) / (1 - q)
    inv = phi_coeffs(Rat(1), q, 2, inverted=True)
    assert inv[2] == Rat(8, 3)
    # product of the two is 1 through the truncation order
    K = 6
    c = Rat(2, 5)
    direct = phi_coeffs(c, q, K)
    inverse = phi_coeffs(c, q, K, inverted=True)
    conv = [sum(direct[i] * inverse[k - i] for i in range(k + 1)) for k in range(K + 1)]
    assert conv == [1] + [0] * K


def test_dbl_qt_poch_series_examples():
    q, t, c = Rat(1, 2), Rat(1, 3), Rat(2, 7)
    s = dbl_qt_poch_series(c, q, t, 0)
    assert s.coeffs == (1,)
    s = dbl_qt_poch_series(c, q, t, 1)
    assert s.coeffs[1] == -c / ((1 - q) * (1 - t))


def test_dbl_qt_poch_finite_product_oracle():
    # exact peel-off: (c L; q, t)_inf = [prod_{m<M} (c t^m L; q)_inf] (c t^M L; q, t)_inf
    q, t, c = Rat(1, 2), Rat(1, 3), Rat(2, 7)
    L = 5
    target = dbl_qt_poch_series(c, q, t, L)
    for M in (1, 3, 6):
        prod = dbl_qt_poch_series(c * t ** M, q, t, L)
        for mm in range(M):
            prod = prod * LambdaSeries(phi_coeffs(c * t ** mm, q, L))
        assert prod == target


@pytest.mark.parametrize("count", range(6))
def test_hyper_terms_are_pochhammer_ratios(count):
    # t_k = z^k prod (a;q)_k / prod (b;q)_k, each term from qpoch directly
    q, z = Rat(2, 7), Rat(5, 3)
    nums, dens = (Rat(3, 5), Rat(9, 4), Rat(7, 2)), (q, Rat(4, 11))
    terms = hyper_terms(nums, dens, q, z, count, "test denominator")
    assert len(terms) == count + 1
    for k, term in enumerate(terms):
        num = den = Rat(1)
        for a in nums:
            num = num * qpoch(a, q, k)
        for b in dens:
            den = den * qpoch(b, q, k)
        assert term == z ** k * num / den


def test_hyper_terms_vanishing_denominator_is_degenerate():
    # (q^-1; q)_k vanishes from k = 2 on
    q = Rat(2, 7)
    assert len(hyper_terms((Rat(3),), (1 / q,), q, 1, 1, "test")) == 2
    with pytest.raises(DegenerateParameterError):
        hyper_terms((Rat(3),), (1 / q,), q, 1, 2, "test")


def test_heine_examples():
    base = Rat(1, 2)
    a, b, c = Rat(2), Rat(3), Rat(5)
    assert heine_2phi1(a, b, c, base, 0).coeffs == (1,)
    assert heine_2phi1(Rat(1), b, c, base, 3).coeffs == (1, 0, 0, 0)
    s = heine_2phi1(a, b, c, base, 1)
    assert s.coeffs[1] == -1


def test_w10_9_terminates():
    q = Rat(1, 3)
    args = [Rat(2, 7), Rat(3, 5), Rat(5, 2), Rat(7, 3), Rat(2, 9), Rat(4, 11), Rat(8, 3)]
    assert w10_9(*args, 0, q) == 1


def test_6w5_summation():
    # 6W5(a; b, c, q^-n; q, a q^(n+1)/(b c)) = (aq, aq/bc; q)_n / ((aq/b, aq/c; q)_n)
    q = Rat(2, 5)
    a, b, c = Rat(3, 7), Rat(5, 3), Rat(7, 2)
    for n in range(5):
        z = a * q ** (n + 1) / (b * c)
        lhs = very_well_poised(a, (b, c, q ** (-n)), n, q, z)
        rhs = qpoch(a * q, q, n) * qpoch(a * q / (b * c), q, n) \
            / (qpoch(a * q / b, q, n) * qpoch(a * q / c, q, n))
        assert lhs == rhs


def test_6w5_matrix_transition_instance():
    # the summable instance behind the triangular-matrix transition law:
    # 6W5(b q^(2j); a q^(i+j), b/c, q^(j-i); q, c q/a)
    #   = (a/c, b q^(2j+1); q)_(i-j) / ((a/b, c q^(2j+1); q)_(i-j)) (c/b)^(i-j)
    q = Rat(2, 7)
    a, b, c = Rat(3, 5), Rat(9, 4), Rat(5, 11)
    for j in range(3):
        for i in range(j, j + 4):
            head = b * q ** (2 * j)
            lhs = very_well_poised(
                head, (a * q ** (i + j), b / c, q ** (j - i)), i - j, q, c * q / a)
            rhs = qpoch(a / c, q, i - j) * qpoch(b * q ** (2 * j + 1), q, i - j) \
                / (qpoch(a / b, q, i - j) * qpoch(c * q ** (2 * j + 1), q, i - j)) \
                * (c / b) ** (i - j)
            assert lhs == rhs


def test_bailey_transformation():
    q = Rat(2, 7)
    a, b, c, d, e, f = Rat(3, 5), Rat(5, 9), Rat(7, 4), Rat(2, 3), Rat(9, 8), Rat(4, 13)
    for n in (0, 1, 4):
        lhs, rhs = bailey_check(a, b, c, d, e, f, n, q)
        assert lhs == rhs


def _qpoch_one_factor_at_a_time(a, q, n):
    out = Rat(1)
    for i in range(n):
        out = out * (1 - a * q ** i)
    return out


QPOCH_BASES = [0, 1, -1, 3, -2, Rat(0), Rat(1), Rat(2, 3), Rat(-5, 7), Rat(7, 5), Rat(-1, 4)]


@pytest.mark.parametrize("n", range(9))
def test_qpoch_equals_the_one_factor_product(n):
    # ints and Rats, zero and negative a (and q), n = 0..8; always a Rat
    for a in QPOCH_BASES:
        for q in QPOCH_BASES:
            got = qpoch(a, q, n)
            assert type(got) is Rat and got == _qpoch_one_factor_at_a_time(a, q, n), (a, q)


@given(st.builds(Rat, st.integers(-40, 40), st.integers(1, 40)),
       st.builds(Rat, st.integers(-40, 40), st.integers(1, 40)), st.integers(0, 8))
def test_qpoch_equals_the_one_factor_product_at_random(a, q, n):
    assert qpoch(a, q, n) == _qpoch_one_factor_at_a_time(a, q, n)


def test_qpoch_over_series_is_the_one_factor_product():
    a = LambdaSeries([Rat(2, 3), Rat(-1), Rat(5, 7)])
    q = Rat(3, 4)
    for n in range(5):
        assert qpoch(a, q, n) == _qpoch_one_factor_at_a_time(a, q, n)


# -- the running-product forms that the kernels replaced, as oracles ------------

def _qbinom_loop(n, k, q):
    out = Rat(1)
    for i in range(1, k + 1):
        out = out * quotient(1 - q ** (n - k + i), 1 - q ** i, "1 - q^i in qbinom")
    return out


def _qfactorial_loop(n, q):
    out = Rat(1)
    for k in range(1, n + 1):
        out = out * quotient(1 - q ** k, 1 - q, "1 - q in qfactorial")
    return out


def _phi_coeffs_loop(c, q, order, inverted):
    coeffs = [1]
    cj = qq = prefix = 1
    for j in range(1, order + 1):
        cj = cj * c
        qq = qq * (1 - q ** j)
        if not inverted:
            prefix = prefix * (-1) * q ** (j - 1)
        coeffs.append(quotient(cj if inverted else prefix * cj, qq, f"(q;q)_{j}"))
    return coeffs


def _hyper_terms_loop(nums, dens, q, z, count, what):
    terms = [Rat(1)]
    for k in range(1, count + 1):
        num, den = z, Rat(1)
        for a in nums:
            num = num * (1 - a * q ** (k - 1))
        for b in dens:
            den = den * (1 - b * q ** (k - 1))
        terms.append(terms[-1] * quotient(num, den, f"{what} at k={k}"))
    return terms


def _very_well_poised_loop(a, params, nmax, q, z):
    terms = _hyper_terms_loop((a, *params), (q, *(q * a / p for p in params)), q, z, nmax,
                              "very-well-poised denominator")
    total = 0
    for k, term in enumerate(terms):
        total = total + term * quotient(1 - a * q ** (2 * k), 1 - a,
                                        "1 - a in the very-well-poised series")
    return total


def _agree(kernel_form, loop_form):
    """Both forms give the same exact value, or both are degenerate."""
    try:
        want = loop_form()
    except DegenerateParameterError:
        with pytest.raises(DegenerateParameterError):
            kernel_form()
        return
    assert kernel_form() == want


# q = 1 and q = -1 zero some 1 - q^j; the others are generic
ORACLE_QS = [Rat(2, 3), Rat(-5, 7), Rat(7, 5), Rat(3), Rat(1), Rat(-1)]


@pytest.mark.parametrize("q", ORACLE_QS)
def test_qbinom_and_qfactorial_equal_their_loops(q):
    for n in range(7):
        _agree(lambda: qfactorial(n, q), lambda: _qfactorial_loop(n, q))
        for k in range(n + 1):
            _agree(lambda: qbinom(n, k, q), lambda: _qbinom_loop(n, k, q))


@pytest.mark.parametrize("inverted", [False, True])
@pytest.mark.parametrize("q", ORACLE_QS)
def test_phi_coeffs_equal_their_loop(q, inverted):
    for c in (Rat(3), Rat(-2, 5), Rat(0), LambdaSeries([Rat(2, 3), Rat(-1), Rat(5, 7)])):
        for order in range(6):
            _agree(lambda: phi_coeffs(c, q, order, inverted),
                   lambda: _phi_coeffs_loop(c, q, order, inverted))


@pytest.mark.parametrize("q", ORACLE_QS + [Rat(-3, 2), 2, -1])
def test_qpoch_run_equals_qpoch_per_length(q):
    bases = [Rat(3), Rat(-2, 5), Rat(0), Rat(1), 1, 0, -4, Rat(1) / q,
             LambdaSeries([Rat(2, 3), Rat(-1), 5]), HJet([1, Rat(1, 2)])]
    # qpoch and the run share one loop, so each entry is held to the one-factor product
    for a in bases:
        for n in range(7):
            run = typed(qpoch_run(a, q, n))
            assert run == typed([_qpoch_one_factor_at_a_time(a, q, j) for j in range(n + 1)])
            assert run == typed([qpoch(a, q, j) for j in range(n + 1)])
    for length in (qpoch_run, qpoch):
        with pytest.raises(ValueError):
            length(Rat(2), q, -1)


def _phi_coeffs_per_length(c, q, order, inverted):
    """phi_coeffs with its own (q;q)_j at every j."""
    return [quotient(c ** j if inverted else (-c) ** j * q ** (j * (j - 1) // 2),
                     qpoch(q, q, j), f"(q;q)_{j}") for j in range(order + 1)]


@pytest.mark.parametrize("inverted", [False, True])
@pytest.mark.parametrize("q", ORACLE_QS)
def test_phi_coeffs_equal_their_per_length_form(q, inverted):
    for c in (Rat(3), Rat(-2, 5), Rat(0), 1, 0, LambdaSeries([Rat(2, 3), Rat(-1), Rat(5, 7)])):
        for order in range(6):
            try:
                want = _phi_coeffs_per_length(c, q, order, inverted)
            except DegenerateParameterError as exc:
                with pytest.raises(DegenerateParameterError, match=re.escape(str(exc))):
                    phi_coeffs(c, q, order, inverted)
                continue
            assert typed(phi_coeffs(c, q, order, inverted)) == typed(want)


@pytest.mark.parametrize("q", ORACLE_QS)
def test_hyper_terms_and_very_well_poised_equal_their_loops(q):
    # a = 1 zeroes 1 - a, and a lower parameter 1/q zeroes (1/q; q)_k from k = 2
    params = (Rat(3, 5), Rat(9, 4), Rat(7, 2))
    for z in (Rat(5, 3), 1, LambdaSeries([Rat(1, 2), Rat(3), Rat(-4, 9)])):
        for dens in ((q, Rat(4, 11)), (q, 1 / q)):
            for count in range(5):
                _agree(lambda: hyper_terms(params, dens, q, z, count, "test"),
                       lambda: _hyper_terms_loop(params, dens, q, z, count, "test"))
    for a in (Rat(2, 7), Rat(1), q):
        for nmax in range(4):
            _agree(lambda: very_well_poised(a, params, nmax, q, Rat(5, 3)),
                   lambda: _very_well_poised_loop(a, params, nmax, q, Rat(5, 3)))
