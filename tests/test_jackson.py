import random
from dataclasses import replace
from itertools import product

import pytest

from qkz.errors import DegenerateParameterError
from qkz.jackson import (
    JacksonParams,
    al_jackson_compare,
    base_shift_data,
    cone_points,
    d1_matrix,
    d2_matrix,
    ito_A,
    ito_A_via_R,
    ito_qkz_check,
    ito_R,
    ito_R_alt,
    jackson_vector,
    jackson_vector_raw,
    matsuo_e,
    matsuo_e_brute,
    matsuo_leading_constant,
    matsuo_prefactors,
    weight_ratio,
)
from qkz.linalg import ScalarMatrix
from qkz.qseries import LambdaSeries, qbinom, qfactorial, qpoch
from qkz.scalars import ONE, Rat, quotient, sample_generic_point

from oracles import typed

A2 = Rat(5, 7)


def _params(seed, m, n, a2=A2):
    p = sample_generic_point(seed, guard=8).with_overrides(m, n)
    return p, JacksonParams.from_point(p, a2)


def test_from_point_dictionary():
    p, jp = _params(21, 2, 1)
    q, t = p.q, p.t
    assert p.d1 * q ** (jp.m - 1) * jp.a1 * jp.b1 == 1
    assert p.d4 * q ** (jp.n - 1) * jp.a2 * jp.b2 == 1
    assert p.Q == q ** (jp.m - jp.n) * jp.a1 / (t * jp.a2)
    assert jp.cycle() == [jp.a2, jp.a1, jp.a1 * q]


def _cone_points_brute(n, m, max_degree):
    """Every tuple in [0, max_degree]^(n+m) with weakly increasing blocks and
    sum <= max_degree."""
    def increasing(block):
        return all(x <= y for x, y in zip(block, block[1:]))
    return [nu for nu in product(range(max_degree + 1), repeat=n + m)
            if sum(nu) <= max_degree and increasing(nu[:n]) and increasing(nu[n:])]


def test_cone_points_equal_the_brute_force_enumeration():
    assert sorted(sum(nu) for nu in cone_points(1, 1, 2)) == [0, 1, 1, 2, 2, 2]
    for n in range(5):
        for m in range(5 - n):
            for max_degree in range(5):
                got = list(cone_points(n, m, max_degree))
                assert len(got) == len(set(got)), (n, m, max_degree)
                assert sorted(got) == _cone_points_brute(n, m, max_degree), \
                    (n, m, max_degree)


def test_weight_ratio_base_point_and_additivity():
    p, jp = _params(21, 1, 1)
    assert weight_ratio(jp, (0, 0)) == 1
    # concatenating steps multiplies ratios: compare (0,1) ratio computed
    # directly against the product of the telescoped one-step pieces
    w1 = weight_ratio(jp, (0, 1))
    w2 = weight_ratio(jp, (0, 2))
    # second step ratio = w2/w1 must equal the direct-quotient oracle at the
    # shifted point: recompute with explicit products
    t, q = jp.t, jp.q
    xi = jp.cycle()
    i = 1  # the stepped coordinate
    z_now = xi[i] * t
    direct = Rat(1)
    direct = direct / ((1 - t * z_now / jp.a1) * (1 - t * z_now / jp.a2))
    direct = direct * (1 - jp.b1 * z_now) * (1 - jp.b2 * z_now)
    direct = direct * (q * q / t) ** (0)  # i is the last coordinate: N-1-i = 0
    # cross factors against the unstepped coordinate j = 0 (j < i): the
    # step adds one factor to each (.; t)-product at the old position
    ratio = z_now / xi[0]
    direct = direct * (1 - q * ratio) / (1 - t * ratio / q)
    direct = direct * (xi[0] - t * z_now) / (xi[0] - z_now)
    assert w2 / w1 == direct


def test_one_step_weight_against_infinite_product_quotient():
    # truncate the infinite products at matching depth: the one-step ratio
    # telescopes exactly, so a finite cutoff M reproduces it once tails align
    p, jp = _params(23, 1, 0)
    t, q = jp.t, jp.q
    xi = jp.cycle()
    w = weight_ratio(jp, (1,))
    for M in (3, 11):
        num = Rat(1)
        den = Rat(1)
        z0, z1 = xi[0], xi[0] * t
        for s in range(M):
            num = num * (1 - t ** (s + 1) * z1 / jp.a1) * (1 - t ** (s + 1) * z1 / jp.a2)
            num = num * (1 - jp.b1 * z0 * t ** s) * (1 - jp.b2 * z0 * t ** s)
            den = den * (1 - t ** (s + 1) * z0 / jp.a1) * (1 - t ** (s + 1) * z0 / jp.a2)
            den = den * (1 - jp.b1 * z1 * t ** s) * (1 - jp.b2 * z1 * t ** s)
        # partial products telescope up to explicit boundary factors at depth M
        boundary = (1 - jp.b1 * z0 * t ** M) * (1 - jp.b2 * z0 * t ** M) \
            / ((1 - t ** (M + 1) * z0 / jp.a1) * (1 - t ** (M + 1) * z0 / jp.a2))
        assert w == num / den * boundary


def _e_hat(a, b, z, q):
    """[e_hat_0, ..., e_hat_N]: the subset sums times their prefactors."""
    return [prefactor * s for prefactor, s in
            zip(matsuo_prefactors(len(z), q), matsuo_e(a, b, z, q))]


def test_matsuo_symmetric_under_permutation():
    q = Rat(3, 5)
    z = [Rat(2, 7), Rat(5, 3), Rat(9, 4)]
    rng = random.Random(1)
    for _ in range(4):
        perm = z[:]
        rng.shuffle(perm)
        assert matsuo_e(Rat(7, 3), Rat(2, 9), z, q) == \
            matsuo_e(Rat(7, 3), Rat(2, 9), perm, q)


@pytest.mark.parametrize("N", [0, 1, 2, 3, 4, 5])
def test_matsuo_matches_antisymmetrization(N):
    rng = random.Random(N)
    q, a, b = Rat(3, 5), Rat(7, 3), Rat(2, 9)
    z = []
    while len(z) < N:
        v = Rat(rng.randint(2, 60), rng.randint(2, 60))
        if v not in z:
            z.append(v)
    values = _e_hat(a, b, z, q)
    assert len(values) == N + 1
    for k, value in enumerate(values):
        assert value == matsuo_e_brute(k, a, b, z, q)


def test_matsuo_geometric_specialization():
    # e_k(a, b; (x, xq, ..., x q^(N-1)))
    #   = [N]_{1/q}! prod_{i<k} (1 - q^i x/a) prod_{k<=i<N} (1 - q^i b x)
    q, a, b, x = Rat(3, 5), Rat(7, 3), Rat(2, 9), Rat(4, 7)
    for N in (1, 2, 3, 4):
        z = [x * q ** i for i in range(N)]
        for k in range(N + 1):
            want = qfactorial(N, 1 / q)
            for i in range(k):
                want = want * (1 - q ** i * x / a)
            for i in range(k, N):
                want = want * (1 - q ** i * b * x)
            assert _e_hat(a, b, z, q)[N - k] == want


def test_matsuo_extreme_index_is_pure_product():
    q, a, b = Rat(3, 5), Rat(7, 3), Rat(2, 9)
    z = [Rat(2, 7), Rat(5, 3), Rat(9, 4)]
    full = _e_hat(a, b, z, q)[3]
    want = qfactorial(3, 1 / q)
    for v in z:
        want = want * (1 - b * v)
    assert full == want


def test_matsuo_takes_rational_arguments_only():
    q, a, b = Rat(3, 5), Rat(7, 3), Rat(2, 9)
    z = [Rat(2, 7), LambdaSeries([Rat(5, 3), 1])]
    with pytest.raises(ValueError, match="LambdaSeries"):
        matsuo_e(a, b, z, q)


def test_jackson_vector_pivot_and_leading_constants():
    p, jp = _params(31, 2, 1)
    raw = jackson_vector_raw(jp, 2)
    assert raw[jp.n].coeffs[0] == _pivot_constant(jp)
    for k in range(jp.m + 1):
        assert raw[jp.N - k].coeffs[0] == matsuo_leading_constant(jp, k)
    vec, pivot = jackson_vector(jp, 2)
    assert vec[jp.n].coeffs[0] == 1
    # triangular leading structure: negative x-degrees vanish at Lambda^0
    for J in range(jp.n):
        assert vec[J].coeffs[0] == 0


def test_jackson_vector_depth_stability():
    p, jp = _params(31, 1, 1)
    lo, _ = jackson_vector(jp, 2)
    hi, _ = jackson_vector(jp, 4)
    for J in range(jp.N + 1):
        assert lo[J].coeffs == hi[J].coeffs[:3]


def test_ito_matrix_shapes_and_base_case():
    p, jp = _params(33, 0, 0)
    assert ito_R(jp)[0, 0] == 1
    assert ito_A(jp, Rat(2, 9))[0, 0] is not None
    p, jp = _params(33, 2, 1)
    R = ito_R(jp)
    assert R == ito_R_alt(jp)
    lam = Rat(2, 9)
    assert ito_A(jp, lam) == ito_A_via_R(jp, lam)


def _ito_A_per_entry(jp, lam):
    """ito_A with every q-Pochhammer factor of every entry on its own."""
    a1, a2, b1, b2, q = jp.a1, jp.a2, jp.b1, jp.b2, jp.q
    N = jp.N
    c2 = lambda k: k * (k - 1) // 2  # noqa: E731
    L, U = ScalarMatrix.identity(N + 1), ScalarMatrix.identity(N + 1)
    for i in range(N + 1):
        for j in range(i):
            L[i, j] = quotient(
                (-1) ** (i - j) * q ** (c2(N - i) - c2(N - j)) * qbinom(N - j, N - i, q)
                * qpoch(a2 * b2 * q ** j, q, i - j),
                qpoch(lam * (a2 * b2 * q ** (2 * j)), q, i - j), "L_A denominator")
            U[j, i] = quotient(
                (lam * (-a2 / a1)) ** (i - j) * q ** (c2(i) - c2(j)) * qbinom(i, j, q)
                * qpoch(a1 * b1 * q ** (N - i), q, i - j),
                qpoch(lam * (a2 * b2 * q ** (2 * j)), q, i - j), "U_A denominator")
    D = ScalarMatrix.diagonal(quotient(
        a1 ** (N - j) * a2 ** j * q ** (c2(j) + c2(N - j))
        * qpoch(lam, q, j) * qpoch(lam * (a2 * b2 * q ** (2 * j)), q, N - j),
        qpoch(lam * (a2 * b2 * q ** (j - 1)), q, j)
        * qpoch(lam * (a1 * a2 * b1 * b2 * q ** (N + j - 1)), q, N - j),
        "D_A denominator") for j in range(N + 1))
    return L @ D @ U


@pytest.mark.parametrize("window", [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)])
def test_ito_A_equals_its_per_entry_form(window):
    # the shared prefix runs in value and type, at a rational Lambda and
    # at the Lambda-series of ITO_QKZ
    p, jp = _params(3, *window)
    for lam in (Rat(2, 9), LambdaSeries.variable(3)):
        got, want = ito_A(jp, lam), _ito_A_per_entry(jp, lam)
        assert typed(got.entries) == typed(want.entries)


def test_gauss_factor_triangularity_shapes():
    # both matrices admit exact LDU with unit-diagonal triangular factors
    p, jp = _params(37, 2, 1)
    lam = Rat(3, 8)
    N = jp.N
    for build, name in ((lambda: ito_R(jp), "R"), (lambda: ito_A(jp, lam), "A")):
        # reconstruct the factors through the module internals by re-running
        # the builders with identity scaffolding: shape is asserted on the
        # assembled product against its own LDU re-decomposition
        M = build()
        # LDU via Gaussian elimination (Doolittle): exact, unit diagonals
        L = ScalarMatrix.identity(N + 1)
        U = ScalarMatrix(N + 1, N + 1, [Rat(0)] * (N + 1) ** 2)
        A = M.copy()
        for k in range(N + 1):
            for j in range(k, N + 1):
                U[k, j] = A[k, j]
            assert U[k, k] != 0, name
            for i in range(k + 1, N + 1):
                L[i, k] = A[i, k] / U[k, k]
                for j in range(N + 1):
                    A[i, j] = A[i, j] - L[i, k] * A[k, j]
        D = ScalarMatrix.diagonal([U[k, k] for k in range(N + 1)])
        Un = ScalarMatrix.identity(N + 1)
        for k in range(N + 1):
            for j in range(k + 1, N + 1):
                Un[k, j] = U[k, j] / U[k, k]
        assert L @ D @ Un == M, name


@pytest.mark.parametrize("window", [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)])
def test_commutativity(window):
    m, n = window
    p, jp = _params(35 + m + n, m, n)
    lam = Rat(2, 9)
    R = ito_R(jp)
    A = ito_A(jp, lam)
    D2 = d2_matrix(jp, lam)
    assert R @ D2 @ A == A @ R @ D2
    # consequence: K0 forms agree, R (D2 A D2^-1) = A R
    lhs = R @ D2 @ A @ D2.solve(ScalarMatrix.identity(jp.N + 1))
    assert lhs == A @ R


def test_base_shift_ratio_lambda_powers():
    p, jp = _params(41, 2, 1)
    rho1, p1 = base_shift_data(jp, 1)
    rho2, p2 = base_shift_data(jp, 2)
    assert p1 == jp.m and p2 == jp.n
    assert rho1 != 0 and rho2 != 0


@pytest.mark.parametrize("window", [(1, 0), (1, 1), (2, 1)])
def test_ito_difference_equations(window):
    m, n = window
    p, jp = _params(41, m, n)
    equations = ito_qkz_check(jp, 3)
    assert list(equations) == ["alpha", "T1", "T2", "Lambda^0"]
    for name, (left, right) in equations.items():
        assert left == right, name


def test_d_matrices_display():
    p, jp = _params(41, 1, 1)
    lam = Rat(2, 9)
    N = jp.N
    D1 = d1_matrix(jp, lam)
    D2 = d2_matrix(jp, lam)
    for i in range(N + 1):
        assert D1[i, i] == (lam * jp.q ** (N - 1)) ** (N - i)
        assert D2[i, i] == (lam * jp.q ** (N - 1)) ** i


def _cross_multiplied_agree(laumon, jackson, leading):
    """Each component pair with a leading order agrees cross-multiplied:
    z_J * lead(psi_J) == psi_J * lead(z_J)."""
    return all(z * psi.coeffs[vp] == psi * z.coeffs[vz]
               for z, psi, (vp, vz) in zip(laumon, jackson, leading) if vz is not None)


@pytest.mark.parametrize("window", [(1, 0), (1, 1), (0, 2)])
def test_al_jackson_componentwise(window):
    m, n = window
    p = sample_generic_point(51, guard=8).with_overrides(m, n)
    laumon, jackson, info, (pivot, closed) = al_jackson_compare(p, A2, 3)
    # leading orders: max(0, n - J) on both sides
    for J, (vp, vz) in enumerate(info["leading_orders"]):
        assert vp == vz == max(0, n - J)
    assert _cross_multiplied_agree(laumon, jackson, info["leading_orders"])
    assert laumon[n].coeffs[0] == 1 and pivot == closed


def test_al_jackson_skips_components_zero_on_both_sides():
    # window (0, 2) at lmax 1: the component J = 0 starts at Lambda^2
    p = sample_generic_point(1, guard=8).with_overrides(0, 2)
    laumon, jackson, info, _ = al_jackson_compare(p, A2, 1)
    assert info["leading_orders"] == [(None, None), (1, 1), (0, 0)]
    assert _cross_multiplied_agree(laumon, jackson, info["leading_orders"])
    assert info["component_constants"][0] is None
    assert all(c is not None for c in info["component_constants"][1:])


def test_al_jackson_one_side_zero_is_a_mismatch(monkeypatch):
    import qkz.jackson
    from qkz.suites import _execute

    real = qkz.jackson.z_al_truncated

    def laumon_with_a_zero_component(p, lmax):
        comps = real(p, lmax)
        comps[1] = comps[1] * 0
        return comps

    monkeypatch.setattr(qkz.jackson, "z_al_truncated", laumon_with_a_zero_component)
    record = _execute(("AL_EQ_JACKSON", {"seed": 51, "m": 1, "n": 1, "lmax": 3}))
    assert record["status"] == "fail"
    assert record["mismatch"] == {"component": 0, "reason": "leading order",
                                  "jackson": "0", "laumon": "None"}


def test_al_jackson_fails_when_nothing_is_compared(monkeypatch):
    # no component is compared when both sides vanish, and the check then
    # fails at the empty pair's constant, which the Laumon side lacks
    import qkz.jackson
    from qkz.suites import _execute

    def zeros(p, lmax):
        m, n = p.window
        return [LambdaSeries.constant(0, lmax) for _ in range(m + n + 1)]

    real = qkz.jackson.jackson_vector
    monkeypatch.setattr(qkz.jackson, "z_al_truncated", zeros)
    monkeypatch.setattr(qkz.jackson, "jackson_vector",
                        lambda jp, lmax: ([c * 0 for c in real(jp, lmax)[0]], None))
    p = sample_generic_point(51, guard=8).with_overrides(1, 1)
    assert al_jackson_compare(p, A2, 3)[2]["leading_orders"] == [(None, None)] * 3
    record = _execute(("AL_EQ_JACKSON", {"seed": 51, "m": 1, "n": 1, "lmax": 3}))
    assert record["status"] == "fail" and record["stats"] == {"compared": 1, "nonzero": 1}
    assert record["mismatch"] == {"component": 0, "order": 0, "laumon": "0", "empty_pair": "1"}


@pytest.mark.parametrize("doubled", ["laumon", "pivot"])
def test_al_jackson_constants_can_fail_at_window_0_0(monkeypatch, doubled):
    # at (0, 0) both sides are one constant series, and the cross-multiplied
    # pair holds whatever they are: only the two constants can fail there
    import qkz.jackson
    from qkz.suites import _execute

    task = ("AL_EQ_JACKSON", {"seed": 1, "m": 0, "n": 0, "lmax": 3})
    assert _execute(task)["status"] == "pass"
    if doubled == "laumon":
        real = qkz.jackson.z_al_truncated
        monkeypatch.setattr(qkz.jackson, "z_al_truncated",
                            lambda p, lmax: [c * 2 for c in real(p, lmax)])
        want = {"component": 0, "order": 0, "laumon": "2", "empty_pair": "1"}
    else:
        real = qkz.jackson.jackson_vector_raw
        monkeypatch.setattr(qkz.jackson, "jackson_vector_raw",
                            lambda jp, lmax: [c * 2 for c in real(jp, lmax)])
        want = {"reason": "Jackson pivot", "lattice_sum": "2", "closed_form": "1"}
    record = _execute(task)
    assert record["status"] == "fail"
    assert record["mismatch"] == want


def test_al_jackson_constants_independent_of_a2():
    p = sample_generic_point(51, guard=8).with_overrides(1, 1)
    info1 = al_jackson_compare(p, Rat(5, 7), 3)[2]
    info2 = al_jackson_compare(p, Rat(9, 4), 3)[2]
    assert info1["component_constants"] == info2["component_constants"]


# -- oracles: the separate forms that the shared telescoping rule replaced -----

ORACLE_WINDOWS = [(m, s - m) for s in range(4) for m in range(s + 1)] + [(2, 2)]


def _qpoch_ext(a, q, n):
    """(a; q)_n extended to negative n via (a; q)_{-k} = 1/(a q^-k; q)_k."""
    if n >= 0:
        return qpoch(a, q, n)
    return quotient(ONE, qpoch(a * q ** n, q, -n), "Pochhammer in negative index")


def _weight_ratio_oracle(jp, nu):
    """weight_ratio as its own loop over the cone point's exponents."""
    t, q = jp.t, jp.q
    xi = jp.cycle()
    N = jp.N
    out = ONE
    for i in range(N):
        k = nu[i]
        if k == 0:
            continue
        out = quotient(out, qpoch(t * xi[i] / jp.a1, t, k) * qpoch(t * xi[i] / jp.a2, t, k),
                       "telescoped factor (a side)")
        out = out * qpoch(jp.b1 * xi[i], t, k) * qpoch(jp.b2 * xi[i], t, k)
        out = out * (q * q / t) ** (k * (N - 1 - i))
    for i in range(N):
        for j in range(i + 1, N):
            k = nu[j] - nu[i]
            if k == 0:
                continue
            ratio = xi[j] / xi[i]
            out = quotient(out, _qpoch_ext(t * ratio / q, t, k), "telescoped cross factor")
            out = out * _qpoch_ext(q * ratio, t, k)
    for i in range(N):
        for j in range(i + 1, N):
            out = out * quotient(xi[i] * t ** nu[i] - xi[j] * t ** nu[j], xi[i] - xi[j],
                                 "difference of cycle points")
    return out


def _poch_inf_ratio(c, k, t):
    """(c t^k; t)_inf / (c; t)_inf."""
    if k >= 0:
        return quotient(ONE, qpoch(c, t, k), "denominator of an infinite-product ratio")
    return ONE * qpoch(c * t ** k, t, -k)


def _base_shift_oracle(jp, which):
    """base_shift_data from the new and old cycles, one infinite-product
    ratio per factor."""
    t, q = jp.t, jp.q
    xi_old = jp.cycle()
    xi_new = jp.shifted(which).cycle()
    N = jp.N
    e = [1 if xn == t * xo else 0 for xn, xo in zip(xi_new, xi_old)]
    ka1, ka2 = (-1, 0) if which == 1 else (0, -1)
    rho = ONE
    for i in range(N):
        rho = rho * _poch_inf_ratio(t * xi_old[i] / jp.a1, e[i] + ka1, t)
        rho = rho * _poch_inf_ratio(t * xi_old[i] / jp.a2, e[i] + ka2, t)
        rho = rho / _poch_inf_ratio(jp.b1 * xi_old[i], e[i] + ka1, t)
        rho = rho / _poch_inf_ratio(jp.b2 * xi_old[i], e[i] + ka2, t)
    for i in range(N):
        for j in range(i + 1, N):
            ro = xi_old[j] / xi_old[i]
            rho = rho * _poch_inf_ratio(t * ro / q, e[j] - e[i], t)
            rho = rho / _poch_inf_ratio(q * ro, e[j] - e[i], t)
            if e[i]:
                rho = rho * q * q / t
            rho = rho * (xi_new[i] - xi_new[j]) / (xi_old[i] - xi_old[j])
    return rho, sum(e)


def _pivot_constant(jp):
    """Closed form of the pivot <e_hat_n> at Lambda^0:

        (1/q; 1/q)_n (1/q; 1/q)_m (b1 a2; q)_n (q^-n a1/a2; q)_m / (1 - 1/q)^N.
    """
    q = jp.q
    qi = 1 / q
    return (qpoch(qi, qi, jp.n) * qpoch(qi, qi, jp.m) * qpoch(jp.b1 * jp.a2, q, jp.n)
            * qpoch(q ** (-jp.n) * jp.a1 / jp.a2, q, jp.m) / (1 - qi) ** jp.N)


def _telescope_table_running(c, d, lo, hi, t, what):
    """_telescope_table as running products outwards from k = 0."""
    table = {0: ONE}
    value, step = ONE, ONE
    for k in range(1, hi + 1):
        value = quotient(value * (1 - d * step), 1 - c * step, what)
        table[k] = value
        step = step * t
    value, step = ONE, ONE
    for k in range(-1, lo - 1, -1):
        step = step / t
        value = quotient(value * (1 - c * step), 1 - d * step, what)
        table[k] = value
    return table


def _telescope_table_per_exponent(c, d, lo, hi, t, what):
    """_telescope_table as one ratio of two fresh Pochhammer products per k."""
    return {k: quotient(qpoch(d, t, k), qpoch(c, t, k), what) if k >= 0
            else quotient(qpoch(c * t ** k, t, -k), qpoch(d * t ** k, t, -k), what)
            for k in range(lo, hi + 1)}


@pytest.mark.parametrize("t", [Rat(2, 3), Rat(-7, 5)])
def test_telescope_table_equals_its_running_products(t):
    # c = 1, t^-2 zero 1 - c t^k at k = 0, 2 (upwards); c, d = t, t^3 zero
    # 1 - c t^k, 1 - d t^k at k = -1, -3 (downwards)
    import qkz.jackson as jackson

    values = [Rat(3, 4), Rat(-2, 9), Rat(0), ONE, 1 / t ** 2, t, t ** 3]
    degenerate = 0
    for c, d in product(values, values):
        for lo, hi in product(range(-3, 1), range(4)):
            try:
                want = _telescope_table_running(c, d, lo, hi, t, "factor")
            except DegenerateParameterError:
                degenerate += 1
                for table in (jackson._telescope_table, _telescope_table_per_exponent):
                    with pytest.raises(DegenerateParameterError, match="factor"):
                        table(c, d, lo, hi, t, "factor")
                continue
            got = jackson._telescope_table(c, d, lo, hi, t, "factor")
            for oracle in (want, _telescope_table_per_exponent(c, d, lo, hi, t, "factor")):
                assert sorted(got) == sorted(oracle)
                assert typed([got[k] for k in got]) == typed([oracle[k] for k in got])
    assert 0 < degenerate < len(values) ** 2 * 16


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("m,n", ORACLE_WINDOWS)
def test_telescoping_rule_equals_both_oracles(seed, m, n):
    p, jp = _params(seed, m, n)
    for nu in cone_points(n, m, 3):
        assert weight_ratio(jp, nu) == _weight_ratio_oracle(jp, nu)
    for which in (1, 2):
        assert base_shift_data(jp, which) == _base_shift_oracle(jp, which)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("m,n", ORACLE_WINDOWS)
def test_pivot_closed_form_is_the_k_equals_m_constant(seed, m, n):
    # (q^-n; q)_n = (q^-1; q^-1)_n
    p, jp = _params(seed, m, n)
    assert matsuo_leading_constant(jp, m) == _pivot_constant(jp)


def test_lambda0_residuals_cover_k_up_to_m():
    p, jp = _params(41, 2, 1)
    left, right = ito_qkz_check(jp, 2)["Lambda^0"]
    assert len(left) == len(right) == jp.m + 1
    assert left == right


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2)])
def test_base_shift_at_a_degenerate_point_raises(m, n):
    # d1 = q^(r - n + 1)/(Q t^2) makes b1 a2 q^r = t, which zeroes the
    # denominator (b1 a2 q^r / t; t)_1 of the T_1 ratio
    base = sample_generic_point(1, guard=8)
    for r in range(n):
        p = replace(base, rd1=base.rq ** (r - n + 1) / (base.rQ * base.rt ** 2))
        jp = JacksonParams.from_point(p.with_overrides(m, n), A2)
        assert jp.b1 * jp.a2 * jp.q ** r == jp.t
        with pytest.raises(DegenerateParameterError):
            base_shift_data(jp, 1)


# -- the lattice sum against its per-point form --------------------------------

def _jackson_vector_per_point(jp, lmax):
    """jackson_vector_raw as it was summed before the tables: at every cone
    point the weight from its own telescoped products, and the cocycles
    with their prefactors."""
    t = jp.t
    xi = jp.cycle()
    coeffs = [[0] * (lmax + 1) for _ in range(jp.N + 1)]
    for nu in cone_points(jp.n, jp.m, lmax):
        w = _weight_ratio_oracle(jp, nu)
        z = [x * t ** e for x, e in zip(xi, nu)]
        for k, e_hat in enumerate(_e_hat(jp.a2, jp.b1, z, jp.q)):
            coeffs[k][sum(nu)] = coeffs[k][sum(nu)] + w * e_hat
    return [LambdaSeries(c) for c in coeffs]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("m,n,lmax", [(1, 0, 4), (0, 2, 3), (1, 1, 3), (2, 1, 3), (1, 2, 2),
                                      (2, 2, 2)])
def test_lattice_sum_equals_the_per_point_form(seed, m, n, lmax):
    p, jp = _params(seed, m, n)
    assert jackson_vector_raw(jp, lmax) == _jackson_vector_per_point(jp, lmax)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("m,n", [(1, 0), (1, 1)])
@pytest.mark.parametrize("lmax", [2, 3])
def test_table_and_per_point_forms_degenerate_at_the_same_cone(seed, m, n, lmax):
    # Q = q t^-(lmax+1) makes a1/a2 = q^(n-m+1) t^-lmax.  At (1, 0) the
    # factor (t z/a2; t) of the cycle point a1 then meets 1 - t^(1-lmax+s) = 0
    # at s = lmax - 1, at (1, 1) the cross factor (t z1/(q z0); t) does: in
    # both, only at a cone point of degree lmax
    base = sample_generic_point(seed, guard=8)
    p = replace(base, rQ=base.rq / base.rt ** (lmax + 1)).with_overrides(m, n)
    jp = JacksonParams.from_point(p, A2)
    assert jp.a1 / jp.a2 == jp.q ** (n - m + 1) / jp.t ** lmax
    what = "telescoped factor" if n == 0 else "telescoped cross factor"
    for form in (jackson_vector_raw, _jackson_vector_per_point):
        with pytest.raises(DegenerateParameterError, match=what):
            form(jp, lmax)
    assert jackson_vector_raw(jp, lmax - 1) == _jackson_vector_per_point(jp, lmax - 1)


@pytest.mark.parametrize("m,n,lmax", [(1, 0, 3), (2, 1, 3), (2, 2, 2)])
def test_lattice_sum_takes_one_subset_sum_per_cone_point(monkeypatch, m, n, lmax):
    # one subset sum per cone point, and one cross ratio per (i, j, e_j - e_i)
    # that the cone uses, where the per-point form took N (N - 1) at every point
    import qkz.jackson as jackson

    calls = {"_subset_sums": 0, "_cross_ratio": 0}
    for name in calls:
        real = getattr(jackson, name)
        monkeypatch.setattr(jackson, name, lambda *args, _real=real, _name=name: (
            calls.__setitem__(_name, calls[_name] + 1) or _real(*args)))
    p, jp = _params(1, m, n)
    jackson.jackson_vector(jp, lmax)
    points = list(cone_points(n, m, lmax))
    N = m + n
    gaps = sum(len({nu[j] - nu[i] for nu in points})
               for i in range(N) for j in range(N) if i != j)
    assert calls == {"_subset_sums": len(points), "_cross_ratio": gaps}
    assert N == 1 or 0 < gaps < len(points) * N * (N - 1)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("m,n,lmax", [(1, 0, 4), (0, 2, 3), (1, 1, 3), (2, 1, 3), (2, 2, 2)])
def test_table_subset_sums_equal_matsuo_e_at_every_cone_point(monkeypatch, seed, m, n, lmax):
    import qkz.jackson as jackson

    real = jackson._subset_sums
    sums = []
    monkeypatch.setattr(jackson, "_subset_sums",
                        lambda *args: sums.append(real(*args)) or sums[-1])
    p, jp = _params(seed, m, n)
    jackson.jackson_vector_raw(jp, lmax)
    points = list(cone_points(n, m, lmax))
    assert len(sums) == len(points)
    monkeypatch.setattr(jackson, "_subset_sums", real)
    for nu, got in zip(points, sums):
        z = [x * jp.t ** e for x, e in zip(jp.cycle(), nu)]
        assert typed(got) == typed(matsuo_e(jp.a2, jp.b1, z, jp.q)), nu


@pytest.mark.parametrize("m,n,lmax", [(1, 0, 3), (2, 1, 3), (2, 2, 2)])
def test_lattice_sum_builds_each_weight_table_once(monkeypatch, m, n, lmax):
    # two per cycle point (one per parameter pair) and one per cross pair,
    # for the whole cone, where the per-point form built them at every point
    import qkz.jackson as jackson

    real = jackson._telescope_table
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(jackson, "_telescope_table", counted)
    p, jp = _params(1, m, n)
    jackson_vector_raw(jp, lmax)
    N = m + n
    assert len(calls) == 2 * N + N * (N - 1) // 2
