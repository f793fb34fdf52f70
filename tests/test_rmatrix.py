import pytest

from qkz.errors import DegenerateParameterError, QkzError
from qkz.laumon import z_al_truncated
from qkz.linalg import ScalarMatrix
from qkz.qseries import LambdaSeries, qpoch
from qkz.rmatrix import (
    dual_qkz_residuals,
    dual_v_prefactor,
    expansion_matrices,
    fundamental_matrix,
    h4d_matrix,
    heine_dual_residuals,
    heine_solution_pair,
    kz_form_matrix,
    qkz_residual,
    r1_fourd,
    r_closed_form,
    r_hg_matrix,
    r_via_linear_system,
    ruw_entry,
    rwv_entry,
    transition_runs,
)
from qkz.scalars import HJet, Rat, exp_jet, product, quotient, sample_generic_point

from oracles import typed

P = sample_generic_point(5, guard=8)
Q, D1, D4 = P.q, P.d1, P.d4
LAM = Rat(3, 11)


def test_two_by_two_display():
    r = r_via_linear_system(*expansion_matrices(1, 0, D1, D4, LAM, Q))
    den = 1 - LAM / Q
    assert r[0, 0] == (1 - D1 * LAM / Q) / den
    assert r[0, 1] == -(1 - D1) / den
    assert r[1, 0] == -LAM * Q * (1 - D4 / Q) / den
    assert r[1, 1] == Q ** 2 * (1 - D4 * LAM / Q ** 2) / den


def test_three_by_three_display():
    r = r_via_linear_system(*expansion_matrices(2, 0, D1, D4, LAM, Q))
    D = (1 - LAM / Q ** 2) * (1 - LAM / Q)
    assert r[0, 0] == (1 - D1 * LAM / Q ** 2) * (1 - D1 * LAM / Q) / D
    assert r[0, 1] == -(1 + Q) * (1 - D1) * (1 - D1 * LAM / Q) / (Q * D)
    assert r[0, 2] == (1 - D1) * (1 - D1 * Q) / (Q * D)
    assert r[1, 1] == (Q ** 2 * (1 - D1 * LAM / Q) * (1 - D4 * LAM / Q ** 2)
                       + LAM * Q * (1 - D1 * Q) * (1 - D4 / Q ** 2)) / D
    assert r[2, 0] == LAM ** 2 * Q ** 3 * (1 - D4 / Q ** 2) * (1 - D4 / Q) / D
    assert r[2, 2] == Q ** 6 * (1 - D4 * LAM / Q ** 4) * (1 - D4 * LAM / Q ** 3) / D


@pytest.mark.parametrize("window", [(1, 0), (0, 1), (2, 0), (1, 1), (2, 1)])
def test_three_realizations_agree(window):
    m, n = window
    S, T = expansion_matrices(m, n, D1, D4, LAM, Q)
    a = r_via_linear_system(S, T)
    assert a == r_closed_form(m, n, D1, D4, LAM, Q)
    assert a == r_hg_matrix(m, n, D1, D4, LAM, Q)
    assert S == a @ T
    # a matrix off in one entry breaks S = r T in that entry's row, and only it
    off = a.copy()
    off[m + n, 0] = off[m + n, 0] + 1
    rT = off @ T
    assert [any(S[I, P] != rT[I, P] for P in range(m + n + 1))
            for I in range(m + n + 1)] == [False] * (m + n) + [True]


def _r_hg_entry(i, j, N, z, alpha, beta, q):
    """Oracle: one entry of the hypergeometric R-matrix, its prefactor and
    its terminating sum evaluated on their own (finite 4phi3-type sum).

    R_{i,j} = beta^-j (q)_N (alpha/z)_{N-i} (1/beta)_{N-j} (beta/z)_j
              / [(q)_j (q)_{N-j} (1/z)_N (1/beta)_{N-i}]
              * sum_{k<=j} (q^-j)_k (q^{i-N})_k (q^{1-N} z)_k (z/(alpha beta))_k
                           / [(q)_k (q^-N)_k (q^{1+i-N} z/alpha)_k (q^{1-j} z/beta)_k] q^k.
    """
    pref = quotient(
        beta ** (-j) * qpoch(q, q, N) * qpoch(alpha / z, q, N - i)
        * qpoch(1 / beta, q, N - j) * qpoch(beta / z, q, j),
        qpoch(q, q, j) * qpoch(q, q, N - j) * qpoch(1 / z, q, N) * qpoch(1 / beta, q, N - i),
        "R entry prefactor denominator")
    num_bases = (q ** (-j), q ** (i - N), q ** (1 - N) * z, z / (alpha * beta))
    den_bases = (q, q ** (-N), q ** (1 + i - N) * z / alpha, q ** (1 - j) * z / beta)
    total = 0
    term = 1
    for k in range(j + 1):
        if k > 0:
            num = den = 1
            for nb, db in zip(num_bases, den_bases):
                num = num * (1 - nb * q ** (k - 1))
                den = den * (1 - db * q ** (k - 1))
            term = term * quotient(num, den, f"R sum denominator at k={k}") * q
        total = total + term
    return pref * total


def _r_hg_entrywise(m, n, d1, d4, lam, q):
    N = m + n
    z, alpha, beta = lam / q, q ** n / d1, q ** m / d4
    return [[d1 ** (m - I + n) * q ** ((m + 1) * (I - n))
             * _r_hg_entry(I, J, N, z, alpha, beta, q) for J in range(N + 1)]
            for I in range(N + 1)]


def test_r_hg_entry_base_case():
    # N = 0 reduces to the empty-product prefactor
    val = _r_hg_entry(0, 0, 0, Rat(3, 7), Rat(2, 5), Rat(9, 4), Rat(1, 2))
    assert val == 1


@pytest.mark.parametrize("window", [(1, 0), (0, 1), (2, 0), (1, 1), (2, 1), (2, 2),
                                    (3, 1), (1, 3), (3, 3)])
def test_hg_matrix_equals_its_entrywise_sum(window):
    m, n = window
    for lam in (LAM, Rat(7, 2), Rat(-5, 13)):
        r = r_hg_matrix(m, n, D1, D4, lam, Q)
        want = _r_hg_entrywise(m, n, D1, D4, lam, Q)
        assert [[typed(r[I, J]) for J in range(m + n + 1)] for I in range(m + n + 1)] == \
            [[typed(x) for x in row] for row in want]


def _raises_degenerate(fn):
    try:
        fn()
    except DegenerateParameterError:
        return True
    return False


@pytest.mark.parametrize("window", [(2, 1), (1, 2)])
def test_hg_matrix_is_degenerate_where_its_entrywise_sum_is(window):
    # Lambda placed on a zero of each kind of denominator: (1/z)_N, the
    # (I, k) factor (q^(1+I-N) z/alpha)_k and the (J, k) factor (q^(1-J) z/beta)_k
    m, n = window
    N = m + n
    alpha, beta = Q ** n / D1, Q ** m / D4
    zs = [Q ** s for s in range(N)]
    zs += [alpha * Q ** (N - I - s) for I in range(N + 1) for s in range(1, N + 1)]
    # s > J probes the padding of B, where no denominator is evaluated
    zs += [beta * Q ** (J - s) for J in range(N + 1) for s in range(1, N + 1)]
    seen = set()
    for z in zs:
        lam = z * Q
        oracle = _raises_degenerate(lambda: _r_hg_entrywise(m, n, D1, D4, lam, Q))
        whole = _raises_degenerate(lambda: r_hg_matrix(m, n, D1, D4, lam, Q))
        assert oracle == whole, z
        seen.add(oracle)
    assert seen == {True, False}


def test_closed_form_evaluates_each_transition_entry_once(monkeypatch):
    import qkz.rmatrix as rm

    calls = {"ruw": 0, "rwv": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(rm, "ruw_entry", counted("ruw", ruw_entry))
    monkeypatch.setattr(rm, "rwv_entry", counted("rwv", rwv_entry))
    assert rm.r_closed_form(2, 2, D1, D4, LAM, Q) == r_via_linear_system(
        *expansion_matrices(2, 2, D1, D4, LAM, Q))
    assert calls == {"ruw": 25, "rwv": 25}


def test_transition_matrix_shapes():
    m, n = 2, 1
    runs = transition_runs(m, n, D1, D4, LAM, Q)
    for i in range(-n, m + 1):
        for k in range(-n, m + 1):
            if k < i:
                assert ruw_entry(i, k, m, D4, Q, runs) == 0
    for k in range(-n, m + 1):
        for j in range(-n, m + 1):
            if k + j < m - n:
                assert rwv_entry(k, j, m, n, Q, runs) == 0


def _ruw_per_entry(i, k, m, n, d1, d4, lam, q):
    """r^UW with every q-Pochhammer factor evaluated on its own."""
    if k < i:
        return Rat(0)
    num = (q ** (((i - k) * (2 * m + 1 + i - k)) // 2) * (-d4) ** (k - i) * qpoch(q, q, m - i)
           * qpoch(d1 * lam * q ** (i - k - n), q, k - i)
           * qpoch(d1 * d4 * lam * q ** (-m - n - 1), q, m - k))
    den = qpoch(q, q, k - i) * qpoch(q, q, m - k) * qpoch(d4 * q ** (-m), q, m - i)
    return quotient(num, den, "denominator of r^UW")


def _rwv_per_entry(k, j, m, n, d4, lam, q):
    """r^WV with every q-Pochhammer factor and the polynomial on its own."""
    M = k + j - m + n
    if M < 0:
        return Rat(0)
    num = (q ** (((j - k - m - n - 1) * (j + k - m + n)) // 2) * qpoch(q, q, k + n)
           * product(q ** (m + 1 + s) / d4 - lam for s in range(M))
           * qpoch(q ** (j + 1) / d4, q, m - j))
    den = qpoch(q, q, M) * qpoch(q, q, m - j) * qpoch(lam * q ** (-k - n), q, k + n)
    return quotient(num, den, "denominator of r^WV")


@pytest.mark.parametrize("window", [(1, 0), (0, 1), (2, 1), (1, 2), (3, 3)])
def test_transition_entries_equal_their_per_entry_form(window):
    # the prefix runs in value and type, at rational Lambda and at a
    # Lambda-series with an invertible constant term
    m, n = window
    N = m + n
    for lam in (LAM, Rat(-7, 2), LambdaSeries([LAM, 1, Rat(2, 9)])):
        runs = transition_runs(m, n, D1, D4, lam, Q)
        per_length = {
            "qq": lambda j: qpoch(Q, Q, j),
            "uw_gap": lambda j: qpoch(D1 * lam * Q ** (-n - j), Q, j),
            "uw_col": lambda j: qpoch(D1 * D4 * lam * Q ** (-m - n - 1), Q, j),
            "uw_row": lambda j: qpoch(D4 * Q ** (-m), Q, j),
            "wv_gap": lambda j: product(Q ** (m + 1 + s) / D4 - lam for s in range(j)),
            "wv_col": lambda j: qpoch(Q ** (m + 1 - j) / D4, Q, j),
            "wv_row": lambda j: qpoch(lam * Q ** -j, Q, j)}
        assert list(per_length) == list(runs._fields)
        for name, form in per_length.items():
            assert [typed(x) for x in getattr(runs, name)] == \
                [typed(form(j)) for j in range(N + 1)], name
        for i in range(-n, m + 1):
            for k in range(-n, m + 1):
                assert typed(ruw_entry(i, k, m, D4, Q, runs)) == \
                    typed(_ruw_per_entry(i, k, m, n, D1, D4, lam, Q))
                assert typed(rwv_entry(i, k, m, n, Q, runs)) == \
                    typed(_rwv_per_entry(i, k, m, n, D4, lam, Q))


def test_lambda_zero_triangularity():
    r0 = r_via_linear_system(*expansion_matrices(2, 1, D1, D4, Rat(0), Q))
    for I in range(4):
        for J in range(4):
            i, j = I - 1, J - 1
            if j < i:
                assert r0[I, J] == 0
        assert r0[I, I] == Q ** ((I - 1) * I)  # q^(i(i+1)) at i = I-1
    # the closed form's Lambda-monomial prefactors need Lambda invertible
    with pytest.raises(DegenerateParameterError, match="invertible Lambda"):
        r_closed_form(2, 1, D1, D4, Rat(0), Q)


def _poly_mul(a, b):
    """Product of two Laurent polynomials given as {degree: coeff}."""
    out = {}
    for p, v in a.items():
        for s, w in b.items():
            out[p + s] = out.get(p + s, 0) + v * w
    return out


def _neg_qpoch_poly(base, q, count, deg):
    """(-base x^deg; q)_count as {degree: coeff}, one factor at a time."""
    poly = {0: 1}
    for s in range(count):
        poly = _poly_mul(poly, {0: 1, deg: base * q ** s})
    return poly


def _basis_poly(i, m, n, c1, c4, lam, q, power):
    """q^power x^i (-c1 x; q)_(m-i) (-c4 L/x; q)_(i+n) as {degree: coeff}."""
    poly = _poly_mul(_neg_qpoch_poly(c1, q, m - i, 1),
                     _neg_qpoch_poly(c4 * lam, q, i + n, -1))
    return {p + i: v * q ** power for p, v in poly.items()}


@pytest.mark.parametrize("window", [(1, 0), (0, 1), (2, 1), (2, 2), (3, 0)])
@pytest.mark.parametrize("ring", ["rational", "series"])
def test_expansion_matrices_hold_the_basis_polynomials(window, ring):
    # oracle: each source and target polynomial multiplied out factor by
    # factor; its degrees lie in the window and its coefficients are row
    # i + n of S (T)
    m, n = window
    if ring == "rational":
        d1, d4, lam, q = D1, D4, LAM, Q
    else:
        d1, d4, q = (LambdaSeries.constant(v, 3) for v in (D1, D4, Q))
        lam = LambdaSeries.variable(3)
    S, T = expansion_matrices(m, n, d1, d4, lam, q)
    window_degrees = range(-n, m + 1)
    for i in window_degrees:
        source = _basis_poly(i, m, n, d1 * q ** (i - m), d4 * q ** (-i - n), lam, q,
                             i * (i + 1) // 2)
        target = _basis_poly(i, m, n, q ** (-m), q ** (-n), lam, q, -(i * (i + 1)) // 2)
        for poly, matrix in ((source, S), (target, T)):
            assert set(poly) <= set(window_degrees)
            assert [poly.get(p, 0) for p in window_degrees] == \
                [matrix[i + n, p + n] for p in window_degrees]


@pytest.mark.parametrize("window", [(1, 0), (2, 1)])
def test_qkz_residual(window):
    m, n = window
    p = sample_generic_point(11, guard=8).with_overrides(m, n)
    left, right = qkz_residual(p, 4)
    assert len(left) == len(right) == m + n + 1
    for a, b in zip(left, right):
        assert a.coeffs[:4] == b.coeffs[:4]


def test_qkz_order_zero_triangular_consistency():
    # the Lambda^0 layer: psi_j(0) = sum_i psi_i(0) r_{i,j}(0) (qtQ)^-i with
    # the triangular leading matrix
    m, n = 1, 0
    p = sample_generic_point(11, guard=8).with_overrides(m, n)
    comps = z_al_truncated(p, 2)
    r0 = r_via_linear_system(*expansion_matrices(m, n, p.d1, p.d4, Rat(0), p.q))
    qtQ = p.q * p.t * p.Q
    for j in range(m + n + 1):
        total = Rat(0)
        for i in range(m + n + 1):
            total = total + comps[i].coeffs[0] * r0[i, j] * qtQ ** (-(i - n))
        assert total == comps[j].coeffs[0]


def test_fundamental_matrix_structure():
    m, n = 1, 1
    p = sample_generic_point(13, guard=8).with_overrides(m, n)
    rows = fundamental_matrix(p, 2)
    N = m + n
    for ii in range(N + 1):
        assert rows[ii][ii].coeffs[0] == 1          # unit pivot
        for jj in range(ii):
            assert rows[ii][jj].coeffs[0] == 0      # triangular at Lambda^0


@pytest.mark.parametrize("window", [(1, 0), (1, 1)])
def test_dual_qkz_residuals(window):
    m, n = window
    p = sample_generic_point(11, guard=8).with_overrides(m, n)
    left, right = dual_qkz_residuals(p, 3)
    assert len(left) == len(right) == (m + n + 1) ** 2
    assert left == right


def test_dual_v_prefactor_base_case():
    from qkz.qseries import qpoch
    m, n = 2, 1
    p = sample_generic_point(11, guard=8).with_overrides(m, n)
    q = p.q
    qv = 1 / (q * p.t * p.Q)
    want = qpoch(qv * q ** 2, q, m) * qpoch(p.d4 * qv * q ** (1 - n), q, n) \
        / (qpoch(qv * q ** 2 / p.d1, q, m) * qpoch(qv * q ** (1 - n), q, n))
    assert dual_v_prefactor(0, p) == want


def test_heine_pair_matches_truncated_components():
    p = sample_generic_point(11, guard=8).with_overrides(1, 0)
    comps = z_al_truncated(p, 4)
    y0, y1, (a, b, z2, c1) = heine_solution_pair(p, 4)
    y0L = y0.shift_variable(c1)
    y1L = y1.shift_variable(c1)
    sh0 = comps[0].shift_variable(1 / p.t)
    sh1 = comps[1].shift_variable(1 / p.t)
    assert y0L * sh1 == y1L * sh0          # cross-multiplied equality
    assert y0L == sh0 and y1L == sh1       # and in fact componentwise


def test_heine_dual_equations():
    p = sample_generic_point(11, guard=8).with_overrides(1, 0)
    for left, right in heine_dual_residuals(p, heine_solution_pair(p, 4)):
        assert len(left) == len(right) == 2
        assert left == right


def test_r1_fourd_against_jets():
    m, n = 2, 1
    m1, m4 = Rat(5, 3), Rat(7, 4)
    K = 2
    qj = exp_jet(Rat(1), K)
    rj = r_via_linear_system(*expansion_matrices(m, n, exp_jet(m1, K), exp_jet(m4, K),
                                                 HJet.constant(LAM, K), qj))
    r1 = r1_fourd((m1, -m, -n, m4), m, n, LAM)
    for i in range(4):
        for j in range(4):
            assert rj[i, j].coeffs[0] == (1 if i == j else 0)
            assert rj[i, j].coeffs[1] == r1[i, j]


def test_r1_fourd_tabulated_window():
    # window [-1, 2] with masses (-2, m2, -1, m4); jet-verified signs
    m2, m4 = Rat(4, 9), Rat(8, 5)
    lam = Rat(5, 13)
    den = lam - 1
    r1 = r1_fourd((-2, m2, -1, m4), 2, 1, lam)
    assert r1[0, 0] == 3 * (lam * m2 - lam) / den
    assert r1[0, 1] == -3 * (m2 - 1) / den
    assert r1[1, 0] == -lam * m4 / den
    assert r1[1, 1] == (2 * lam * m2 + lam * m4) / den
    assert r1[1, 2] == -2 * m2 / den
    assert r1[2, 1] == -2 * lam * (m4 - 1) / den
    assert r1[2, 2] == (lam + lam * m2 + 2 * lam * m4 - 2) / den
    assert r1[2, 3] == (-m2 - 1) / den
    assert r1[3, 2] == -3 * (lam * m4 - 2 * lam) / den
    assert r1[3, 3] == 3 * (lam * m4 - 2) / den
    assert r1[0, 2] == 0 and r1[0, 3] == 0 and r1[3, 0] == 0


def test_r1_row_sum_is_affine_in_lambda():
    # sum_j r1_{i,j} (L - 1) is a polynomial of degree <= 1 in Lambda:
    # evaluate at three points and check the second difference vanishes
    m, n = 2, 1
    m1, m4 = Rat(5, 3), Rat(7, 4)
    lams = [Rat(2, 5), Rat(3, 5), Rat(4, 5)]
    for i in range(4):
        vals = []
        for lam in lams:
            r1 = r1_fourd((m1, -m, -n, m4), m, n, lam)
            vals.append(sum(r1[i, j] for j in range(4)) * (lam - 1))
        assert vals[2] - 2 * vals[1] + vals[0] == 0


def test_h4d_split_and_theta_column():
    m, n = 2, 1
    m1, m4 = Rat(5, 3), Rat(7, 4)
    kap, ac = Rat(2, 7), Rat(5, 9)
    H, A0, A1 = h4d_matrix((m1, -m, -n, m4), (kap, ac), m, n, LAM)
    theta = ScalarMatrix.diagonal(range(-n, m + 1))
    assert H - theta.scale(kap + 1 + ac) == A0 + A1.scale(LAM / (LAM - 1))
    # pure theta part has zero eigenvalue on x^0
    assert A0[1, 1] == 0  # i = 0 row: theta(theta - kap - a) = 0
    r1 = r1_fourd((m1, -m, -n, m4), m, n, LAM)
    assert H == r1
    for lam in (Rat(1), Rat(0)):
        with pytest.raises(DegenerateParameterError):
            h4d_matrix((m1, -m, -n, m4), (kap, ac), m, n, lam)


def test_kz_spin_dictionary_identity():
    m, n = 2, 1
    m1, m4 = Rat(5, 3), Rat(7, 4)
    kap, ac = Rat(2, 7), Rat(5, 9)
    _, A0, A1 = h4d_matrix((m1, -m, -n, m4), (kap, ac), m, n, LAM)
    kz = kz_form_matrix((m1, -m, -n, m4), (kap, ac), m, n, LAM)
    assert kz == A0 + A1.scale(LAM / (LAM - 1))


def test_fourd_matrices_need_masses_that_truncate_the_window():
    # r1 needs m1 or m2 = -m and m3 or m4 = -n
    with pytest.raises(QkzError, match="window"):
        r1_fourd((Rat(1, 3), Rat(2, 5), -1, Rat(3, 7)), 2, 1, LAM)
    # the KZ operator on window (1, 1) reaches x^2 unless (1 + m1)(1 + m2) = 0,
    # and x^-2 unless (1 + m3)(1 + m4) = 0
    kappa_a = (Rat(2, 7), Rat(5, 9))
    for mvec, where in (((Rat(1, 3), Rat(2, 5), -1, Rat(3, 7)), "above"),
                        ((-1, Rat(2, 5), Rat(1, 3), Rat(3, 7)), "below")):
        with pytest.raises(QkzError, match=f"leaks {where} the window"):
            kz_form_matrix(mvec, kappa_a, 1, 1, LAM)


def test_qkz_residual_series_scalars_match_rational_evaluation():
    # the series-valued matrix agrees with pointwise evaluation order by order
    m, n = 1, 1
    lam_series = LambdaSeries.variable(3)
    q_c = LambdaSeries.constant(Q, 3)
    r_series = r_via_linear_system(*expansion_matrices(
        m, n, LambdaSeries.constant(D1, 3), LambdaSeries.constant(D4, 3), lam_series, q_c))
    r_zero = r_via_linear_system(*expansion_matrices(m, n, D1, D4, Rat(0), Q))
    for i in range(3):
        for j in range(3):
            assert r_series[i, j].coeffs[0] == r_zero[i, j]
