"""Truncated R-matrix in three independent realizations, the q-KZ matrix
equation satisfied by the mass-truncated partition-sum components, the dual
(base-fiber) equation, and the four-dimensional limit.

Matrices over the window [-n, m] are stored 0-based: storage index
I = i + n.  All reports print paper-convention indices.
"""

from __future__ import annotations

from .errors import DegenerateParameterError, QkzError
from .laumon import z_al_truncated
from .linalg import ScalarMatrix
from .qseries import LambdaSeries, heine_2phi1, hyper_terms, qpoch
from .scalars import ONE, ParamPoint, invertible, product, quotient


def _neg_qpoch_coeffs(base, q, count: int) -> list:
    """Coefficients of (-base y; q)_count = prod_{s<count} (1 + base q^s y),
    lowest degree first; the constant term stays the literal 1."""
    coeffs = [1]
    c = base
    for _ in range(count):
        coeffs = [1] + [a + c * b for a, b in zip(coeffs[1:], coeffs)] + [c * coeffs[-1]]
        c = c * q
    return coeffs


def _window_row(i: int, m: int, n: int, x_base, inv_base, q, scale) -> list:
    """Coefficients of x^-n..x^m of

        scale x^i (-x_base x; q)_(m-i) (-inv_base/x; q)_(i+n).

    The x factor has degrees 0..m-i and the 1/x factor degrees 0..-(i+n),
    so the product fills exactly the window.  Both constant terms are 1:
    the x factor is laid at i + n.. as it is, and the 1/x factor's term t
    opens column i + n - t."""
    xs = _neg_qpoch_coeffs(x_base, q, m - i)
    inv = _neg_qpoch_coeffs(inv_base, q, i + n)
    row = [0] * (i + n) + xs
    for t in range(1, i + n + 1):
        b = inv[t]
        row[i + n - t] = b
        for s in range(1, m - i + 1):
            row[i + n - t + s] += xs[s] * b
    return [v * scale for v in row]


def expansion_matrices(m: int, n: int, d1, d4, lam, q):
    """(S, T): row i + n holds the coefficients of x^-n..x^m of

        S_i = q^(i(i+1)/2) x^i (-d1 q^(i-m) x; q)_(m-i) (-d4 q^(-i-n) L/x; q)_(i+n),
        T_j = q^(-j(j+1)/2) x^j (-q^-m x; q)_(m-j) (-q^-n L/x; q)_(j+n),

    so that the R-matrix is defined by S = r T."""
    window = range(-n, m + 1)
    S = ScalarMatrix.from_rows(
        _window_row(i, m, n, d1 * q ** (i - m), d4 * q ** (-i - n) * lam, q,
                    q ** (i * (i + 1) // 2)) for i in window)
    T = ScalarMatrix.from_rows(
        _window_row(j, m, n, q ** (-m), q ** (-n) * lam, q,
                    ONE * q ** (-(j * (j + 1)) // 2)) for j in window)
    return S, T


def r_via_linear_system(S: ScalarMatrix, T: ScalarMatrix) -> ScalarMatrix:
    """[r_{i,j}] from the defining basis expansion S = r T, one linear solve,
    for (S, T) = expansion_matrices(m, n, d1, d4, lam, q).

    Works over any scalar ring with invertible-pivot search, so the entries
    may be rationals, Lambda-series or h-jets.
    """
    return T.transpose().solve(S.transpose()).transpose()


# -- closed form via the two triangular transition matrices -------------------

def ruw_entry(i: int, k: int, m: int, n: int, d1, d4, lam, q, qq):
    """Upper-triangular transition coefficient (zero for k < i); qq[j] is
    (q; q)_j for 0 <= j <= m + n."""
    if k < i:
        return ONE * 0
    num = (
        q ** (((i - k) * (2 * m + 1 + i - k)) // 2)
        * (-d4) ** (k - i)
        * qq[m - i]
        * qpoch(d1 * lam * q ** (i - k - n), q, k - i)
        * qpoch(d1 * d4 * lam * q ** (-m - n - 1), q, m - k)
    )
    den = qq[k - i] * qq[m - k] * qpoch(d4 * q ** (-m), q, m - i)
    return quotient(num, den, "denominator of r^UW")


def rwv_entry(k: int, j: int, m: int, n: int, d4, lam, q, qq):
    """Anti-diagonal lower-triangular coefficient (zero for k + j < m - n);
    qq[j] is (q; q)_j for 0 <= j <= m + n."""
    M = k + j - m + n
    if M < 0:
        return ONE * 0
    # (-L)^M (q^(m+1)/(d4 L); q)_M recombined into the polynomial
    # prod_s (q^(m+1+s)/d4 - L), safe at L -> 0.
    num = (
        q ** (((j - k - m - n - 1) * (j + k - m + n)) // 2)
        * qq[k + n]
        * product(q ** (m + 1 + s) / d4 - lam for s in range(M))
        * qpoch(q ** (j + 1) / d4, q, m - j)
    )
    den = qq[M] * qq[m - j] * qpoch(lam * q ** (-k - n), q, k + n)
    return quotient(num, den, "denominator of r^WV")


def r_closed_form(m: int, n: int, d1, d4, lam, q) -> ScalarMatrix:
    """r = diag(q^(-i n) d4^(i+n) L^i) r^UW r^WV diag(q^j L^(-j)), all
    indices on the window [-n, m]; the zero patterns of r^UW (k < i) and
    r^WV (k + j < m - n) bound the inner sum.

    Needs lam invertible (the Lambda-monomial prefactors carry negative
    powers that only cancel in the product); use the linear-system form
    for series or Lambda = 0 evaluations.
    """
    if not invertible(lam):
        raise DegenerateParameterError("closed form needs invertible Lambda")
    window = range(-n, m + 1)
    qq = [qpoch(q, q, j) for j in range(m + n + 1)]
    uw = ScalarMatrix.from_rows(
        [[ruw_entry(i, k, m, n, d1, d4, lam, q, qq) for k in window] for i in window])
    wv = ScalarMatrix.from_rows(
        [[rwv_entry(k, j, m, n, d4, lam, q, qq) for j in window] for k in window])
    left = ScalarMatrix.diagonal([q ** (-i * n) * d4 ** (i + n) * lam ** i for i in window])
    right = ScalarMatrix.diagonal([q ** j * lam ** (-j) for j in window])
    return left @ uw @ wv @ right


def r_hg_matrix(m: int, n: int, d1, d4, lam, q) -> ScalarMatrix:
    """r_{i,j} = d1^(m-i) q^((m+1)i) R^HG_{i+n, j+n} at N = m+n, z = Lambda/q,
    alpha = q^n/d1, beta = q^m/d4, with the terminating 4phi3-type sum

        R^HG_{I,J} = beta^-J (q)_N (alpha/z)_{N-I} (1/beta)_{N-J} (beta/z)_J
                     / [(q)_J (q)_{N-J} (1/z)_N (1/beta)_{N-I}]
          * sum_{k<=J} (q^-J)_k (q^{I-N})_k (q^{1-N} z)_k (z/(alpha beta))_k q^k
                       / [(q)_k (q^-N)_k (q^{1+I-N} z/alpha)_k (q^{1-J} z/beta)_k].

    Every factor depends on (I, k), (J, k) or k alone, so the sum is
    A diag(c) B^T with A[I, k], B[J, k] (zero for k > J) and c_k each one
    run of the term rule, and the prefactor is a row and a column diagonal.
    """
    N = m + n
    z = lam / q
    alpha = q ** n / d1
    beta = q ** m / d4
    window = range(N + 1)
    a_rows = ScalarMatrix.from_rows(
        hyper_terms((q ** (I - N),), (q ** (1 + I - N) * z / alpha,), q, 1, N,
                    "R sum denominator") for I in window)
    b_rows = ScalarMatrix.from_rows(
        hyper_terms((q ** (-J),), (q ** (1 - J) * z / beta,), q, 1, J,
                    "R sum denominator") + [0] * (N - J) for J in window)
    c = hyper_terms((q ** (1 - N) * z, z / (alpha * beta)), (q, q ** (-N)), q, q, N,
                    "R sum denominator")
    const = quotient(qpoch(q, q, N), qpoch(1 / z, q, N), "R entry prefactor denominator")
    left = ScalarMatrix.diagonal(
        quotient(const * d1 ** (N - I) * q ** ((m + 1) * (I - n))
                 * qpoch(alpha / z, q, N - I),
                 qpoch(1 / beta, q, N - I), "R entry prefactor denominator")
        for I in window)
    right = ScalarMatrix.diagonal(
        quotient(beta ** (-J) * qpoch(1 / beta, q, N - J) * qpoch(beta / z, q, J),
                 qpoch(q, q, J) * qpoch(q, q, N - J), "R entry prefactor denominator")
        for J in window)
    return left @ a_rows @ ScalarMatrix.diagonal(c) @ b_rows.transpose() @ right


# -- q-KZ residual on the partition-sum components ----------------------------

def qkz_residual(m: int, n: int, p: ParamPoint, lmax: int):
    """The two sides of psi_j(L) = sum_i psi_i(L/t) r_{i,j}(L) (qtQ)^(-i).

    The components come from the mass-truncated partition sum; the matrix is
    evaluated with Lambda as a truncated series scalar, and the right side is
    one row-times-matrix product.  Returns (left, right), two lists of
    LambdaSeries indexed by j + n, expected equal through order lmax - 1.
    """
    comps = z_al_truncated(m, n, p, lmax)
    lam_var = LambdaSeries.variable(lmax)
    r = r_via_linear_system(*expansion_matrices(m, n, p.d1, p.d4, lam_var, p.q))
    qtQ = p.q * p.t * p.Q
    shifted = ScalarMatrix.from_rows(
        [[c.shift_variable(1 / p.t) * qtQ ** (n - ii) for ii, c in enumerate(comps)]])
    return comps, (shifted @ r).entries


# -- dual q-KZ equation in the renormalized Coulomb parameter ----------------

def coulomb_shifted_point(p: ParamPoint, i: int) -> ParamPoint:
    """Point for the i-th fundamental solution: the equivalent system at
    (m - i, n + i) with d1 -> d1 q^i, d4 -> d4 q^-i, Q -> Q q^(-2i)."""
    return p.replace_roots(
        rd1=p.rd1 * p.rq ** i,
        rd4=p.rd4 * p.rq ** (-i),
        rQ=p.rQ * p.rq ** (-2 * i),
    )


def fundamental_matrix(m: int, n: int, p: ParamPoint, lmax: int) -> list:
    """Rows Y_{i, .} of the fundamental solution matrix, built from m+n+1
    runs of the mass-truncated partition sum at Coulomb-shifted points.

    Row i (paper index, -n <= i <= m) comes from the run at (m-i, n+i);
    position J = j + n of that run's component list already matches the
    column convention, and the unit pivot Y_{i,i}(0) = 1 is automatic.
    """
    rows = []
    for ii in range(m + n + 1):
        i = ii - n
        p_i = coulomb_shifted_point(p, i).with_overrides(m - i, n + i)
        rows.append(z_al_truncated(m - i, n + i, p_i, lmax))
    return rows


def dual_v_prefactor(i: int, m: int, n: int, p: ParamPoint):
    """v_i without its monomial q^(i(i+1)) (L d1 / q^(m+2))^i part."""
    q, d1, d4 = p.q, p.d1, p.d4
    qv = 1 / (q * p.t * p.Q)
    num = qpoch(qv * q ** (2 + 2 * i), q, m - i) * qpoch(d4 * qv * q ** (1 - n), q, n + i)
    den = qpoch(qv * q ** (2 + i) / d1, q, m - i) * qpoch(qv * q ** (1 - n + i), q, n + i)
    return quotient(num, den, "denominator of v_i")


def dual_qkz_residuals(m: int, n: int, p: ParamPoint, lmax: int):
    """The two sides of the dual equation, cleared of negative Lambda powers:

        sum_j Y_{i,j}(L, Qv/t) (L d1/q^(m+2))^(j+n) rt_{j,k}(Qv)
          = q^(i(i+1)) (L d1/q^(m+2))^(i+n) vhat_i Y_{i,k}(L, Qv),

    with rt the r-matrix at the swapped spectral value q^(m+2) Qv / d1, as
    one matrix identity.  Returns (left, right), the entries of its two
    sides as LambdaSeries, row-major in (i, k).
    """
    q, t, d1, d4 = p.q, p.t, p.d1, p.d4
    qv = 1 / (q * t * p.Q)
    y_here = fundamental_matrix(m, n, p, lmax)
    p_shift = p.replace_roots(rQ=p.rt * p.rQ)      # Qv -> Qv / t
    y_shift = fundamental_matrix(m, n, p_shift, lmax)
    lam_swap = q ** (m + 2) * qv / d1
    rt = r_closed_form(m, n, d1, d4, lam_swap, q)
    mono = d1 / q ** (m + 2)
    v = [q ** (i * (i + 1)) * mono ** (i + n) * dual_v_prefactor(i, m, n, p)
         for i in range(-n, m + 1)]
    lhs = ScalarMatrix.from_rows(
        [[y.mul_variable_power(jj) * mono ** jj for jj, y in enumerate(row)]
         for row in y_shift])
    rhs = ScalarMatrix.from_rows(
        [[y.mul_variable_power(ii) * v[ii] for y in row] for ii, row in enumerate(y_here)])
    return (lhs @ rt).entries, rhs.entries


# -- explicit two-component solution in basic hypergeometric form -------------

def heine_solution_pair(p: ParamPoint, lmax: int):
    """The (m, n) = (1, 0) solution written through Heine's series.

    With a = 1/d1, b = d4/q, z1 = d1 d4 L / q^2, z2 = Q t / d4:
        y0 = 2phi1(a, z2; b z2; t, z1),
        y1 = b z2 (1 - 1/a) / (1 - b z2) * 2phi1(t a, z2; t b z2; t, z1).
    Returns (y0, y1) as series in z1 plus the dictionary (a, b, z2, c1)
    where c1 = d1 d4 / q^2 converts between Lambda- and z1-series.
    """
    q, t = p.q, p.t
    d1, d4 = p.d1, p.d4
    a = 1 / d1
    b = d4 / q
    z2 = p.Q * t / d4
    y0 = heine_2phi1(a, z2, b * z2, t, lmax)
    y1 = heine_2phi1(t * a, z2, t * b * z2, t, lmax) \
        * quotient(b * z2 * (1 - 1 / a), 1 - b * z2, "1 - b z2 in the explicit pair")
    return y0, y1, (a, b, z2, d1 * d4 / q ** 2)


def _dual_m_matrix(a, b, z1: LambdaSeries, z2, u) -> ScalarMatrix:
    """M(u) = diag(1, a z1/(b z2)) [[1-u/b, 1-1/a], [1-1/b, 1-1/(a u)]] diag(1, -1).

    u is a plain scalar or the z1 series itself; entries stay polynomial."""
    order = z1.order
    const = lambda v: LambdaSeries.constant(v, order)  # noqa: E731
    if isinstance(u, LambdaSeries):
        # u = z1 itself; a z1 (1 - 1/(a z1)) = a z1 - 1 keeps m11 polynomial
        m00 = const(1) - u / b
        m11 = -(z1 * a - 1) * (1 / (b * z2))
    else:
        m00 = const(1 - u / b)
        m11 = z1 * (a / (b * z2)) * (-(1 - 1 / (a * u)))
    m01 = const(-(1 - 1 / a))
    m10 = z1 * (a * (1 - 1 / b) / (b * z2))
    return ScalarMatrix.from_rows([[m00, m01], [m10, m11]])


def heine_dual_residuals(p: ParamPoint, pair):
    """The two explicit 2x2 difference equations satisfied by the Heine pair
    ``pair = heine_solution_pair(p, lmax)``: the z1-shift form and the
    inverse z2-shift form, each with the row Y = (y0, y1), and each as the
    (left, right) entries of its two sides."""
    t = p.t
    y0, y1, (a, b, z2, _) = pair
    lmax = y0.order
    z1 = LambdaSeries.variable(lmax)
    Y = ScalarMatrix.from_rows([[y0, y1]])

    # (1 - a z1 / b) T_{t,z1} Y = Y M(z1)
    pref = LambdaSeries.constant(1, lmax) - z1 * (a / b)
    z1_shift = ([y.shift_variable(t) * pref for y in (y0, y1)],
                (Y @ _dual_m_matrix(a, b, z1, z2, z1)).entries)

    # (1 - t/(b z2)) T^-1_{t,z2} Y = Y M(t / z2); the z2 shift acts through
    # Q alone (z2 = Q t / d4), leaving a, b and the z1 variable untouched.
    p_z2 = p.replace_roots(rQ=p.rQ / p.rt)
    y0s, y1s, _ = heine_solution_pair(p_z2, lmax)
    pref2 = 1 - t / (b * z2)
    z2_shift = ([y * pref2 for y in (y0s, y1s)],
                (Y @ _dual_m_matrix(a, b, z1, z2, t / z2)).entries)
    return z1_shift, z2_shift


# -- four-dimensional limit ----------------------------------------------------

def _check_window(mvec, m: int, n: int) -> None:
    m1, m2, m3, m4 = mvec
    if -m not in (m1, m2) or -n not in (m3, m4):
        raise QkzError("window [-n, m] needs m1 or m2 = -m and m3 or m4 = -n")


def r1_fourd(mvec, m: int, n: int, lam) -> ScalarMatrix:
    """Tridiagonal first-order matrix of the small-h limit on [-n, m]:

        r1_{i,i-1} = L (i - m3)(i - m4) / (L - 1)
        r1_{i,i}   = -L [(i + m1)(i + m2) + (i - m3)(i - m4)] / (L - 1) + i(i+1)
        r1_{i,i+1} = (i + m1)(i + m2) / (L - 1)
    """
    _check_window(mvec, m, n)
    m1, m2, m3, m4 = mvec
    inv = quotient(ONE, lam - 1, "Lambda - 1 in the 4d matrix")
    return _window_op_matrix(
        m, n,
        diag=lambda i: -lam * ((i + m1) * (i + m2) + (i - m3) * (i - m4)) * inv
        + i * (i + 1),
        up=lambda i: (i + m1) * (i + m2) * inv,
        down=lambda i: lam * (i - m3) * (i - m4) * inv,
    )


def _window_op_matrix(m: int, n: int, diag, up, down) -> ScalarMatrix:
    """Matrix of  x^i -> diag(i) x^i + up(i) x^(i+1) + down(i) x^(i-1)."""
    size = m + n + 1
    out = ScalarMatrix(size, size, [ONE * 0] * (size * size))
    for ii in range(size):
        i = ii - n
        out[ii, ii] = diag(i)
        u = up(i)
        if ii + 1 < size:
            out[ii, ii + 1] = u
        elif u != 0:
            raise QkzError("operator leaks above the window")
        d = down(i)
        if ii - 1 >= 0:
            out[ii, ii - 1] = d
        elif d != 0:
            raise QkzError("operator leaks below the window")
    return out


def h4d_matrix(mvec, kappa_a, m: int, n: int, lam):
    """Matrices (H, A0, A1) of H_4d, A0 and A1 on the window basis, which
    split as

        H_4d - (kappa + 1 + a) theta_x = A0 + Lambda A1 / (Lambda - 1).
    """
    _check_window(mvec, m, n)
    m1, m2, m3, m4 = mvec
    kap, a_c = kappa_a
    if lam == 0:
        raise DegenerateParameterError("Lambda = 0 degenerates H_4d")
    inv = quotient(ONE, 1 - lam, "1 - Lambda in H_4d")

    H = _window_op_matrix(
        m, n,
        diag=lambda i: ONE * i * (i + 1)
        + lam * ((i + m1) * (i + m2) + (i - m3) * (i - m4)) * inv,
        up=lambda i: -(i + m1) * (i + m2) * inv,
        down=lambda i: -lam * (i - m3) * (i - m4) * inv,
    )
    A0 = _window_op_matrix(
        m, n,
        diag=lambda i: ONE * i * (i - kap - a_c),
        up=lambda i: ONE * (-(i + m1) * (i + m2)),
        down=lambda i: ONE * 0,
    )
    A1 = _window_op_matrix(
        m, n,
        diag=lambda i: ONE * (-(i + m1) * (i + m2) - (i - m3) * (i - m4)),
        up=lambda i: ONE * (i + m1) * (i + m2),
        down=lambda i: ONE * (i - m3) * (i - m4),
    )
    return H, A0, A1


def kz_spin_dictionary(mvec, kappa_a):
    """(j1, j2, j3, j4) for the current-block form; at = a + kappa."""
    m1, m2, m3, m4 = mvec
    kap, a_c = kappa_a
    at = a_c + kap
    half = ONE / 2
    return (
        (-m1 - m3) * half,
        (at - 1 + m1 - m3) * half,
        (at - 1 + m2 - m4) * half,
        (-m2 - m4) * half,
    )


def kz_form_matrix(mvec, kappa_a, m: int, n: int, lam) -> ScalarMatrix:
    """Matrix of the current-algebra KZ operator

        O = theta(theta-1) - (x-L)/(1-L) (theta - j1 + j2)(theta + j3 - j4)
            - (L/x)(1-x)/(1-L) (theta + j1 + j2)(theta + j3 + j4)

    written in the window basis after the monomial gauge x^((at-1)/2)
    (theta -> theta + (1-at)/2) and the constant shift -(at^2-1)/4.  Under
    the spin dictionary this equals A0 + Lambda A1/(Lambda - 1) entrywise.
    """
    kap, a_c = kappa_a
    at = a_c + kap
    j1, j2, j3, j4 = kz_spin_dictionary(mvec, kappa_a)
    sigma = (1 - at) * (ONE / 2)
    inv = quotient(ONE, 1 - lam, "1 - Lambda in the KZ operator")
    const = (at * at - 1) * (ONE / 4)

    def P_up(th):
        return (th - j1 + j2) * (th + j3 - j4)

    def P_down(th):
        return (th + j1 + j2) * (th + j3 + j4)

    return _window_op_matrix(
        m, n,
        diag=lambda i: (i + sigma) * (i + sigma - 1)
        + lam * (P_up(i + sigma) + P_down(i + sigma)) * inv - const,
        up=lambda i: -P_up(i + sigma) * inv,
        down=lambda i: -lam * P_down(i + sigma) * inv,
    )
