"""Jackson integrals of symmetric Selberg type over the cone-truncated
cycle, the Matsuo cocycle basis, Ito's R and A matrices with their Gauss
decompositions, and the difference equations they satisfy.

Conventions: the lattice steps by t (Lambda = t^alpha is the series
variable and is never exponentiated), the cycle is q-spaced, and all
matrix entries use base-q Pochhammers.  Everything alpha-dependent reduces
to exact Lambda-degrees through base-point ratios.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .laumon import z_al_truncated
from .linalg import ScalarMatrix
from .partitions import partitions_of
from .qseries import (
    LambdaSeries,
    qbinom,
    qfactorial,
    qpoch,
    qpoch_run,
)
from .scalars import ONE, ParamPoint, dot, int_pairs, pair_sum, product, quotient


@dataclass(frozen=True)
class JacksonParams:
    """Weight parameters (a1, a2, b1, b2), bases (q, t), window (m, n)."""

    a1: object
    a2: object
    b1: object
    b2: object
    q: object
    t: object
    m: int
    n: int

    @property
    def N(self) -> int:
        return self.m + self.n

    @classmethod
    def from_point(cls, p: ParamPoint, a2) -> "JacksonParams":
        """Solve the parameter dictionary

            d1 = 1/(q^(m-1) a1 b1),  d4 = 1/(q^(n-1) a2 b2),
            Q  = q^(m-n) a1 / (t a2),

        for (a1, b1, b2) given the free choice a2, on the window (m, n) of
        the mass-truncated point p.
        """
        m, n = p.window
        q, t = p.q, p.t
        a1 = p.Q * t * a2 * q ** (n - m)
        b1 = 1 / (q ** (m - 1) * a1 * p.d1)
        b2 = 1 / (q ** (n - 1) * a2 * p.d4)
        return cls(a1, a2, b1, b2, q, t, m, n)

    def cycle(self) -> list:
        """xi = (a2, a2 q, ..., a2 q^(n-1), a1, a1 q, ..., a1 q^(m-1))."""
        return [self.a2 * self.q ** i for i in range(self.n)] + \
               [self.a1 * self.q ** i for i in range(self.m)]

    def shifted(self, which: int) -> "JacksonParams":
        """The T_i shift a_i -> t a_i, b_i -> b_i / t (i = 1 or 2)."""
        if which == 1:
            return replace(self, a1=self.a1 * self.t, b1=self.b1 / self.t)
        if which == 2:
            return replace(self, a2=self.a2 * self.t, b2=self.b2 / self.t)
        raise ValueError("which must be 1 or 2")


def cone_points(n: int, m: int, max_degree: int):
    """All lattice exponents nu with sum(nu) <= max_degree, weakly increasing
    within the first n and within the last m entries.  A block of length b
    and degree d is a partition of d with at most b parts, read from its
    smallest part and zero-padded."""
    def blocks(length, total):
        return [(0,) * (length - len(lam)) + lam[::-1]
                for lam in partitions_of(total) if len(lam) <= length]

    for d in range(max_degree + 1):
        for d1 in range(d + 1):
            for left in blocks(n, d1):
                for right in blocks(m, d - d1):
                    yield left + right


def _telescope_table(c, d, lo: int, hi: int, t, what: str) -> dict:
    """{k: (c t^k, d; t)_inf / (c, d t^k; t)_inf} for lo <= k <= hi, with
    lo <= 0 <= hi: (d; t)_k / (c; t)_k for k >= 0 and
    (c t^k; t)_-k / (d t^k; t)_-k = (c/t; 1/t)_-k / (d/t; 1/t)_-k for k < 0,
    read from four prefix runs, so the table divides by exactly the factors
    of the finite products at its two ends."""
    up_d, up_c = qpoch_run(d, t, hi), qpoch_run(c, t, hi)
    down_c, down_d = qpoch_run(c / t, 1 / t, -lo), qpoch_run(d / t, 1 / t, -lo)
    return {k: quotient(up_d[k], up_c[k], what) if k >= 0
            else quotient(down_c[-k], down_d[-k], what)
            for k in range(lo, hi + 1)}


def _weight_rule(jp: JacksonParams, points, shift=(0, 0)):
    """weight_ratio(jp, e, shift) as a function of e, for every e in
    `points`: the telescoped factors are read from one table per (cycle
    point, parameter pair) over e_i + s_k and one per cross pair over
    e_j - e_i, each spanning the exponents that `points` use."""
    t, q = jp.t, jp.q
    xi = jp.cycle()
    N = jp.N
    pairs = [(i, j) for i in range(N) for j in range(i + 1, N)]

    def table(c, d, ks, what):
        return _telescope_table(c, d, min(0, *ks), max(0, *ks), t, what)

    single = [(i, s, table(t * xi[i] / a, b * xi[i], [e[i] + s for e in points],
                           "telescoped factor"))
              for i in range(N)
              for a, b, s in ((jp.a1, jp.b1, shift[0]), (jp.a2, jp.b2, shift[1]))]
    cross = []
    for i, j in pairs:
        ratio = xi[j] / xi[i]
        cross.append((i, j, table(t * ratio / q, q * ratio, [e[j] - e[i] for e in points],
                                  "telescoped cross factor")))
    inverse_vandermonde = quotient(ONE, product(xi[i] - xi[j] for i, j in pairs),
                                   "difference of cycle points")
    step = q * q / t

    def weight(e):
        z = [x * t ** ei for x, ei in zip(xi, e)]
        return product([step ** sum(ei * (N - 1 - i) for i, ei in enumerate(e)),
                        *(tab[e[i] + s] for i, s, tab in single),
                        *(tab[e[j] - e[i]] for i, j, tab in cross),
                        *(z[i] - z[j] for i, j in pairs), inverse_vandermonde])

    return weight


def weight_ratio(jp: JacksonParams, e, shift=(0, 0)):
    """[Phi(z) Delta(1, z)] at z_i = xi_i t^(e_i), with a_k -> t^(-s_k) a_k
    and b_k -> t^(s_k) b_k for shift = (s_1, s_2), divided by its value at
    e = 0 and the unshifted parameters.

    Every alpha-dependent power telescopes: a unit e-step multiplies
    z_i^alpha by Lambda (left out: the Lambda-degree is sum(e)) and
    z_i^(2 tau - 1) by q^2/t, t^tau = q.  Each infinite product
    (t z/a_k; t)_inf / (b_k z; t)_inf moves by t^(e_i + s_k), each cross
    product (t z_j/(q z_i); t)_inf / (q z_j/z_i; t)_inf by t^(e_j - e_i).
    """
    return _weight_rule(jp, [e], shift)(e)


def matsuo_e(a, b, z, q) -> list:
    """Subset sums [s_0, ..., s_N] of the factorized symmetric cocycles
    e_hat_k = [k]_{1/q}! [N-k]_{1/q}! s_k (`matsuo_prefactors`),

        s_k(a, b; z) = sum_{|J| = k} prod_{i in I} (1 - z_i/a) prod_{j in J} (1 - b z_j)
                       prod_{i in I, j in J} (z_j - z_i/q)/(z_j - z_i),

    I the complement of J, at rational a, b, z and q (a series or jet
    raises ``ValueError``, from `int_pairs`).  The single factors
    and cross ratios are built once, and `_subset_sums` sums each subset J
    once, into s_|J|.
    """
    z = list(z)
    # the diagonal of the cross ratios is never read
    cross = [[_cross_ratio(zi, zj, q) if i != j else 1 for j, zj in enumerate(z)]
             for i, zi in enumerate(z)]
    return _subset_sums(int_pairs([1 - v / a for v in z]), int_pairs([1 - b * v for v in z]),
                        [int_pairs(row) for row in cross])


def _cross_ratio(zi, zj, q):
    """(z_j - z_i/q)/(z_j - z_i), which depends on z_j/z_i alone."""
    return quotient(zj - zi / q, zj - zi, "difference of z values")


def _subset_sums(left, right, cross) -> list:
    """The subset sums of `matsuo_e` from the int pairs (`int_pairs`) of its
    factors left[i] = 1 - z_i/a, right[j] = 1 - b z_j and cross[i][j] =
    (z_j - z_i/q)/(z_j - z_i): each subset's term is one unreduced pair,
    and each sum one `pair_sum`, reduced once."""
    N = len(left)
    terms = [[] for _ in range(N + 1)]
    for mask in range(1 << N):
        J = [j for j in range(N) if mask >> j & 1]
        I = [i for i in range(N) if not mask >> i & 1]
        num = den = 1
        for n, d in [*(left[i] for i in I), *(right[j] for j in J),
                     *(cross[i][j] for i in I for j in J)]:
            num *= n
            den *= d
        terms[len(J)].append((num, den))
    return [pair_sum(pairs) for pairs in terms]


def matsuo_prefactors(N: int, q) -> list:
    """[k]_{1/q}! [N-k]_{1/q}! for k = 0..N, which turn matsuo_e's subset
    sums into the cocycles e_hat_k; they do not depend on z."""
    qi = 1 / q
    factorials = [qfactorial(k, qi) for k in range(N + 1)]
    return [factorials[k] * factorials[N - k] for k in range(N + 1)]


def matsuo_e_brute(k: int, a, b, z, q):
    """Independent oracle: antisymmetrize prod f over all permutations.

    (1/Delta(1,z)) A( prod_{i<=k} (1 - b z_i) prod_{i>k} (1 - z_i/a) Delta(q, z) ),
    each permutation signed by the parity of its inversions.
    """
    from itertools import combinations, permutations

    total = 0
    for perm in permutations(range(len(z))):
        w = [z[p] for p in perm]
        term = product([*(1 - b * x for x in w[:k]), *(1 - x / a for x in w[k:]),
                        *(x - y / q for x, y in combinations(w, 2))])
        inversions = sum(i > j for i, j in combinations(perm, 2))
        total += -term if inversions % 2 else term
    return total / product(x - y for x, y in combinations(z, 2))


def jackson_vector_raw(jp: JacksonParams, lmax: int):
    """Unnormalized components [<e_hat_0>, ..., <e_hat_N>] as LambdaSeries
    (base-point normalization only), position J holding the x^(J-n) slice.

    The weights come from one `_weight_rule` over the whole cone, and the
    prefactors of the cocycles multiply each component once.  The subset
    sums of `matsuo_e` at z_i = xi_i t^(e_i) read their single factors from
    one table per (i, e_i) and their cross ratios from one per (i, j,
    e_j - e_i), each over the exponents the cone uses."""
    t, q, N = jp.t, jp.q, jp.N
    xi = jp.cycle()
    points = list(cone_points(jp.n, jp.m, lmax))
    weight = _weight_rule(jp, points)
    prefactors = matsuo_prefactors(N, q)
    z = [[x * t ** e for e in range(max(nu[i] for nu in points) + 1)]
         for i, x in enumerate(xi)]
    left = [int_pairs([1 - v / jp.a2 for v in row]) for row in z]
    right = [int_pairs([1 - jp.b1 * v for v in row]) for row in z]
    cross = {}
    for i in range(N):
        for j in range(N):
            if i != j:
                gaps = sorted({nu[j] - nu[i] for nu in points})
                ratios = int_pairs([_cross_ratio(xi[i], xi[j] * t ** gap, q) for gap in gaps])
                cross[i, j] = dict(zip(gaps, ratios))
    by_degree = [[] for _ in range(lmax + 1)]
    for nu in points:
        sums = _subset_sums([row[e] for row, e in zip(left, nu)],
                            [row[e] for row, e in zip(right, nu)],
                            [[cross[i, j][nu[j] - nu[i]] if i != j else None
                              for j in range(N)] for i in range(N)])
        by_degree[sum(nu)].append((weight(nu), sums))
    return [LambdaSeries(dot((w, sums[k]) for w, sums in terms) for terms in by_degree)
            * prefactor for k, prefactor in enumerate(prefactors)]


def jackson_vector(jp: JacksonParams, lmax: int):
    """Pivot-normalized components: everything divided by the constant term
    of the position-n component, making the triangular display's pivot 1."""
    raw = jackson_vector_raw(jp, lmax)
    pivot = raw[jp.n].coeffs[0]
    inverse = quotient(ONE, pivot, "pivot of the Jackson vector")
    return [r * inverse for r in raw], pivot


def matsuo_leading_constant(jp: JacksonParams, k: int):
    """Closed form of the Lambda^0 coefficient of <e_k> = <e_hat_(N-k)>,
    0 <= k <= m (k = m is the pivot <e_hat_n>):

        (1/q;1/q)_m (b1 a2; q)_n (q^(k-N); q)_n (q^k b1 a1; q)_(m-k)
        (q^-n a1/a2; q)_k / (1 - 1/q)^N.
    """
    q = jp.q
    qi = 1 / q
    N = jp.N
    return (
        qpoch(qi, qi, jp.m)
        * qpoch(jp.b1 * jp.a2, q, jp.n)
        * qpoch(q ** (k - N), q, jp.n)
        * qpoch(q ** k * jp.b1 * jp.a1, q, jp.m - k)
        * qpoch(q ** (-jp.n) * jp.a1 / jp.a2, q, k)
        / (1 - qi) ** N
    )


# -- Ito's R and A matrices ----------------------------------------------------

def _c2(k: int) -> int:
    return k * (k - 1) // 2


def _gauss_factors(N: int, lower, diag, upper):
    """(L, D, U) of size N + 1 from three entry rules: unit triangular L and
    U with L[i, j] = lower(i, j) for i > j and U[i, j] = upper(i, j) for
    i < j, and the diagonal D[j, j] = diag(j)."""
    L = ScalarMatrix.identity(N + 1)
    U = ScalarMatrix.identity(N + 1)
    for i in range(N + 1):
        for j in range(i):
            L[i, j] = lower(i, j)
            U[j, i] = upper(j, i)
    return L, ScalarMatrix.diagonal([diag(j) for j in range(N + 1)]), U


def ito_R(jp: JacksonParams) -> ScalarMatrix:
    """R = L_R D_R U_R with the factorized triangular entries."""
    a1, a2, b1, b2, q = jp.a1, jp.a2, jp.b1, jp.b2, jp.q
    N = jp.N
    L, D, U = _gauss_factors(
        N,
        lower=lambda i, j: quotient(
            qbinom(N - j, N - i, 1 / q) * (-1) ** (i - j) * q ** (-_c2(i - j))
            * qpoch(a2 * b2 * q ** j, q, i - j),
            qpoch(a2 / a1 * q ** (-(N - 2 * j - 1)), q, i - j), "L_R denominator"),
        diag=lambda j: quotient(
            qpoch(a1 / a2 * q ** (-j), q, N - j) * qpoch(a2 * b1, q, j),
            qpoch(a1 * b2, q, N - j) * qpoch(a2 / a1 * q ** (-(N - j)), q, j),
            "D_R denominator"),
        upper=lambda i, j: quotient(
            qbinom(j, i, 1 / q) * qpoch(a1 * b1 * q ** (N - j), q, j - i),
            qpoch(a1 / a2 * q ** (N - i - j), q, j - i), "U_R denominator"))
    return L @ D @ U


def ito_R_alt(jp: JacksonParams) -> ScalarMatrix:
    """The opposite Gauss decomposition R = U'_R D'_R L'_R."""
    a1, a2, b1, b2, q = jp.a1, jp.a2, jp.b1, jp.b2, jp.q
    N = jp.N
    L, D, U = _gauss_factors(
        N,
        lower=lambda i, j: quotient(
            qbinom(N - j, N - i, q) * qpoch(q ** (-(i - 1)) / (a2 * b2), q, i - j),
            qpoch(b1 / b2 * q ** (N - 2 * i + 1), q, i - j), "L'_R denominator"),
        diag=lambda j: quotient(
            qpoch(b1 / b2 * q ** (N - 2 * j + 1), q, j)
            * qpoch(q ** (-(N - j - 1)) / (a2 * b1), q, N - j),
            qpoch(q ** (-(j - 1)) / (a1 * b2), q, j)
            * qpoch(b2 / b1 * q ** (-(N - 2 * j - 1)), q, N - j), "D'_R denominator"),
        upper=lambda i, j: quotient(
            qbinom(j, i, q) * (-1) ** (j - i) * q ** (_c2(j - i))
            * qpoch(q ** (-(N - i - 1)) / (a1 * b1), q, j - i),
            qpoch(b2 / b1 * q ** (i + j - N), q, j - i), "U'_R denominator"))
    return U @ D @ L


def ito_A(jp: JacksonParams, lam) -> ScalarMatrix:
    """A = L_A D_A U_A; lam stands for t^alpha and may be a scalar or a
    truncated Lambda-series."""
    a1, a2, b1, b2, q = jp.a1, jp.a2, jp.b1, jp.b2, jp.q
    N = jp.N
    # (lam a2 b2 q^(2j); q)_k for k <= N - j, which L, D and U share, and
    # (lam; q)_j: one prefix run per base
    shared = [qpoch_run(lam * (a2 * b2 * q ** (2 * j)), q, N - j) for j in range(N + 1)]
    lam_run = qpoch_run(lam, q, N)
    L, D, U = _gauss_factors(
        N,
        lower=lambda i, j: quotient(
            (-1) ** (i - j) * q ** (_c2(N - i) - _c2(N - j)) * qbinom(N - j, N - i, q)
            * qpoch(a2 * b2 * q ** j, q, i - j),
            shared[j][i - j], "L_A denominator"),
        diag=lambda j: quotient(
            a1 ** (N - j) * a2 ** j * q ** (_c2(j) + _c2(N - j))
            * lam_run[j] * shared[j][N - j],
            qpoch(lam * (a2 * b2 * q ** (j - 1)), q, j)
            * qpoch(lam * (a1 * a2 * b1 * b2 * q ** (N + j - 1)), q, N - j),
            "D_A denominator"),
        upper=lambda i, j: quotient(
            (lam * (-a2 / a1)) ** (j - i) * q ** (_c2(j) - _c2(i)) * qbinom(j, i, q)
            * qpoch(a1 * b1 * q ** (N - j), q, j - i),
            shared[i][j - i], "U_A denominator"))
    return L @ D @ U


def ito_A_via_R(jp: JacksonParams, lam) -> ScalarMatrix:
    """A = s T(R) D with the scalar s, diagonal D = diag((a1 b2)^-i) and the
    parameter shift T: a2 -> a2 w a1 b2, b2 -> b2/(w a1 b2), w = lam q^(N-1)."""
    a1, a2, b1, b2, q = jp.a1, jp.a2, jp.b1, jp.b2, jp.q
    N = jp.N
    w = lam * q ** (N - 1)
    shifted = replace(jp, a2=a2 * w * a1 * b2, b2=b2 / (w * a1 * b2))
    s = quotient(q ** (N * (N - 1) // 2) * (a1 * a2 * b2) ** N * qpoch(lam, q, N),
                 qpoch(lam * (a1 * a2 * b1 * b2 * q ** (N - 1)), q, N), "denominator of s")
    D = ScalarMatrix.diagonal([(a1 * b2) ** (-i) * ONE for i in range(N + 1)])
    return (ito_R(shifted) @ D).scale(s)


def d2_matrix(jp: JacksonParams, lam) -> ScalarMatrix:
    return ScalarMatrix.diagonal([(lam * jp.q ** (jp.N - 1)) ** i * ONE
                                  for i in range(jp.N + 1)])


def d1_matrix(jp: JacksonParams, lam) -> ScalarMatrix:
    return ScalarMatrix.diagonal([(lam * jp.q ** (jp.N - 1)) ** (jp.N - i) * ONE
                                  for i in range(jp.N + 1)])


# -- the three difference equations on the Jackson vector ---------------------

def base_shift_data(jp: JacksonParams, which: int):
    """Scalar rho and Lambda-power p with

        [new base value] / [old base value] = rho * Lambda^p

    for the shift T_which acting on both parameters and cycle.  T_1 scales
    the a1 block of the cycle (its last m points) by t, T_2 the a2 block
    (its first n): e marks the scaled block, all the alpha-powers reduce
    to the Lambda^p monomial (p = size of that block), and everything else
    telescopes to finite products.
    """
    if which == 1:
        e, shift = [0] * jp.n + [1] * jp.m, (-1, 0)
    else:
        e, shift = [1] * jp.n + [0] * jp.m, (0, -1)
    return weight_ratio(jp, e, shift), sum(e)


def al_jackson_compare(p: ParamPoint, a2, lmax: int):
    """The two sides of the AL = Jackson identification: the mass-truncated
    partition sum and the Jackson vector, component by component.

    The two instanton variables differ by the exact monomial
    g = t d1 d4 / q^(N+1); after Lambda -> g Lambda on the Jackson side each
    component pair is proportional with a Lambda-independent constant, so a
    comparison that cross-multiplies (z_J * lead(psi_J) == psi_J * lead(z_J))
    is immune to the overall and per-component normalizations.  Returns
    (laumon, jackson, info, pivot): the two component lists, the observed
    dictionary, leading orders (jackson, laumon) and constants, which are
    recorded, not assumed, and the pivot <e_hat_n> before normalization
    beside its closed form matsuo_leading_constant(jp, m).  A component
    that vanishes through lmax on both sides has leading orders
    (None, None) and constant None, as does one whose two leading orders
    differ.
    """
    jp = JacksonParams.from_point(p, a2)
    psi, pivot = jackson_vector(jp, lmax)
    z = z_al_truncated(p, lmax)
    g = p.t * p.d1 * p.d4 / p.q ** (jp.N + 1)
    psig = [s.shift_variable(g) for s in psi]
    leading = [(s.valuation(), c.valuation()) for s, c in zip(psig, z)]
    constants = [None if vz is None or vz != vp else str(c.coeffs[vz] / s.coeffs[vp])
                 for (vp, vz), s, c in zip(leading, psig, z)]
    info = {"lambda_dictionary": str(g), "component_constants": constants,
            "leading_orders": leading}
    return z, psig, info, (pivot, matsuo_leading_constant(jp, jp.m))


def ito_qkz_check(jp: JacksonParams, lmax: int, vector=None):
    """The three difference equations on the computed vector:

        T_alpha Psi = Psi K0 / prod(xi),   K0 = R^-1 A R = D2 A D2^-1,
        T_1 Psi h0' rho_1 Lambda^m = Psi K1 h0,   K1 = R^-1 D1,
        T_2 Psi h0' rho_2 Lambda^n = Psi K2 h0,   K2 = D2 (T_2 R),

    where rho_i Lambda^(block) are the exact base-point ratios and h0 the
    pivot constants -- no fitted quantities anywhere.  Returns a dict of
    (left, right) pairs of series lists, each pair equal through its full
    order lmax; under "Lambda^0" the computed constant terms and their
    closed forms matsuo_leading_constant for k = 0..m (k = m is the pivot).
    Every step is causal in Lambda, so coefficient L of a side is the same
    at every order lmax >= L.  `vector`, if given, is jackson_vector(jp, lmax).
    """
    N = jp.N
    lam = LambdaSeries.variable(lmax)
    psi, piv = vector or jackson_vector(jp, lmax)
    R = ito_R(jp)
    K0 = R.solve(ito_A(jp, lam) @ R)
    xi_prod = product(jp.cycle())
    out = {}

    row = ScalarMatrix.from_rows([psi])
    out["alpha"] = ([c.shift_variable(jp.t) for c in psi],
                    [rhs / xi_prod for rhs in (row @ K0).entries])

    for which, K in ((1, R.solve(d1_matrix(jp, lam))),
                     (2, d2_matrix(jp, lam) @ ito_R(jp.shifted(2)))):
        psi2, piv2 = jackson_vector(jp.shifted(which), lmax)
        rho, lam_power = base_shift_data(jp, which)
        scale = rho * piv2 / piv
        out[f"T{which}"] = ([c.mul_variable_power(lam_power) * scale for c in psi2],
                            (row @ K).entries)

    # the Matsuo closed forms of the Lambda^0 constants <e_k> = <e_hat_(N-k)>
    # for k <= m, the pivot <e_hat_n> at k = m (psi is divided by the pivot)
    computed = [psi[N - k].coeffs[0] * piv for k in range(jp.m + 1)]
    closed = [matsuo_leading_constant(jp, k) for k in range(jp.m + 1)]
    out["Lambda^0"] = ([LambdaSeries.constant(a, lmax) for a in computed],
                       [LambdaSeries.constant(b, lmax) for b in closed])
    return out
