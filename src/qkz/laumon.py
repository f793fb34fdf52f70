"""Orbifolded Nekrasov factors (row, column/floor and box forms) and the affine
Laumon partition function with its surface-defect expansion variables.

All products are finite.  Monomial square roots needed by the balanced
bracket [u; q]_n live on the fourth-root lattice of ParamPoint; spectral
parameters are lattice Monomials, so their square roots are formed exactly
(Monomial.half rejects an odd exponent).
Each factor lists its elementary brackets [u q^a kappa^b], takes each
distinct one once from a bounded memo as an unreduced int pair, and reduces
the product once.
"""

from __future__ import annotations

from functools import lru_cache

from .cone import ConeSeries
from .errors import QkzError
from .partitions import Partition, enumerate_pairs
from .qseries import LambdaSeries, bracket_parts
from .scalars import Monomial, ParamPoint, Rat, dot, product, quotient

# The parameters as lattice monomials, each the fourth power of its root:
# Q is q, QQ the instanton parameter Q, and KAPPA = t^(-1/2) = rt^-2.
Q = Monomial((4, 0, 0, 0, 0, 0, 0))
QQ = Monomial((0, 0, 4, 0, 0, 0, 0))
D1 = Monomial((0, 0, 0, 4, 0, 0, 0))
D2 = Monomial((0, 0, 0, 0, 4, 0, 0))
D3 = Monomial((0, 0, 0, 0, 0, 4, 0))
D4 = Monomial((0, 0, 0, 0, 0, 0, 4))
KAPPA = Monomial((0, -2, 0, 0, 0, 0, 0))
UNIT = Monomial((0, 0, 0, 0, 0, 0, 0))


def _scaled(a, b, xn, xd, e: int):
    """(a, b) times (xn/xd)^e, as an unreduced int pair."""
    if e >= 0:
        return a * xn ** e, b * xd ** e
    return a * xd ** -e, b * xn ** -e


@lru_cache(maxsize=1024)
def elementary_bracket(un, ud, qn, qd, tn, td, a: int, b: int):
    """[u q^a kappa^b] as an unreduced int pair, for sqrt(u) = un/ud,
    sqrt(q) = rq^2 = qn/qd and rt = tn/td, so sqrt(kappa) = td/tn."""
    x, y = _scaled(un, ud, qn, qd, a)
    return bracket_parts(*_scaled(x, y, td, tn, b))


def _bracket_product(sqrt_u, p: ParamPoint, step, runs):
    """prod over (e_q, e_kap, n) in runs of [u q^e_q kappa^e_kap; base]_n.

    The base is q^s_q kappa^s_kap for step = (s_q, s_kap), and
    [x; base]_n = prod_{i<n} [x base^i], so each run expands into the
    elementary brackets [u q^(e_q + i s_q) kappa^(e_kap + i s_kap)].  Each
    distinct one is taken once from `elementary_bracket`, raised to its
    multiplicity, and the product is reduced once.
    """
    s_q, s_kap = step
    counts = {}
    for e_q, e_kap, n in runs:
        for i in range(n):
            key = (e_q + i * s_q, e_kap + i * s_kap)
            counts[key] = counts.get(key, 0) + 1
    rq, rt = p.rq, p.rt
    point = (sqrt_u.numerator, sqrt_u.denominator, rq.numerator ** 2,
             rq.denominator ** 2, rt.numerator, rt.denominator)
    num = den = 1
    for (a, b), mult in counts.items():
        bn, bd = elementary_bracket(*point, a, b)
        if mult > 1:
            bn, bd = bn ** mult, bd ** mult
        num *= bn
        den *= bd
    return Rat(num, den)


def _padded(rows: tuple, size: int):
    """Rows as a 0-based tuple, zero-padded to `size`."""
    return rows + (0,) * (size - len(rows))


def nek_orb(k: int, n: int, lam: Partition, mu: Partition, sqrt_u, p: ParamPoint):
    """Orbifolded Nekrasov factor, row form with base-q brackets:

        prod_{j >= i >= 1, j-i = k mod n}
            [u q^(lam_{j+1} - mu_i) kappa^(j-i); q]_(lam_j - lam_{j+1})
      * prod_{b >= a >= 1, b-a = -k-1 mod n}
            [u q^(lam_a - mu_b) kappa^(a-b-1); q]_(mu_b - mu_{b+1})
    """
    k = k % n
    ln, mn = len(lam.parts), len(mu.parts)
    size = ln + mn + 1
    lr, mr = _padded(lam.parts, size), _padded(mu.parts, size)
    runs = []
    for j in range(ln):
        lo = lr[j + 1]
        cnt = lr[j] - lo
        if cnt:
            runs += [(lo - mr[i], j - i, cnt) for i in range(j - k, -1, -n)]
    for b in range(mn):
        hi = mr[b]
        cnt = hi - mr[b + 1]
        if cnt:
            runs += [(lr[a] - hi, a - b - 1, cnt) for a in range(b - n + 1 + k, -1, -n)]
    return _bracket_product(sqrt_u, p, (1, 0), runs)


def nek_orb_floor(k: int, n: int, lam: Partition, mu: Partition, sqrt_u, p: ParamPoint):
    """Same factor via the column/floor form with base-kappa^n brackets.

    With lv = lam^T, mv = mu^T the two products are

        prod_{i <= j} [u q^(j-i) kappa^(lv_{j+1} - mv_i + l0); kappa^n]_c1,
            l0 = (k - lv_{j+1} + mv_i) mod n,
            c1 = floor((lv_j + n-1-k - (mv_i mod n))/n)
               - floor((lv_{j+1} + n-1-k - (mv_i mod n))/n)
        prod_{i <= j} [u q^(i-j-1) kappa^(lv_i - mv_j + l0'); kappa^n]_c2,
            l0' = (k - lv_i + mv_j) mod n,
            c2 = floor((mv_j + k + ((-lv_i) mod n))/n)
               - floor((mv_{j+1} + k + ((-lv_i) mod n))/n)

    A row j with lv_j = lv_{j+1} (mv_j = mv_{j+1}) makes c1 (c2) the
    difference of two equal floors, 0 for every i, so it is skipped.
    """
    k = k % n
    lv, mv = lam.transpose().parts, mu.transpose().parts
    size = len(lv) + len(mv) + 1
    lr, mr = _padded(lv, size), _padded(mv, size)
    runs = []
    for j in range(len(lv)):
        hi, lo = lr[j], lr[j + 1]
        if hi == lo:
            continue
        top, bot = hi + n - 1 - k, lo + n - 1 - k
        for i, m in enumerate(mr[:j + 1]):
            r1 = m % n
            c1 = (top - r1) // n - (bot - r1) // n
            if c1:
                runs.append((j - i, lo - m + (k - lo + m) % n, c1))
    for j in range(len(mv)):
        hi, lo = mr[j], mr[j + 1]
        if hi == lo:
            continue
        top, bot = hi + k, lo + k
        for i, l in enumerate(lr[:j + 1]):
            r4 = -l % n
            c2 = (top + r4) // n - (bot + r4) // n
            if c2:
                runs.append((i - j - 1, l - hi + (k - l + hi) % n, c2))
    return _bracket_product(sqrt_u, p, (0, n), runs)


def total_nekrasov_bracket(lam: Partition, mu: Partition, sqrt_u, p: ParamPoint):
    """Bracket-normalized total factor as a product over boxes:

        prod_{(i,j) in lam} [u q^(lam_i - j) kappa^(-mu^T_j + i - 1)]
      * prod_{(i,j) in mu}  [u q^(-mu_i + j - 1) kappa^(lam^T_j - i)]

    with [w] = w^(-1/2) - w^(1/2) = [w; 1]_1.  Equals prod_k nek_orb(k | n)
    for any n.
    """
    size = lam.width + mu.width
    lv, mv = _padded(lam.transpose().parts, size), _padded(mu.transpose().parts, size)
    runs = [(row - j - 1, i - mv[j], 1)
            for i, row in enumerate(lam.parts) for j in range(row)]
    runs += [(j - row, lv[j] - i - 1, 1)
             for i, row in enumerate(mu.parts) for j in range(row)]
    return _bracket_product(sqrt_u, p, (0, 0), runs)


# -- affine Laumon partition function ----------------------------------------

def _spectral_vectors():
    """u1, u2, v1, v2, w1, w2 as lattice monomials:
    u1 = qQ/d3, u2 = kappa q/d1, v1 = 1, v2 = Q/kappa,
    w1 = 1/d2, w2 = Q/(d4 kappa)."""
    return ((Q + QQ - D3, KAPPA + Q - D1), (UNIT, QQ - KAPPA),
            (-D2, QQ - D4 - KAPPA))


def _sqrt_table(p: ParamPoint, left, right):
    """sqrt(left_i / right_j) for i, j in {0, 1}."""
    return [[p.at((l - r).half()) for r in right] for l in left]


class PairFactors:
    """What the weights of one partition sum share at its point p: the 12
    square-root monomials, and for each (slot, partition) the 10 factors
    that depend on that partition alone (4 matter factors on each side and
    the diagonal vector factor).  Build one per sum; it keeps every
    partition the sum visits."""

    def __init__(self, p: ParamPoint):
        u, v, w = _spectral_vectors()
        self.p = p
        self.uv = _sqrt_table(p, u, v)
        self.vw = _sqrt_table(p, v, w)
        self.vv = _sqrt_table(p, v, v)
        self._single = {}

    def single(self, slot: int, lam: Partition):
        """(matter, diagonal vector) factor of `lam` as lambda_(slot+1)."""
        key = (slot, lam)
        got = self._single.get(key)
        if got is None:
            p, empty = self.p, Partition()
            matter = product(
                factor for i in range(2)
                for factor in (nek_orb((slot - i) % 2, 2, empty, lam, self.uv[i][slot], p),
                               nek_orb((i - slot) % 2, 2, lam, empty, self.vw[slot][i], p)))
            diag = nek_orb(0, 2, lam, lam, self.vv[slot][slot], p)
            got = self._single[key] = (matter, diag)
        return got


def pair_weight(p: ParamPoint, pair, factors: PairFactors):
    """Weight of one fixed point (lambda1, lambda2) in the localization sum:
    matter factors over vector-multiplet factors, order-2 orbifold.

    `factors` must be built at p; a sum passes one to all its calls so the
    single-partition factors are computed once.  Only the two off-diagonal
    vector factors depend on the pair."""
    lam1, lam2 = pair
    (num1, den1), (num2, den2) = factors.single(0, lam1), factors.single(1, lam2)
    den = product([den1, den2, nek_orb(1, 2, lam1, lam2, factors.vv[0][1], p),
                   nek_orb(1, 2, lam2, lam1, factors.vv[1][0], p)])
    return quotient(num1 * num2, den, "vector multiplet factor")


def _expansion_monomials(p: ParamPoint):
    """x1 = -m1 x and x2 = -m2 L/x with
    m1 = sqrt(Q d1 d2)/kappa and m2 = sqrt(d3 d4 / (q^2 Q))."""
    return p.at((QQ + D1 + D2).half() - KAPPA), p.at((D3 + D4 - Q - Q - QQ).half())


def z_al(p: ParamPoint, kmax: int, lmax: int) -> ConeSeries:
    """Surface-defect partition function as a ConeSeries in x and Lambda/x.

    A fixed point (lambda1, lambda2) lands on the cell (k, l) =
    (|l1|_o + |l2|_e, |l1|_e + |l2|_o); enumeration depth kmax + lmax
    covers the whole rectangle.  At a point with overrides d2 = q^-m,
    d3 = q^-n only pairs with width(lambda1) <= m and width(lambda2) <= n
    are summed; every other weight is zero.  With v1/w1 = d2 = q^-m the
    matter factor nek_orb(0, 2, lambda1, {}, sqrt(v1/w1)) holds the bracket
    [q^(l_(j+1) - m); q]_(l_j - l_(j+1)), l = lambda1, which meets [1] = 0
    at the last row j longer than m; u1/v2 = q^(n+1) kappa does the same to
    lambda2 beyond n columns.  Each cell is one `dot` of its weights with
    the cell's monomial (-m1)^k (-m2)^l.
    """
    factors = PairFactors(p)
    widths = (p.m, p.n)
    weights = {}
    for total in range(kmax + lmax + 1):
        for pair in enumerate_pairs(total, widths):
            lam1, lam2 = pair
            a = lam1.odd_row_sum + lam2.even_row_sum
            b = lam1.even_row_sum + lam2.odd_row_sum
            if a <= kmax and b <= lmax:
                weights.setdefault((a, b), []).append(pair_weight(p, pair, factors))
    m1, m2 = _expansion_monomials(p)
    out = ConeSeries(kmax, lmax)
    for (a, b), cell in weights.items():
        mono = (-m1) ** a * (-m2) ** b
        out.c[a][b] = dot((wgt, mono) for wgt in cell)
    return out


def z_al_truncated(m: int, n: int, p: ParamPoint, lmax: int):
    """Mass-truncated partition function as components psi_s(Lambda),
    s in [-n, m]; requires overrides d2 = q^-m, d3 = q^-n on the point.

    The components regroup z_al by x-degree s = k - l: a summed pair has
    s in [-width(lambda2), width(lambda1)], inside the window, so the
    rectangle k <= m + lmax, l <= lmax holds every term through Lambda^lmax.
    Returns a list of LambdaSeries indexed by s + n.
    """
    if p.m != m or p.n != n:
        raise QkzError("point must carry overrides matching (m, n)")
    c = z_al(p, m + lmax, lmax).c
    return [LambdaSeries([c[s + b][b] if s + b >= 0 else 0 for b in range(lmax + 1)])
            for s in range(-n, m + 1)]
