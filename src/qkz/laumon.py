"""Orbifolded Nekrasov factors (row, column/floor and box forms) and the affine
Laumon partition function with its surface-defect expansion variables.

All products are finite.  Monomial square roots needed by the balanced
bracket [u; q]_n live on the fourth-root lattice of ParamPoint; spectral
parameters are lattice Monomials, so their square roots are formed exactly
(Monomial.half rejects an odd exponent).
Each factor lists its brackets [u q^a kappa^e] as runs, in one sweep for
every orbifold order n: residue k keeps those with e = k (mod n).  The three
forms read a `BracketTable`, which computes each bracket of one (sqrt(u),
point) once.  The partition sum takes one residue per factor: `_orb_pair`
reads the row runs with e = k (mod n) from the table of the factor's square
root, one of the 12 tables its `PairFactors` builds, so no bracket is
shared between sums.  Products stay unreduced int pairs until one final
reduction, or none: NEKRASOV_3WAY compares them by cross-multiplication.
"""

from __future__ import annotations

from math import prod

from .cone import ConeSeries
from .errors import DegenerateParameterError
from .partitions import conjugate, enumerate_pairs
from .qseries import LambdaSeries, bracket_parts
from .scalars import Monomial, ParamPoint, Rat, _reduced, dot

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


def _bracket_at(point, key):
    """[u q^a kappa^b] as an unreduced int pair for key = (a, b), at the
    bracket point (un, ud, qn, qd, tn, td): sqrt(u) = un/ud,
    sqrt(q) = rq^2 = qn/qd and rt = tn/td, so sqrt(kappa) = td/tn."""
    un, ud, qn, qd, tn, td = point
    x, y = _scaled(un, ud, qn, qd, key[0])
    return bracket_parts(*_scaled(x, y, td, tn, key[1]))


def _bracket_point(sqrt_u, p: ParamPoint):
    """The ints of sqrt(u), sqrt(q) = rq^2 and rt that `_bracket_at`
    reads."""
    rq, rt = p.rq, p.rt
    return (sqrt_u.numerator, sqrt_u.denominator, rq.numerator ** 2,
            rq.denominator ** 2, rt.numerator, rt.denominator)


class BracketTable(dict):
    """The elementary brackets at one (sqrt(u), point), keyed by (a, b):
    each is computed once, on its first lookup, as an unreduced int pair.
    Every factor form at that (sqrt(u), point) reads the one table, which
    needs no bound; the row and floor forms give a pair per kappa exponent."""

    def __init__(self, sqrt_u, p: ParamPoint):
        super().__init__()
        self.point = _bracket_point(sqrt_u, p)

    def __missing__(self, key):
        got = self[key] = _bracket_at(self.point, key)
        return got

    def rows(self, lam: tuple, mu: tuple):
        """`nek_orb`'s brackets as {kappa exponent e: int pair}."""
        return _kappa_groups(self.__getitem__, (1, 0), _row_runs(lam, mu))

    def floors(self, lam: tuple, mu: tuple):
        """`nek_orb_floor`'s brackets as {kappa exponent e: int pair}."""
        return _kappa_groups(self.__getitem__, (0, 1), _floor_runs(lam, mu))

    def box(self, lam: tuple, mu: tuple):
        """The int pair of the box product, prod_k nek_orb(k | n) for every n."""
        pairs = [self[key] for key in _box_keys(lam, mu)]
        return prod(num for num, _ in pairs), prod(den for _, den in pairs)


def _kappa_groups(bracket, step, runs):
    """The brackets of `runs` as {kappa exponent e: unreduced int pair}: a
    run (e_q, e_kap, n) holds [u q^(e_q + i s_q) kappa^(e_kap + i s_kap)]
    for i < n and step = (s_q, s_kap), each from `bracket((a, b))`."""
    s_q, s_kap = step
    groups = {}
    for e_q, e_kap, n in runs:
        for i in range(n):
            e = e_kap + i * s_kap
            bn, bd = bracket((e_q + i * s_q, e))
            num, den = groups.get(e, (1, 1))
            groups[e] = num * bn, den * bd
    return groups


def residues(groups: dict, n: int):
    """The int pairs of residues k = 0..n-1 of orbifold order n: each the
    product of a form's kappa groups {e: int pair} with e = k (mod n)."""
    nums, dens = [1] * n, [1] * n
    for e, (num, den) in groups.items():
        nums[e % n] *= num
        dens[e % n] *= den
    return list(zip(nums, dens))


def _padded(rows: tuple, size: int):
    """Rows as a 0-based tuple, zero-padded to `size`."""
    return rows + (0,) * (size - len(rows))


def _row_runs(lam: tuple, mu: tuple):
    """The runs of `nek_orb` at every order, stepping q by 1, with kappa
    exponent e = j - i (lambda runs) or e = a - b - 1 (mu runs)."""
    ln, mn = len(lam), len(mu)
    size = ln + mn + 1
    lr, mr = _padded(lam, size), _padded(mu, size)
    runs = []
    for j in range(ln):
        lo = lr[j + 1]
        cnt = lr[j] - lo
        if cnt:
            for i in range(j + 1):
                runs.append((lo - mr[i], j - i, cnt))
    for b in range(mn):
        hi = mr[b]
        cnt = hi - mr[b + 1]
        if cnt:
            for a in range(b + 1):
                runs.append((lr[a] - hi, a - b - 1, cnt))
    return runs


def _floor_runs(lam: tuple, mu: tuple):
    """The runs of `nek_orb_floor` at every order, stepping kappa by 1: for
    i <= j, [u q^(j-i) kappa^(x-mv_i-1)], x in (lv_(j+1), lv_j], and
    [u q^(i-j-1) kappa^(lv_i-x)], x in (mv_(j+1), mv_j]; lv, mv = lam^T, mu^T."""
    lv, mv = conjugate(lam), conjugate(mu)
    size = len(lv) + len(mv) + 1
    lr, mr = _padded(lv, size), _padded(mv, size)
    runs = []
    for j in range(len(lv)):
        hi, lo = lr[j], lr[j + 1]
        if hi != lo:
            runs += [(j - i, lo - m, hi - lo) for i, m in enumerate(mr[:j + 1])]
    for j in range(len(mv)):
        hi, lo = mr[j], mr[j + 1]
        if hi != lo:
            runs += [(i - j - 1, l - hi, hi - lo) for i, l in enumerate(lr[:j + 1])]
    return runs


def _box_keys(lam: tuple, mu: tuple):
    """The bracket keys (a, b) of the bracket-normalized total factor, a
    product over boxes:

        prod_{(i,j) in lam} [u q^(lam_i - j) kappa^(-mu^T_j + i - 1)]
      * prod_{(i,j) in mu}  [u q^(-mu_i + j - 1) kappa^(lam^T_j - i)]

    with [w] = w^(-1/2) - w^(1/2); it equals prod_k nek_orb(k | n) for any n.
    """
    size = len(conjugate(lam)) + len(conjugate(mu))
    lv, mv = _padded(conjugate(lam), size), _padded(conjugate(mu), size)
    keys = [(row - j - 1, i - mv[j]) for i, row in enumerate(lam) for j in range(row)]
    keys += [(j - row, lv[j] - i - 1) for i, row in enumerate(mu) for j in range(row)]
    return keys


def nek_orb(k: int, n: int, lam: tuple, mu: tuple, sqrt_u, p: ParamPoint):
    """Orbifolded Nekrasov factor, row form with base-q brackets:

        prod_{j >= i >= 1, j-i = k mod n}
            [u q^(lam_{j+1} - mu_i) kappa^(j-i); q]_(lam_j - lam_{j+1})
      * prod_{b >= a >= 1, b-a = -k-1 mod n}
            [u q^(lam_a - mu_b) kappa^(a-b-1); q]_(mu_b - mu_{b+1})
    """
    return Rat(*_orb_pair(k, n, lam, mu, BracketTable(sqrt_u, p)))


def _orb_pair(k: int, n: int, lam: tuple, mu: tuple, table: BracketTable):
    """`nek_orb` as an unreduced int pair at the (sqrt(u), point) of `table`:
    the row runs with kappa exponent k (mod n), each bracket from `table`."""
    num = den = 1
    for e_q, e, cnt in _row_runs(lam, mu):
        if (e - k) % n == 0:
            for i in range(cnt):
                bn, bd = table[e_q + i, e]
                num *= bn
                den *= bd
    return num, den


def nek_orb_floor(k: int, n: int, lam: tuple, mu: tuple, sqrt_u, p: ParamPoint):
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
    """
    return Rat(*residues(BracketTable(sqrt_u, p).floors(lam, mu), n)[k % n])


# -- affine Laumon partition function ----------------------------------------

def _spectral_vectors():
    """u1, u2, v1, v2, w1, w2 as lattice monomials:
    u1 = qQ/d3, u2 = kappa q/d1, v1 = 1, v2 = Q/kappa,
    w1 = 1/d2, w2 = Q/(d4 kappa)."""
    return ((Q + QQ - D3, KAPPA + Q - D1), (UNIT, QQ - KAPPA),
            (-D2, QQ - D4 - KAPPA))


def _root_tables(p: ParamPoint, left, right):
    """The bracket tables of sqrt(left_i / right_j) for i, j in {0, 1}."""
    return [[BracketTable(p.at((l - r).half()), p) for r in right] for l in left]


class PairFactors:
    """What the weights of one partition sum share at its point p: one
    `BracketTable` per square-root monomial, 12 in all, for each partition
    its diagonal vector factor, and for each (slot, partition) its 4 matter
    factors over that factor.  Build one per sum; it keeps every partition
    and bracket the sum visits, and shares none with another sum."""

    def __init__(self, p: ParamPoint):
        u, v, w = _spectral_vectors()
        self.uv = _root_tables(p, u, v)
        self.vw = _root_tables(p, v, w)
        self.vv = _root_tables(p, v, v)
        self._single = {}
        self._diagonal = {}

    def single(self, slot: int, lam: tuple):
        """Matter over diagonal vector factor of `lam` as lambda_(slot+1),
        as an unreduced int pair; its second entry is 0 exactly when the
        vector factor vanishes."""
        key = (slot, lam)
        got = self._single.get(key)
        if got is None:
            vector = self._diagonal.get(lam)
            if vector is None:
                # vv[0][0] and vv[1][1] are both sqrt(1): one bracket point
                vector = self._diagonal[lam] = _orb_pair(0, 2, lam, lam, self.vv[0][0])
            # the vector factor divides: its pair enters upside down
            den, num = vector
            for i in range(2):
                for fn, fd in (_orb_pair((slot - i) % 2, 2, (), lam, self.uv[i][slot]),
                               _orb_pair((i - slot) % 2, 2, lam, (), self.vw[slot][i])):
                    num *= fn
                    den *= fd
            got = self._single[key] = (num, den)
        return got


def pair_weight(pair, factors: PairFactors):
    """Weight of one fixed point (lambda1, lambda2) in the localization sum
    at the point of `factors`: matter factors over vector-multiplet factors,
    order-2 orbifold.

    A sum passes one `factors` to all its calls, so the single-partition
    factors are computed once, and each bracket once per table.  Only the
    two off-diagonal vector factors depend on the pair.  The product stays
    an unreduced int pair and is reduced once, into one Rat."""
    lam1, lam2 = pair
    num1, den1 = factors.single(0, lam1)
    num2, den2 = factors.single(1, lam2)
    vv = factors.vv
    n12, d12 = _orb_pair(1, 2, lam1, lam2, vv[0][1])
    n21, d21 = _orb_pair(1, 2, lam2, lam1, vv[1][0])
    den = den1 * den2 * n12 * n21
    if not den:
        raise DegenerateParameterError("vector multiplet factor vanishes")
    return _reduced(num1 * num2 * d12 * d21, den)


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
            a = sum(lam1[0::2]) + sum(lam2[1::2])
            b = sum(lam1[1::2]) + sum(lam2[0::2])
            if a <= kmax and b <= lmax:
                weights.setdefault((a, b), []).append(pair_weight(pair, factors))
    m1, m2 = _expansion_monomials(p)
    out = ConeSeries(kmax, lmax)
    for (a, b), cell in weights.items():
        mono = (-m1) ** a * (-m2) ** b
        out.c[a][b] = dot((wgt, mono) for wgt in cell)
    return out


def z_al_truncated(p: ParamPoint, lmax: int):
    """Mass-truncated partition function as components psi_s(Lambda),
    s in [-n, m] for the window (m, n) of p (d2 = q^-m, d3 = q^-n).

    The components regroup z_al by x-degree s = k - l: a summed pair has
    s in [-width(lambda2), width(lambda1)], inside the window, so the
    rectangle k <= m + lmax, l <= lmax holds every term through Lambda^lmax.
    Returns a list of LambdaSeries indexed by s + n.
    """
    m, n = p.window
    c = z_al(p, m + lmax, lmax).c
    return [LambdaSeries([c[s + b][b] if s + b >= 0 else 0 for b in range(lmax + 1)])
            for s in range(-n, m + 1)]
