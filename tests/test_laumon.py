import random
from collections import Counter
from dataclasses import replace

import pytest

from qkz import laumon
from qkz.cone import solve_shakirov
from qkz.laumon import (
    BracketTable,
    PairFactors,
    nek_orb,
    nek_orb_floor,
    pair_weight,
    residues,
    z_al,
    z_al_truncated,
)
from qkz.errors import DegenerateParameterError
from qkz.partitions import conjugate, enumerate_pairs, partitions_of
from qkz.qseries import qbracket_poch
from qkz.rmatrix import coulomb_shifted_point
from qkz.scalars import ONE, Rat, quotient, sample_generic_point
from qkz.suites import _execute

P = sample_generic_point(3, guard=8)
EMPTY = ()


def _part(lam, i):
    """Row length lambda_i, 1-based; zero beyond the diagram."""
    return lam[i - 1] if 1 <= i <= len(lam) else 0


def _boxes(lam):
    """(i, j) cells, 1-based."""
    return [(i, j) for i, row in enumerate(lam, start=1) for j in range(1, row + 1)]


def _box(lam, mu, su, p):
    """The box product, as a Rat, from a fresh table at (su, p)."""
    return Rat(*BracketTable(su, p).box(lam, mu))


def test_empty_pair_is_one():
    for n in (1, 2, 3, 4):
        for k in range(n):
            assert nek_orb(k, n, EMPTY, EMPTY, Rat(3, 5), P) == 1
            assert nek_orb_floor(k, n, EMPTY, EMPTY, Rat(3, 5), P) == 1
    assert _box(EMPTY, EMPTY, Rat(3, 5), P) == 1


def test_single_box_floor_value():
    su = Rat(3, 5)
    val = nek_orb_floor(0, 2, (1,), EMPTY, su, P)
    assert val == 1 / su - su


def test_order_two_single_empty_closed_forms():
    # the order-2 factors with one empty partition reduce to single products
    # over columns with floor-halved lengths
    su = Rat(4, 9)
    rq, rt = P.rq, P.rt
    sq = rq ** 2
    skap = rt ** -1
    for lam in ((3, 1), (2, 2, 1), (5,)):
        lv = conjugate(lam)
        want0 = Rat(1)
        want1 = Rat(1)
        for i in range(1, len(lv) + 1):
            want0 = want0 * qbracket_poch(su * sq ** (i - 1), skap ** 2,
                                          (_part(lv, i) + 1) // 2)
            want1 = want1 * qbracket_poch(su * sq ** (i - 1) * skap, skap ** 2,
                                          _part(lv, i) // 2)
        assert nek_orb(0, 2, lam, EMPTY, su, P) == want0
        assert nek_orb(1, 2, lam, EMPTY, su, P) == want1
        mu = lam
        mv = conjugate(mu)
        want0 = Rat(1)
        want1 = Rat(1)
        for i in range(1, len(mv) + 1):
            half = _part(mv, i) // 2
            halfu = (_part(mv, i) + 1) // 2
            want0 = want0 * qbracket_poch(su * sq ** (-i) * skap ** (-2 * half),
                                          skap ** 2, half)
            want1 = want1 * qbracket_poch(su * sq ** (-i) * skap ** (1 - 2 * halfu),
                                          skap ** 2, halfu)
        assert nek_orb(0, 2, EMPTY, mu, su, P) == want0
        assert nek_orb(1, 2, EMPTY, mu, su, P) == want1


def test_three_way_agreement_random():
    rng = random.Random(7)
    for _ in range(40):
        lam = rng.choice(partitions_of(rng.randint(0, 6)))
        mu = rng.choice(partitions_of(rng.randint(0, 6)))
        su = Rat(rng.randint(2, 20), rng.randint(2, 20))
        for n in (2, 3, 4):
            total = Rat(1)
            for k in range(n):
                a = nek_orb(k, n, lam, mu, su, P)
                assert a == nek_orb_floor(k, n, lam, mu, su, P)
                assert a == _nek_orb_floor_slow(k, n, lam, mu, su, P, extra_bound=3)
                total = total * a
            assert total == _box(lam, mu, su, P)


def test_residue_reduction():
    lam, mu = (2, 1), (1,)
    su = Rat(5, 8)
    assert nek_orb(5, 3, lam, mu, su, P) == nek_orb(2, 3, lam, mu, su, P)


def test_z_al_matches_solver():
    za = z_al(P, 3, 3)
    ps = solve_shakirov(P, 3, 3)
    assert za == ps
    assert za.c[0][0] == 1


def test_pair_weight_cell_bookkeeping():
    # x1-, x2-exponents sum to the pair size, so the depth cutoff is exact;
    # the x-degree is the odd-column count difference of the two diagrams
    factors = PairFactors(P)
    for total in range(4):
        for pair in enumerate_pairs(total):
            lam1, lam2 = pair
            a = sum(lam1[0::2]) + sum(lam2[1::2])
            b = sum(lam1[1::2]) + sum(lam2[0::2])
            assert a + b == total
            odd_cols = lambda lam: sum(1 for col in conjugate(lam) if col % 2 == 1)  # noqa: E731
            assert a - b == odd_cols(lam1) - odd_cols(lam2)
            assert pair_weight(pair, factors) is not None


def test_truncated_component_window():
    p = P.with_overrides(1, 0)
    comps = z_al_truncated(p, 4)
    assert len(comps) == 2
    assert comps[0].coeffs[0] == 1          # pivot component x^0
    p2 = sample_generic_point(9, guard=8).with_overrides(2, 1)
    comps = z_al_truncated(p2, 3)
    assert len(comps) == 4
    # components with negative x-degree vanish at Lambda^0
    assert comps[0].coeffs[0] == 0
    assert comps[1].coeffs[0] == 1


def test_z_al_coefficients_polynomial_in_d1():
    # interpolate c_{k,l}(d1) from 5 nodes, then predict a 6th point
    kl = (1, 1)
    degree_bound = 4
    nodes = []
    for pv in (2, 3, 5, 7, 11, 13):
        p = replace(P, rd1=Rat(pv, 97))
        d1 = p.d1
        c = z_al(p, 2, 2).c[kl[0]][kl[1]]
        nodes.append((d1, c))
    xs, ys = zip(*nodes)

    def lagrange_eval(xk, yk, x):
        total = Rat(0)
        for i in range(len(xk)):
            term = yk[i]
            for j in range(len(xk)):
                if i != j:
                    term = term * (x - xk[j]) / (xk[i] - xk[j])
            total = total + term
        return total

    assert degree_bound + 1 <= 5
    predicted = lagrange_eval(xs[:5], ys[:5], xs[5])
    assert predicted == ys[5]


# -- the Nekrasov factors one Rat operation at a time, kept as oracles ----------

def _bracket_slow(sqrt_u, sqrt_q, n):
    """[u; q]_n as the product of [v] = 1/sqrt(v) - sqrt(v) over v = u q^i."""
    out = ONE
    for i in range(n):
        sv = sqrt_u * sqrt_q ** i
        out = out * (1 / sv - sv)
    return out


def _nek_orb_slow(k, n, lam, mu, sqrt_u, p):
    k = k % n
    rq, rt = p.rq, p.rt
    out = ONE
    for j in range(1, len(lam) + 1):
        cnt = _part(lam, j) - _part(lam, j + 1)
        if cnt == 0:
            continue
        for i in range(1, j + 1):
            if (j - i) % n != k:
                continue
            e_q = _part(lam, j + 1) - _part(mu, i)
            sqrt_arg = sqrt_u * rq ** (2 * e_q) * rt ** (-(j - i))
            out = out * _bracket_slow(sqrt_arg, rq ** 2, cnt)
    for b in range(1, len(mu) + 1):
        cnt = _part(mu, b) - _part(mu, b + 1)
        if cnt == 0:
            continue
        for a in range(1, b + 1):
            if (b - a + k + 1) % n != 0:
                continue
            e_q = _part(lam, a) - _part(mu, b)
            sqrt_arg = sqrt_u * rq ** (2 * e_q) * rt ** (-(a - b - 1))
            out = out * _bracket_slow(sqrt_arg, rq ** 2, cnt)
    return out


def _nek_orb_floor_slow(k, n, lam, mu, sqrt_u, p, extra_bound=0):
    k = k % n
    lv, mv = conjugate(lam), conjugate(mu)
    rq, rt = p.rq, p.rt
    sqrt_base = rt ** (-n)
    out = ONE
    for j in range(1, len(lv) + extra_bound + 1):
        hi, lo = _part(lv, j), _part(lv, j + 1)
        for i in range(1, j + 1):
            r1 = _part(mv, i) % n
            c1 = (hi + n - 1 - k - r1) // n - (lo + n - 1 - k - r1) // n
            # an added row lies past the diagram (hi = lo = 0): its floors cancel
            assert j <= len(lv) or c1 == 0, (j, i, c1)
            if c1 <= 0:
                continue
            e_kap = lo - _part(mv, i) + (k - lo + _part(mv, i)) % n
            sqrt_arg = sqrt_u * rq ** (2 * (j - i)) * rt ** (-e_kap)
            out = out * _bracket_slow(sqrt_arg, sqrt_base, c1)
    for j in range(1, len(mv) + extra_bound + 1):
        hi, lo = _part(mv, j), _part(mv, j + 1)
        for i in range(1, j + 1):
            r4 = (-_part(lv, i)) % n
            c2 = (hi + k + r4) // n - (lo + k + r4) // n
            assert j <= len(mv) or c2 == 0, (j, i, c2)
            if c2 <= 0:
                continue
            e_kap = _part(lv, i) - hi + (k - _part(lv, i) + hi) % n
            sqrt_arg = sqrt_u * rq ** (2 * (i - j - 1)) * rt ** (-e_kap)
            out = out * _bracket_slow(sqrt_arg, sqrt_base, c2)
    return out


def _total_nekrasov_bracket_slow(lam, mu, sqrt_u, p):
    rq, rt = p.rq, p.rt
    lv, mv = conjugate(lam), conjugate(mu)
    out = ONE
    for i, j in _boxes(lam):
        sqrt_w = sqrt_u * rq ** (2 * (_part(lam, i) - j)) * rt ** (-(-_part(mv, j) + i - 1))
        out = out * (1 / sqrt_w - sqrt_w)
    for i, j in _boxes(mu):
        sqrt_w = sqrt_u * rq ** (2 * (-_part(mu, i) + j - 1)) * rt ** (-(_part(lv, j) - i))
        out = out * (1 / sqrt_w - sqrt_w)
    return out


# rows of equal length give cnt = 0 in the row form; an empty or short
# partition against a long one gives negative q- and kappa-exponents
FIXED_PAIRS = [(EMPTY, (3, 2, 2)), ((2, 2, 1), EMPTY), ((1, 1, 1, 1), (4, 4)),
               ((5, 3, 3), (2, 2, 2, 1))]


def _random_pairs(seed, count, max_size=8):
    rng = random.Random(seed)
    return [(rng.choice(partitions_of(rng.randint(0, max_size))),
             rng.choice(partitions_of(rng.randint(0, max_size)))) for _ in range(count)]


@pytest.mark.parametrize("sqrt_u", [Rat(4, 9), Rat(-7, 3), 3, Rat(1, 5)],
                         ids=["generic", "negative", "integer", "unit-numerator"])
def test_nekrasov_forms_equal_their_slow_forms(sqrt_u):
    for lam, mu in FIXED_PAIRS + _random_pairs(11, 60):
        for n in (1, 2, 3, 4):
            for k in range(n):
                want = _nek_orb_slow(k, n, lam, mu, sqrt_u, P)
                assert nek_orb(k, n, lam, mu, sqrt_u, P) == want
                assert _nek_orb_floor_slow(k, n, lam, mu, sqrt_u, P) == want
                assert nek_orb_floor(k, n, lam, mu, sqrt_u, P) == want
                assert _nek_orb_floor_slow(k, n, lam, mu, sqrt_u, P, extra_bound=2) == want
        assert _box(lam, mu, sqrt_u, P) == _total_nekrasov_bracket_slow(lam, mu, sqrt_u, P)


def test_matter_factor_meets_the_zero_bracket():
    # at d2 = q^-2, sqrt(v1/w1) = q^-1 and lambda1 = (3, 1) wider than m = 2
    # reaches the bracket [q^-1; q]_2 = [q^-1][1] = 0
    p = P.with_overrides(2, 1)
    _, v, w = laumon._spectral_vectors()
    su = p.at((v[0] - w[0]).half())
    wide, narrow = (3, 1), (2, 1)
    assert _nek_orb_slow(0, 2, wide, EMPTY, su, p) == 0
    assert nek_orb(0, 2, wide, EMPTY, su, p) == 0
    assert nek_orb_floor(0, 2, wide, EMPTY, su, p) == 0
    assert nek_orb(0, 2, narrow, EMPTY, su, p) == _nek_orb_slow(0, 2, narrow, EMPTY, su, p) != 0


@pytest.mark.parametrize("form", [
    pytest.param(lambda lam, mu, su: nek_orb(0, 2, lam, mu, su, P), id="row"),
    pytest.param(lambda lam, mu, su: nek_orb_floor(1, 3, lam, mu, su, P), id="floor"),
    pytest.param(lambda lam, mu, su: _box(lam, mu, su, P), id="box"),
])
@pytest.mark.parametrize("sqrt_u", [0, Rat(0)])
def test_zero_sqrt_u_is_a_degenerate_point(form, sqrt_u):
    # each form raises at a fresh table, and again after a good sqrt_u
    # filled a table of its own at the same pair
    lam, mu = (2, 1), (1,)
    with pytest.raises(DegenerateParameterError):
        form(lam, mu, sqrt_u)
    assert form(lam, mu, Rat(3, 5)) != 0
    with pytest.raises(DegenerateParameterError):
        form(lam, mu, sqrt_u)


# -- the bracket table: its point, its cold and warm values --------------------

def _three_forms(table, lam, mu, su, p):
    """Each form at every k of orders 2 and 3, read from `table` at (su, p),
    against its slow oracle."""
    for n in (2, 3):
        for k in range(n):
            yield (Rat(*laumon._orb_pair(k, n, lam, mu, table)),
                   _nek_orb_slow(k, n, lam, mu, su, p))
            yield (Rat(*residues(table.floors(lam, mu), n)[k]),
                   _nek_orb_floor_slow(k, n, lam, mu, su, p))
    yield Rat(*table.box(lam, mu)), _total_nekrasov_bracket_slow(lam, mu, su, p)


def test_memo_cold_and_warm_values_are_identical(monkeypatch):
    # one table, read cold and then warm: the cold read evaluates each of
    # its brackets once, the warm read none, and both give the oracle's values
    evaluated = []
    real = laumon._bracket_at
    monkeypatch.setattr(laumon, "_bracket_at",
                        lambda point, key: evaluated.append(key) or real(point, key))
    su = Rat(4, 9)
    for lam, mu in FIXED_PAIRS + _random_pairs(5, 6):
        table = BracketTable(su, P)
        evaluated.clear()
        cold = list(_three_forms(table, lam, mu, su, P))
        assert sorted(evaluated) == sorted(table)
        evaluated.clear()
        warm = list(_three_forms(table, lam, mu, su, P))
        assert not evaluated
        assert cold == warm
        assert all(got == want for got, want in cold)


@pytest.mark.parametrize("root", ["rt", "rq"])
def test_memo_key_holds_the_whole_point(root):
    # the same sqrt_u at two points that differ in one root: a table that
    # dropped that root would hand the second point the first point's brackets
    su = Rat(4, 9)
    other = replace(P, **{root: getattr(P, root) * Rat(5, 3)})
    for lam, mu in FIXED_PAIRS:
        for p in (P, other):
            table = BracketTable(su, p)
            assert all(got == want for got, want in _three_forms(table, lam, mu, su, p))


def test_spectral_monomials_are_pinned():
    # exponent vectors over (rq, rt, rQ, rd1, rd2, rd3, rd4)
    assert laumon._spectral_vectors() == (
        ((4, 0, 4, 0, 0, -4, 0), (4, -2, 0, -4, 0, 0, 0)),
        ((0, 0, 0, 0, 0, 0, 0), (0, 2, 4, 0, 0, 0, 0)),
        ((0, 0, 0, 0, -4, 0, 0), (0, 2, 4, 0, 0, 0, -4)))
    m1, m2 = laumon._expansion_monomials(P)
    assert m1 == (P.rt * P.rQ * P.rd1 * P.rd2) ** 2
    assert m2 == (P.rd3 * P.rd4 / (P.rq ** 2 * P.rQ)) ** 2


def test_nekrasov_3way_bracket_count(monkeypatch):
    # one table per trial: 1465 elementary brackets evaluated for the 3,800
    # factors of seed 1, 1327 of them distinct: two trials draw one
    # sqrt(u), and each trial's table evaluates its brackets again
    evaluated = []
    real = laumon._bracket_at
    monkeypatch.setattr(laumon, "_bracket_at",
                        lambda point, key: evaluated.append((point, key)) or real(point, key))
    assert _execute(("NEKRASOV_3WAY", {"seed": 1}))["status"] == "pass"
    assert len(evaluated) == 1465
    assert len(set(evaluated)) == 1327


def test_nekrasov_3way_lookup_count(monkeypatch):
    # each trial looks up each form's brackets once, whatever the orbifold
    # orders: the row, floor and box forms each hold |lam| + |mu| brackets,
    # 1558 per form over the 200 trials of seed 1
    lookups = []
    real = BracketTable.__getitem__
    monkeypatch.setattr(BracketTable, "__getitem__",
                        lambda table, key: lookups.append(key) or real(table, key))
    assert _execute(("NEKRASOV_3WAY", {"seed": 1}))["status"] == "pass"
    assert len(lookups) == 3 * 1558 == 4674


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_every_residue_of_a_sweep_equals_its_slow_form(n):
    # one table and one sweep per form give the kappa groups of every
    # order: residue k of order n multiplies the groups with e = k (mod n),
    # and a k >= n reads the residue k mod n, as the slow forms do
    su = Rat(5, 7)
    for lam, mu in FIXED_PAIRS + _random_pairs(13, 40):
        table = BracketTable(su, P)
        row_groups, floor_groups = table.rows(lam, mu), table.floors(lam, mu)
        rows, floors = residues(row_groups, n), residues(floor_groups, n)
        assert len(rows) == len(floors) == n
        for k in range(2 * n + 1):
            want = _nek_orb_slow(k, n, lam, mu, su, P)
            assert Rat(*rows[k % n]) == want == nek_orb(k, n, lam, mu, su, P)
            assert Rat(*floors[k % n]) == _nek_orb_floor_slow(k, n, lam, mu, su, P) == want
            assert nek_orb_floor(k, n, lam, mu, su, P) == want
        box = Rat(*table.box(lam, mu))
        # the product of all row groups is the whole factor, which at n = 1
        # is the single residue
        total = Rat(*residues(row_groups, 1)[0])
        assert total == _total_nekrasov_bracket_slow(lam, mu, su, P) == box
        if n == 1:
            assert Rat(*rows[0]) == Rat(*floors[0]) == box


@pytest.mark.parametrize("sqrt_u", [0, Rat(0)])
def test_a_table_at_a_zero_sqrt_u_raises_and_stores_nothing(sqrt_u):
    table = BracketTable(sqrt_u, P)
    for form in (lambda: table.rows((2, 1), (1,)), lambda: table.floors((2, 1), (1,)),
                 lambda: table.box((2, 1), (1,))):
        with pytest.raises(DegenerateParameterError):
            form()
    assert not table


def _residue_bins(runs, k, n):
    """The kappa exponents of floor runs (e_q, e, cnt), which step kappa by
    1 from e, binned by residue: per run, (e_q, the first exponent that is
    k (mod n), how many are), or nothing when none is."""
    for e_q, e, cnt in runs:
        hits = [x for x in range(e, e + cnt) if (x - k) % n == 0]
        if hits:
            yield e_q, hits[0], len(hits)


def test_residue_bins_equal_the_floor_differences():
    # a floor run holds the kappa exponents x - m - 1 (lambda side, m = mv_i)
    # or m - x (mu side, m = lv_i) for x in (lo, hi]; its part with e = k
    # (mod n) starts at nek_orb_floor's l0 (l0') and has length c1 (c2),
    # for every residue k, and is absent when that length is 0
    for n in range(1, 6):
        for hi in range(1, 13):
            for lo in range(hi):
                for k in range(n):
                    for m in range(13):
                        r1, r4 = m % n, -m % n
                        c1 = (hi + n - 1 - k - r1) // n - (lo + n - 1 - k - r1) // n
                        c2 = (hi + k + r4) // n - (lo + k + r4) // n
                        where = (lo, hi, n, k, m)
                        got = list(_residue_bins([(0, lo - m, hi - lo)], k, n))
                        assert got == ([(0, lo - m + (k - lo + m) % n, c1)] if c1 else []), where
                        got = list(_residue_bins([(0, m - hi, hi - lo)], k, n))
                        assert got == ([(0, m - hi + (k - m + hi) % n, c2)] if c2 else []), where
    # and `_floor_runs` of whole diagrams bins into exactly nek_orb_floor's
    # products, one [u q^(j-i) ...]_c1 and one [u q^(i-j-1) ...]_c2 per i <= j
    for lam, mu in FIXED_PAIRS + _random_pairs(17, 30):
        lv, mv = conjugate(lam), conjugate(mu)
        for n in range(1, 6):
            for k in range(n):
                want = []
                for j in range(1, len(lv) + 1):
                    hi, lo = _part(lv, j), _part(lv, j + 1)
                    for i in range(1, j + 1):
                        m = _part(mv, i)
                        r1 = m % n
                        c1 = (hi + n - 1 - k - r1) // n - (lo + n - 1 - k - r1) // n
                        if c1:
                            want.append((j - i, lo - m + (k - lo + m) % n, c1))
                for j in range(1, len(mv) + 1):
                    hi, lo = _part(mv, j), _part(mv, j + 1)
                    for i in range(1, j + 1):
                        l = _part(lv, i)
                        r4 = -l % n
                        c2 = (hi + k + r4) // n - (lo + k + r4) // n
                        if c2:
                            want.append((i - j - 1, l - hi + (k - l + hi) % n, c2))
                got = _residue_bins(laumon._floor_runs(lam, mu), k, n)
                assert sorted(got) == sorted(want), (lam, mu, n, k)


def _run_keys(runs, step):
    """The bracket keys (a, e) of runs (e_q, e_kap, n), each stepping (a, e)
    by `step` from (e_q, e_kap), as `_kappa_groups` reads them."""
    s_q, s_kap = step
    return Counter((e_q + i * s_q, e_kap + i * s_kap) for e_q, e_kap, n in runs for i in range(n))


def _pairs_up_to(size):
    diagrams = [lam for k in range(size + 1) for lam in partitions_of(k)]
    return [(lam, mu) for lam in diagrams for mu in diagrams]


def test_the_three_factor_forms_list_one_multiset_of_bracket_keys():
    # each form is a product of brackets [u q^a kappa^e] from one table, and
    # residue k of order n keeps those with e = k (mod n): one multiset of
    # keys (a, e) makes the forms agree at every point, u, n and k.  These
    # are all the pairs NEKRASOV_3WAY draws (|lambda|, |mu| <= 8).
    pairs = _pairs_up_to(8)
    assert len(pairs) == 4489
    for lam, mu in pairs:
        box = Counter(laumon._box_keys(lam, mu))
        assert _run_keys(laumon._row_runs(lam, mu), (1, 0)) == box, (lam, mu)
        assert _run_keys(laumon._floor_runs(lam, mu), (0, 1)) == box, (lam, mu)


def test_a_floor_run_moved_by_one_in_kappa_lists_other_keys():
    # the comparison can fail: with its first floor run's kappa start moved
    # by 1, every pair that has a floor run lists other keys than the box
    moved = 0
    for lam, mu in _pairs_up_to(4):
        runs = laumon._floor_runs(lam, mu)
        if runs:
            (e_q, e, n), *rest = runs
            got = _run_keys([(e_q, e + 1, n), *rest], (0, 1))
            assert got != Counter(laumon._box_keys(lam, mu)), (lam, mu)
            moved += 1
    assert moved == 143


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("m, n, lmax", [(1, 0, 6), (2, 1, 6), (2, 2, 6), (3, 3, 4)])
def test_the_truncated_equation_holds_on_its_strip(seed, m, n, lmax):
    # the paper's truncated Hamiltonian acts on finite Laurent polynomials:
    # at a point tuned to the window (m, n) the solver equals the pruned
    # partition sum on the (m + lmax) x lmax rectangle, and both vanish off
    # the strip -n <= k - l <= m, on which no cell vanishes at these points
    p = sample_generic_point(seed, max(8, m + lmax)).with_overrides(m, n)
    solved, summed = solve_shakirov(p, m + lmax, lmax), z_al(p, m + lmax, lmax)
    for k in range(m + lmax + 1):
        for l in range(lmax + 1):
            assert solved.c[k][l] == summed.c[k][l], (k, l)
            assert (summed.c[k][l] != 0) == (-n <= k - l <= m), (k, l)


# -- slow forms of the partition sum, kept as oracles ---------------------------

def _weight_12(p, pair):
    """pair_weight as twelve nek_orb calls with nothing shared: eight matter
    factors over four vector factors."""
    u, v, w = laumon._spectral_vectors()
    lams = pair
    num = 1
    den = 1
    for i in range(2):
        for j in range(2):
            k = (j - i) % 2
            su = p.at((u[i] - v[j]).half())
            num = num * nek_orb(k, 2, EMPTY, lams[j], su, p)
            sv = p.at((v[i] - w[j]).half())
            num = num * nek_orb(k, 2, lams[i], EMPTY, sv, p)
            svv = p.at((v[i] - v[j]).half())
            den = den * nek_orb(k, 2, lams[i], lams[j], svv, p)
    return quotient(num, den, "vector multiplet factor")


def _reference_truncated(m, n, p, lmax):
    """z_al_truncated over every pair up to size m + 2 lmax, with the width
    support unused; returns the components and the weight of each pair."""
    m1, m2 = laumon._expansion_monomials(p)
    comps = [[0] * (lmax + 1) for _ in range(m + n + 1)]
    weights = {}
    for total in range(m + 2 * lmax + 1):
        for pair in enumerate_pairs(total):
            lam1, lam2 = pair
            a = sum(lam1[0::2]) + sum(lam2[1::2])
            b = sum(lam1[1::2]) + sum(lam2[0::2])
            if b > lmax:
                continue
            wgt = weights[pair] = _weight_12(p, pair)
            if wgt != 0:
                comps[a - b + n][b] += wgt * (-m1) ** a * (-m2) ** b
    return comps, weights


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("m,n", [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2)])
def test_truncated_sum_equals_full_enumeration(seed, m, n):
    # lmax = 3 visits every pair that lmax = 1 and 2 visit
    lmax = 3
    p = sample_generic_point(seed, guard=8).with_overrides(m, n)
    comps, weights = _reference_truncated(m, n, p, lmax)
    outside = [pair for pair in weights
               if len(conjugate(pair[0])) > m or len(conjugate(pair[1])) > n]
    assert outside
    assert all(weights[pair] == 0 for pair in outside)
    pruned = z_al_truncated(p, lmax)
    assert [list(c.coeffs) for c in pruned] == comps


def _truncated_loop(m, n, p, lmax):
    """z_al_truncated as its own pair loop over the width-pruned pairs."""
    m1, m2 = laumon._expansion_monomials(p)
    factors = PairFactors(p)
    comps = [[0] * (lmax + 1) for _ in range(m + n + 1)]
    for total in range(m + 2 * lmax + 1):
        for pair in enumerate_pairs(total, (m, n)):
            lam1, lam2 = pair
            a = sum(lam1[0::2]) + sum(lam2[1::2])
            b = sum(lam1[1::2]) + sum(lam2[0::2])
            if b > lmax:
                continue
            wgt = pair_weight(pair, factors)
            comps[a - b + n][b] = comps[a - b + n][b] + wgt * (-m1) ** a * (-m2) ** b
    return comps


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("m,n", [(m, s - m) for s in range(4) for m in range(s + 1)] + [(2, 2)])
def test_truncated_sum_equals_its_pair_loop(seed, m, n):
    p = sample_generic_point(seed, guard=8).with_overrides(m, n)
    for lmax in (1, 3):
        assert [list(c.coeffs) for c in z_al_truncated(p, lmax)] \
            == _truncated_loop(m, n, p, lmax)


@pytest.mark.parametrize("overrides", [None, (2, 1)])
def test_shared_factors_equal_twelve_factor_product(overrides):
    p = P if overrides is None else P.with_overrides(*overrides)
    factors = PairFactors(p)
    for total in range(7):
        for pair in enumerate_pairs(total):
            assert pair_weight(pair, factors) == _weight_12(p, pair)


def _weights_against_the_oracle(p, size):
    """Every pair weight up to `size` boxes at p, each equal to `_weight_12`."""
    factors = PairFactors(p)
    weights = []
    for total in range(size + 1):
        for pair in enumerate_pairs(total):
            weights.append(pair_weight(pair, factors))
            assert weights[-1] == _weight_12(p, pair), (p, pair)
    return weights


@pytest.mark.parametrize("points", [
    [coulomb_shifted_point(P.with_overrides(2, 1), 1)],
    [P.with_overrides(2, 1), P.with_overrides(1, 2)]])
def test_vector_memo_cold_and_warm_weights_equal_the_oracle(points):
    # two windows of one seed differ in d2 and d3 alone, and share their
    # vector factors' square roots; each sum reads its own tables, so the
    # sums at its points, run in either order, give the oracle's weights
    forward = [_weights_against_the_oracle(p, 5) for p in points]
    backward = [_weights_against_the_oracle(p, 5) for p in reversed(points)]
    assert forward == backward[::-1]


def test_vector_memo_key_holds_rQ():
    # a table that dropped rQ would hand the second point the first
    # point's off-diagonal factors
    other = replace(P, rQ=P.rQ * Rat(5, 3))
    pairs = [pair for total in range(1, 5) for pair in enumerate_pairs(total)]
    factors = [PairFactors(p) for p in (P, other)]
    for lam1, lam2 in pairs:
        first, second = (Rat(*laumon._orb_pair(1, 2, lam1, lam2, f.vv[0][1]))
                         * Rat(*laumon._orb_pair(1, 2, lam2, lam1, f.vv[1][0]))
                         for f in factors)
        assert first != second, (lam1, lam2)
    for p, f in zip((P, other), factors):
        assert all(pair_weight(pair, f) == _weight_12(p, pair) for pair in pairs)


@pytest.mark.parametrize("rQ", [P.rq, P.rq / P.rt])
def test_vanishing_vector_factor_raises_as_the_oracle_does(rQ):
    # at Q = q and at Q = q/t an off-diagonal vector factor meets the
    # zero bracket; the fused weight raises where the twelve-factor product
    # does, with the same error, and agrees with it everywhere else
    p = replace(P, rQ=rQ)
    factors = PairFactors(p)
    raised = 0
    for total in range(5):
        for pair in enumerate_pairs(total):
            try:
                want = _weight_12(p, pair)
            except DegenerateParameterError as exc:
                with pytest.raises(DegenerateParameterError) as got:
                    pair_weight(pair, factors)
                assert str(got.value) == str(exc) == "vector multiplet factor vanishes"
                raised += 1
            else:
                assert pair_weight(pair, factors) == want
    assert raised


# -- work counts: a return to full enumeration or per-pair recomputation fails --

@pytest.fixture
def calls(monkeypatch):
    counts = {"pair_weight": 0, "_orb_pair": 0, "_bracket_at": 0}
    for name in counts:
        fn = getattr(laumon, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(laumon, name, counted)
    return counts


@pytest.mark.parametrize("lmax,pairs", [(3, 70), (4, 125)])
def test_truncated_sum_work_count(calls, lmax, pairs):
    p = sample_generic_point(1, guard=8).with_overrides(2, 1)
    z_al_truncated(p, lmax)
    assert calls["pair_weight"] == pairs


def test_full_sum_work_count(calls):
    # the row-form kernel behind every factor of the sum: 4 matter factors
    # per (slot, partition), 76 of them, one diagonal vector factor per
    # partition, 38 of them, and two off-diagonal factors per pair, 268 of them
    z_al(sample_generic_point(1, guard=8), 4, 4)
    assert calls["_orb_pair"] == 4 * 76 + 38 + 2 * 268 == 878


def test_qkz_matrix_check_work_count(calls):
    # one QKZ_MATRIX check, window (2,1), seed 1, lmax 4 (its sides built
    # through Lambda^3): the row-form kernel calls and bracket evaluations
    # that the README quotes
    from qkz.suites import _execute

    assert _execute(("QKZ_MATRIX", {"seed": 1, "m": 2, "n": 1, "lmax": 4}))["status"] == "pass"
    assert (calls["_orb_pair"], calls["_bracket_at"]) == (278, 79)


def test_bracket_points_are_built_once_per_sum(monkeypatch):
    # the 12 square roots of one PairFactors each become a bracket table,
    # with its bracket point, once, and no partition the sum visits builds
    # another
    built = []
    real = laumon._bracket_point
    monkeypatch.setattr(laumon, "_bracket_point",
                        lambda *args: built.append(args) or real(*args))
    z_al(sample_generic_point(1, guard=8), 4, 4)
    assert len(built) == 12
