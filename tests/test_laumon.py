import random

import pytest

from qkz import laumon
from qkz.cone import solve_shakirov
from qkz.laumon import (
    PairFactors,
    nek_orb,
    nek_orb_floor,
    pair_weight,
    sqrt_of_monomial,
    total_nekrasov_bracket,
    z_al,
    z_al_truncated,
)
from qkz.partitions import Partition, enumerate_pairs, partitions_of
from qkz.qseries import qbracket_poch
from qkz.scalars import Rat, rat, sample_generic_point

P = sample_generic_point(3, guard=8)
EMPTY = Partition()


def test_empty_pair_is_one():
    for n in (1, 2, 3, 4):
        for k in range(n):
            assert nek_orb(k, n, EMPTY, EMPTY, rat(3, 5), P) == 1
            assert nek_orb_floor(k, n, EMPTY, EMPTY, rat(3, 5), P) == 1
    assert total_nekrasov_bracket(EMPTY, EMPTY, rat(3, 5), P) == 1


def test_single_box_floor_value():
    su = rat(3, 5)
    val = nek_orb_floor(0, 2, Partition((1,)), EMPTY, su, P)
    assert val == 1 / su - su


def test_order_two_single_empty_closed_forms():
    # the order-2 factors with one empty partition reduce to single products
    # over columns with floor-halved lengths
    su = rat(4, 9)
    rq, rt = P.rq, P.rt
    sq = P.sqrt_q
    skap = rt ** -1
    for lam in (Partition((3, 1)), Partition((2, 2, 1)), Partition((5,))):
        lv = lam.transpose()
        want0 = rat(1)
        want1 = rat(1)
        for i in range(1, lam.width + 1):
            want0 = want0 * qbracket_poch(su * sq ** (i - 1), skap ** 2,
                                          (lv.part(i) + 1) // 2)
            want1 = want1 * qbracket_poch(su * sq ** (i - 1) * skap, skap ** 2,
                                          lv.part(i) // 2)
        assert nek_orb(0, 2, lam, EMPTY, su, P) == want0
        assert nek_orb(1, 2, lam, EMPTY, su, P) == want1
        mu = lam
        mv = mu.transpose()
        want0 = rat(1)
        want1 = rat(1)
        for i in range(1, mu.width + 1):
            half = mv.part(i) // 2
            halfu = (mv.part(i) + 1) // 2
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
            total = rat(1)
            for k in range(n):
                a = nek_orb(k, n, lam, mu, su, P)
                assert a == nek_orb_floor(k, n, lam, mu, su, P)
                assert a == nek_orb_floor(k, n, lam, mu, su, P, extra_bound=3)
                total = total * a
            assert total == total_nekrasov_bracket(lam, mu, su, P)


def test_residue_reduction():
    lam, mu = Partition((2, 1)), Partition((1,))
    su = rat(5, 8)
    assert nek_orb(5, 3, lam, mu, su, P) == nek_orb(2, 3, lam, mu, su, P)


def test_z_al_matches_solver():
    za = z_al(P, 3, 3)
    ps = solve_shakirov(P, 3, 3)
    assert za.first_mismatch(ps) is None
    assert za.c[0][0] == 1


def test_pair_weight_cell_bookkeeping():
    # x1-, x2-exponents sum to the pair size, so the depth cutoff is exact;
    # the x-degree is the odd-column count difference of the two diagrams
    from qkz.partitions import enumerate_pairs
    for total in range(4):
        for pair in enumerate_pairs(total):
            lam1, lam2 = pair
            a = lam1.odd_row_sum + lam2.even_row_sum
            b = lam1.even_row_sum + lam2.odd_row_sum
            assert a + b == total
            odd_cols = lambda lam: sum(  # noqa: E731
                1 for j in range(1, lam.width + 1) if lam.transpose().part(j) % 2 == 1)
            assert a - b == odd_cols(lam1) - odd_cols(lam2)
            assert pair_weight(P, pair) is not None


def test_truncated_component_window():
    p = P.with_overrides(1, 0)
    comps = z_al_truncated(1, 0, p, 4)
    assert len(comps) == 2
    assert comps[0].coeffs[0] == 1          # pivot component x^0
    p2 = sample_generic_point(9, guard=8).with_overrides(2, 1)
    comps = z_al_truncated(2, 1, p2, 3)
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
        p = P.replace_roots(rd1=rat(pv, 97))
        d1 = p.d1
        c = z_al(p, 2, 2).c[kl[0]][kl[1]]
        nodes.append((d1, c))
    xs, ys = zip(*nodes)

    def lagrange_eval(xk, yk, x):
        total = rat(0)
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
            su = sqrt_of_monomial(p, laumon._vsub(u[i], v[j]))
            num = num * nek_orb(k, 2, EMPTY, lams[j], su, p)
            sv = sqrt_of_monomial(p, laumon._vsub(v[i], w[j]))
            num = num * nek_orb(k, 2, lams[i], EMPTY, sv, p)
            svv = sqrt_of_monomial(p, laumon._vsub(v[i], v[j]))
            den = den * nek_orb(k, 2, lams[i], lams[j], svv, p)
    return num / den


def _reference_truncated(m, n, p, lmax):
    """z_al_truncated over every pair up to size m + 2 lmax, with the width
    support unused; returns the components and the weight of each pair."""
    m1, m2 = laumon._expansion_monomials(p)
    comps = [[0] * (lmax + 1) for _ in range(m + n + 1)]
    weights = {}
    for total in range(m + 2 * lmax + 1):
        for pair in enumerate_pairs(total):
            lam1, lam2 = pair
            a = lam1.odd_row_sum + lam2.even_row_sum
            b = lam1.even_row_sum + lam2.odd_row_sum
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
    outside = [pair for pair in weights if pair[0].width > m or pair[1].width > n]
    assert outside
    assert all(weights[pair] == 0 for pair in outside)
    pruned = z_al_truncated(m, n, p, lmax)
    assert [list(c.coeffs) for c in pruned] == comps


@pytest.mark.parametrize("overrides", [None, (2, 1)])
def test_shared_factors_equal_twelve_factor_product(overrides):
    p = P if overrides is None else P.with_overrides(*overrides)
    factors = PairFactors(p)
    for total in range(7):
        for pair in enumerate_pairs(total):
            assert pair_weight(p, pair, factors) == _weight_12(p, pair)


# -- work counts: a return to full enumeration or per-pair recomputation fails --

@pytest.fixture
def calls(monkeypatch):
    counts = {"pair_weight": 0, "nek_orb": 0}
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
    z_al_truncated(2, 1, p, lmax)
    assert calls["pair_weight"] == pairs


def test_full_sum_work_count(calls):
    z_al(sample_generic_point(1, guard=8), 4, 4)
    assert calls["nek_orb"] <= 916
