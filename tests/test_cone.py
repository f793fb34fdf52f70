import random

import pytest

from qkz.cone import (
    AXIS_L,
    AXIS_LX,
    AXIS_X,
    ConeSeries,
    Stage,
    _borel_stage,
    _double_shift_stage,
    _full_step_stages,
    _hs_stages,
    _k_stages,
    _phi_stage,
    _t_scale,
    apply_full_step,
    coupled_step,
    coupled_transform_point,
    coupling_series,
    solve_shakirov,
)
from qkz.errors import ResonanceError
from qkz.qseries import LambdaSeries, dbl_qt_poch_series
from qkz.rmatrix import expansion_matrices, r_via_linear_system
from qkz.scalars import ParamPoint, Rat, sample_generic_point, shakirov_eigenvalue

from oracles import typed

P = sample_generic_point(1, guard=8)
Q = P.q


def _monomial(k, ell, kmax, lmax, value=1):
    s = ConeSeries(kmax, lmax)
    s.c[k][ell] = value
    return s


def _apply_hs(s, p):
    """H_S applied to the whole series."""
    return s.apply(_hs_stages(p, s.kmax, s.lmax))


def _agree_to_total_order(a, b, order):
    return all(a.c[k][l] == b.c[k][l]
               for k in range(min(a.kmax, order) + 1)
               for l in range(min(a.lmax, order - k) + 1))


def test_borel_examples():
    one = ConeSeries.one(3, 3)
    assert one.borel(Q) == one
    x = _monomial(1, 0, 3, 3)
    assert x.borel(Q).c[1][0] == Q
    lx = _monomial(0, 1, 3, 3)
    assert lx.borel(Q).c[0][1] == 1  # a = -1 gives exponent 0


def test_borel_inverse_is_identity():
    s = ConeSeries(2, 2, [[Rat(1), Rat(2), Rat(3)],
                          [Rat(5), Rat(7), Rat(11)],
                          [Rat(13), Rat(17), Rat(19)]])
    assert s.borel(Q).borel(Q, direction=-1) == s


def test_shift_examples():
    s = _monomial(2, 1, 3, 3, value=Rat(1))  # x^2 (L/x): a=1, l=1
    px = 1 / (Q * P.t * P.Q)
    pl = 1 / P.t
    out = s.shift(px, pl)
    assert out.c[2][1] == px * pl
    assert s.shift(1, 1) == s


def test_commutation_relations():
    # B (x .) = q (x .) shift_x(q) B  on a random series
    s = ConeSeries(3, 3)
    vals = [Rat(3, 5), Rat(2, 7), Rat(1), Rat(4, 9)]
    it = iter(vals * 4)
    for k in range(3):
        for l in range(3):
            s.c[k][l] = next(it)

    def mul_x(series):
        return series.apply([Stage([0, 1], AXIS_X)])

    left = mul_x(s).borel(Q)
    right = mul_x(s.borel(Q).shift(Q, 1)).scale(Q)
    assert left == right


def test_mul_phi_examples():
    one = ConeSeries.one(4, 4)
    assert one.mul_phi(0, Q, AXIS_X) == one
    assert one.mul_phi(Q, Q, AXIS_X).c[1][0] == -Q / (1 - Q)
    prod = one.mul_phi(Rat(2, 3), Q, AXIS_X).mul_phi(Rat(2, 3), Q, AXIS_X, inverted=True)
    assert prod == one


def test_apply_hs_constant_and_first_order():
    h = _apply_hs(ConeSeries.one(4, 4), P)
    assert h.c[0][0] == 1
    assert h.c[1][0] == Q * (1 - P.d1) * (1 - P.d2) / (1 - Q)


@pytest.mark.parametrize("nn", range(-2, 3))
def test_borel_lemma_both_forms(nn):
    alpha, beta = Rat(2, 5), Rat(3, 7)
    one = ConeSeries.one(6, 6)
    lhs = one.mul_phi(alpha, Q, AXIS_X, inverted=True) \
             .mul_phi(beta, Q, AXIS_LX, inverted=True).borel(Q, x_offset=nn)
    rhs = one.mul_phi(-Q ** (1 + nn) * alpha, Q, AXIS_X) \
             .mul_phi(-Q ** (-nn) * beta, Q, AXIS_LX) \
             .mul_phi(alpha * beta, Q, AXIS_L, inverted=True) \
             .scale(Q ** ((nn * (nn + 1)) // 2))
    assert _agree_to_total_order(lhs, rhs, 6)
    lhs2 = one.mul_phi(alpha, Q, AXIS_X).mul_phi(beta, Q, AXIS_LX) \
              .borel(Q, direction=-1, x_offset=nn)
    rhs2 = one.mul_phi(-alpha / Q ** (1 + nn), Q, AXIS_X, inverted=True) \
              .mul_phi(-Q ** nn * beta, Q, AXIS_LX, inverted=True) \
              .mul_phi(alpha * beta / Q, Q, AXIS_L) \
              .scale(Q ** (-(nn * (nn + 1)) // 2))
    assert _agree_to_total_order(lhs2, rhs2, 6)


def test_diagonal_eigenvalue_against_operator():
    # brute-force cross-check of the level-by-level denominators: the
    # coefficient of x^k (L/x)^l in the full-step image of that same monomial
    for k in range(4):
        for l in range(4):
            mono = _monomial(k, l, 4, 4)
            image = apply_full_step(mono, P)
            assert image.c[k][l] == shakirov_eigenvalue(P, k, l)


def test_full_step_only_raises_degrees():
    # soundness of rectangle truncation: the image of a monomial is supported
    # on cells >= (k, l) componentwise
    mono = _monomial(1, 2, 4, 4)
    image = apply_full_step(mono, P)
    for k in range(5):
        for l in range(5):
            if k < 1 or l < 2:
                assert image.c[k][l] == 0


def test_solver_normalization_and_fixed_point():
    psi = solve_shakirov(P, 3, 3)
    assert psi.c[0][0] == 1
    assert apply_full_step(psi, P) == psi


def test_solver_truncation_stability():
    small = solve_shakirov(P, 2, 2)
    large = solve_shakirov(P, 4, 4)
    for k in range(3):
        for l in range(3):
            assert small.c[k][l] == large.c[k][l]


def test_solver_mass_truncated_support():
    p = P.with_overrides(1, 0)
    psi = solve_shakirov(p, 3, 3)
    for k in range(4):
        for l in range(4):
            if not 0 <= k - l <= 1:
                assert psi.c[k][l] == 0


# -- the first theorem: the tuned Hamiltonian acts on the strip by R -------------

THEOREM_ORDER = 4


def _strip_step(p, m, n, seed):
    """(input, image): a series on x^k (Lambda/x)^l, k <= m + L, l <= L at
    L = THEOREM_ORDER, with random rational cells on the strip
    -n <= k - l <= m of window (m, n) and zeros elsewhere, and its full
    step at p."""
    L = THEOREM_ORDER
    rng = random.Random(seed)
    psi = ConeSeries(m + L, L)
    for k in range(m + L + 1):
        for l in range(L + 1):
            if -n <= k - l <= m:
                psi.c[k][l] = Rat(rng.randint(-9, 9), rng.randint(1, 9))
    return psi, apply_full_step(psi, p)


def _off_strip(s, m, n):
    return [(k, l) for k in range(s.kmax + 1) for l in range(s.lmax + 1)
            if not -n <= k - l <= m and s.c[k][l] != 0]


def _component(s, j):
    """psi_j(Lambda): the coefficients of x^j Lambda^b, b <= lmax, which sit
    in cell (j + b, b), with 0 where j + b < 0."""
    return LambdaSeries(s.c[j + b][b] if j + b >= 0 else 0 for b in range(s.lmax + 1))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("window", [(1, 0), (0, 1), (1, 1), (2, 1), (2, 2), (3, 2)])
def test_the_tuned_hamiltonian_acts_on_the_strip_by_r(seed, window):
    # the paper's first theorem as an operator identity: at d2 = q^-m and
    # d3 = q^-n, H_S T^-1_{qtQ,x} T^-1_{t,Lambda} keeps sum_i x^i psi_i(Lambda)
    # on the strip and sends it to sum_j x^j psi'_j(Lambda) with
    # psi'_j(L) = sum_i psi_i(L/t) (qtQ)^-i r_ij(L), through Lambda^L
    m, n = window
    L = THEOREM_ORDER
    p = sample_generic_point(seed, max(8, m + L)).with_overrides(m, n)
    psi, image = _strip_step(p, m, n, seed)
    assert _off_strip(image, m, n) == []
    r = r_via_linear_system(*expansion_matrices(m, n, p.d1, p.d4, LambdaSeries.variable(L), p.q))
    qtQ = p.q * p.t * p.Q
    shifted = [_component(psi, i).shift_variable(1 / p.t) * qtQ ** -i for i in range(-n, m + 1)]
    for jj, j in enumerate(range(-n, m + 1)):
        assert _component(image, j) == sum(
            (row * r[ii, jj] for ii, row in enumerate(shifted)), LambdaSeries.constant(0, L)), j
    assert any(cell != 0 for row in image.c for cell in row)


@pytest.mark.parametrize("window", [(1, 0), (2, 1), (2, 2)])
def test_a_hamiltonian_tuned_to_another_window_leaks_off_the_strip(window):
    # the mutant: tuned to (m + 1, n), the step sends part of the (m, n)
    # strip outside it
    m, n = window
    p = sample_generic_point(1, max(8, m + 1 + THEOREM_ORDER)).with_overrides(m + 1, n)
    _, image = _strip_step(p, m, n, 1)
    assert len(_off_strip(image, m, n)) == 4


def test_solver_resonance_detection():
    # both solvers name the same resonant cell
    for rQ, cell in (
            # lambda_{1,0} = q^2 (qtQ)^-1 = 1 <=> Q = q / t
            (Rat(2) / Rat(3), (1, 0)),
            # lambda_{2,1} = q^2 (qtQ)^-1 t^-1 = 1 <=> Q = q / t^2, met at level 3
            (Rat(2) / Rat(3) ** 2, (2, 1))):
        bad = ParamPoint(Rat(2), Rat(3), rQ, Rat(3, 2), Rat(5, 2), Rat(7, 3), Rat(9, 5))
        assert shakirov_eigenvalue(bad, *cell) == 1
        for solve in (solve_shakirov, _solve_full_rectangle):
            with pytest.raises(ResonanceError, match=rf"\(k, l\) = \({cell[0]}, {cell[1]}\)"):
                solve(bad, 3, 3)


def test_coupled_system_residuals_vanish():
    psi = solve_shakirov(P, 4, 4)
    (psi_again, g_k_chi), (chi, t_g_k_chi) = coupled_step(P, psi)
    assert psi_again is psi
    assert psi == g_k_chi and chi == t_g_k_chi
    assert chi.c[0][0] == 1


def test_coupled_step_applies_each_relation_once(monkeypatch):
    # chi's rescaling, then K and g as one list and T^2, T(K) and T(g) as
    # another: 3 passes over 14 stages, where a separate g pass takes 5
    psi = solve_shakirov(P, 4, 4)
    stages = []
    real = ConeSeries.apply

    def counted(self, pipeline):
        stages.append(len(pipeline))
        return real(self, pipeline)

    monkeypatch.setattr(ConeSeries, "apply", counted)
    coupled_step(P, psi)
    assert stages == [1, 6, 7]


def test_coupled_k_constant_term():
    one = ConeSeries.one(3, 3)
    assert one.apply(_k_stages(P, 3, 3)).c[0][0] == 1
    g, tg = coupling_series(P, 3)
    assert g.coeffs[0] == 1 and tg.coeffs[0] == 1


@pytest.mark.parametrize("seed", range(1, 6))
def test_tg_is_g_at_the_transformed_point(seed):
    # T(g): the parameters of T and Lambda -> sx slx Lambda = d2 d4 L / q
    p = sample_generic_point(seed, guard=8)
    sx, slx = _t_scale(p)
    for order in (1, 3, 4, 6):
        g_at_tp = coupling_series(coupled_transform_point(p), order)[0]
        assert coupling_series(p, order)[1] == g_at_tp.shift_variable(sx * slx)


def test_csv_dump_round_trip():
    psi = solve_shakirov(P, 2, 2)
    text = psi.dump_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "k,l,numerator,denominator"
    assert len(lines) == 1 + 9
    k, l, num, den = lines[1].split(",")
    assert (int(num), int(den)) == (1, 1)


def test_csv_dump_rejects_non_rational_cells():
    # the dump writes rationals only; a jet cell is a TypeError, not a row
    from qkz.scalars import HJet
    s = ConeSeries(1, 1)
    s.c[0][0] = HJet.constant(1, 2)
    with pytest.raises(TypeError):
        s.dump_csv()


# -- oracles: the composites as separate lists of their factors ----------------

ORACLE_POINTS = [(seed, window) for seed in (1, 2, 3)
                 for window in [None, *((m, s - m) for s in range(4) for m in range(s + 1)),
                                (2, 2)]]


def _oracle_point(seed, window):
    p = sample_generic_point(seed, guard=8)
    return p if window is None else p.with_overrides(*window)


def _apply_hs_sandwich(s, p):
    """H_S as one list of factors, right to left."""
    q = p.q
    d1, d2, d3, d4 = p.d1, p.d2, p.d3, p.d4
    out = s.mul_phi(d1 * d2 / q, q, AXIS_X, inverted=True)
    out = out.mul_phi(d3 * d4, q, AXIS_LX, inverted=True)
    out = out.borel(q)
    out = out.mul_phi(1, q, AXIS_L)
    out = out.mul_phi(d1 * d2 * d3 * d4 / q, q, AXIS_L)
    out = out.mul_phi(-d1, q, AXIS_X, inverted=True)
    out = out.mul_phi(-d2, q, AXIS_X, inverted=True)
    out = out.mul_phi(-d3, q, AXIS_LX, inverted=True)
    out = out.mul_phi(-d4, q, AXIS_LX, inverted=True)
    out = out.borel(q)
    out = out.mul_phi(q, q, AXIS_X, inverted=True)
    out = out.mul_phi(1, q, AXIS_LX, inverted=True)
    return out


def _coupling_oracles(p, order):
    """g and T(g), each from its own four double Pochhammer series."""
    q, t = p.q, p.t
    d1, d2, d3, d4 = p.d1, p.d2, p.d3, p.d4

    def ratio(num_args, den_args):
        num = dbl_qt_poch_series(num_args[0], q, t, order) \
            * dbl_qt_poch_series(num_args[1], q, t, order)
        den = dbl_qt_poch_series(den_args[0], q, t, order) \
            * dbl_qt_poch_series(den_args[1], q, t, order)
        return num * den.inverse()

    g = ratio((t * d2 * d4 / q, d1 * d3), (t, t * d1 * d2 * d3 * d4 / q))
    tg = ratio((1, d1 * d2 * d3 * d4 / q), (t * d2 * d4 / q, d1 * d3))
    return g, tg


@pytest.mark.parametrize("seed,window", ORACLE_POINTS)
def test_composites_equal_their_factor_lists(seed, window):
    p = _oracle_point(seed, window)
    for s in (ConeSeries.one(4, 4), solve_shakirov(sample_generic_point(seed, guard=8), 3, 4)):
        assert _apply_hs(s, p).c == _apply_hs_sandwich(s, p).c
    assert coupling_series(p, 4) == _coupling_oracles(p, 4)


# -- oracles: the solver and the stage kernel as first written ------------------

def _solve_full_rectangle(p, kmax, lmax):
    """The level-by-level solver that applies the whole operator to the whole
    rectangle at every level and reads back only that level's cells."""
    psi = ConeSeries.one(kmax, lmax)
    for level in range(1, kmax + lmax + 1):
        image = apply_full_step(psi, p)
        for k in range(kmax + 1):
            ell = level - k
            if not 0 <= ell <= lmax:
                continue
            lam = shakirov_eigenvalue(p, k, ell)
            if lam == 1:
                raise ResonanceError(
                    f"resonant eigenvalue at (k, l) = ({k}, {ell}); resample")
            psi.c[k][ell] = image.c[k][ell] / (1 - lam)
    return psi


@pytest.mark.parametrize("seed", range(1, 7))
def test_one_pass_solver_equals_the_full_rectangle_solver(seed):
    p = sample_generic_point(seed, guard=8)
    for kmax, lmax in ((0, 0), (0, 3), (3, 0), (2, 5), (4, 4), (6, 6)):
        assert solve_shakirov(p, kmax, lmax).c == _solve_full_rectangle(p, kmax, lmax).c


def _scatter_mul_axis(s, coeffs, axis):
    """Multiplication by an axis series, scattering each source cell."""
    dk, dl = axis
    reach = min(top for top, step in zip((s.kmax, s.lmax), axis) if step)
    out = ConeSeries(s.kmax, s.lmax)
    for j, cj in enumerate(coeffs[: reach + 1]):
        for k in range(s.kmax + 1 - j * dk):
            for l in range(s.lmax + 1 - j * dl):
                out.c[k + j * dk][l + j * dl] += cj * s.c[k][l]
    return out


def _random_series(rng, kmax, lmax):
    # about a third of the cells are zero, as on a mass-truncated window
    return ConeSeries(kmax, lmax, [
        [Rat(rng.randint(-9, 9), rng.randint(1, 9)) if rng.random() < 0.7 else 0
         for _ in range(lmax + 1)] for _ in range(kmax + 1)])


@pytest.mark.parametrize("kmax, lmax", [(0, 3), (3, 0), (3, 4), (5, 2)])
def test_stages_equal_their_cell_formulas(kmax, lmax):
    import random

    rng = random.Random(kmax * 10 + lmax)
    s = _random_series(rng, kmax, lmax)
    for axis in (AXIS_X, AXIS_LX, AXIS_L):
        for coeffs in ([0, 1], [Rat(2, 3)] * 9, [Rat(rng.randint(1, 9), 7) for _ in range(3)]):
            assert s.apply([Stage(coeffs, axis)]).c == _scatter_mul_axis(s, coeffs, axis).c
    for direction, offset in ((1, 0), (-1, 2), (1, -1)):
        borel = s.borel(Q, direction, offset)
        shifted = s.shift(Rat(3, 5), Rat(-2, 7))
        for k in range(kmax + 1):
            for l in range(lmax + 1):
                a = k - l + offset
                assert borel.c[k][l] == s.c[k][l] * Q ** (direction * (a * (a + 1) // 2))
                assert shifted.c[k][l] == s.c[k][l] * Rat(3, 5) ** (k - l) * Rat(-2, 7) ** l


# -- oracles: the merged stages and the level cap ---------------------------------

def _tk_stages(p, kmax, lmax):
    """T(K) = 1/(phi(-d2 x) phi(-d4 L/x)) . B . 1/(phi(d1 d2 x/q) phi(d3 d4 L/x)),
    with the substituted constants written out."""
    q = p.q
    return [_phi_stage(p.d1 * p.d2 / q, q, AXIS_X, kmax, lmax, inverted=True),
            _phi_stage(p.d3 * p.d4, q, AXIS_LX, kmax, lmax, inverted=True),
            _borel_stage(q, kmax, lmax),
            _phi_stage(-p.d2, q, AXIS_X, kmax, lmax, inverted=True),
            _phi_stage(-p.d4, q, AXIS_LX, kmax, lmax, inverted=True)]


@pytest.mark.parametrize("seed,window", ORACLE_POINTS)
def test_k_stages_at_the_t_scale_are_the_written_out_tk(seed, window):
    p = _oracle_point(seed, window)
    for kmax, lmax in ((0, 3), (3, 4), (5, 2)):
        got = _k_stages(p, kmax, lmax, _t_scale(p))
        want = _tk_stages(p, kmax, lmax)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.axis == b.axis and typed(a.values) == typed(b.values)


def _unmerged_full_step(p, kmax, lmax):
    """The full step with every factor its own stage: the double shift, the
    five of T(K), phi(L), phi(d1 d2 d3 d4 L/q) and the five of K."""
    q = p.q
    return ([_double_shift_stage(p, kmax, lmax)] + _tk_stages(p, kmax, lmax)
            + [_phi_stage(1, q, AXIS_L, kmax, lmax),
               _phi_stage(p.d1 * p.d2 * p.d3 * p.d4 / q, q, AXIS_L, kmax, lmax)]
            + _k_stages(p, kmax, lmax))


def test_the_full_step_merges_its_same_axis_stages():
    # X.X, LX.LX and L.L between the Borel maps are one stage each
    for stages, count, axis_passes in ((_full_step_stages(P, 4, 4), 10, 7),
                                       (_unmerged_full_step(P, 4, 4), 13, 10)):
        assert len(stages) == count
        assert sum(stage.axis is not None for stage in stages) == axis_passes


@pytest.mark.parametrize("seed,window", ORACLE_POINTS[::3])
def test_merged_full_step_equals_the_unmerged_list(seed, window):
    import random

    p = _oracle_point(seed, window)
    rng = random.Random(seed)
    for kmax, lmax in ((0, 3), (3, 0), (3, 4), (5, 2)):
        s = _random_series(rng, kmax, lmax)
        merged = s.apply(_full_step_stages(p, kmax, lmax))
        assert typed(merged.c) == typed(s.apply(_unmerged_full_step(p, kmax, lmax)).c)


@pytest.mark.parametrize("seed", range(1, 7))
def test_solver_on_the_merged_stages_equals_the_solver_on_the_unmerged(monkeypatch, seed):
    import qkz.cone as cone

    p = sample_generic_point(seed, guard=8)
    shapes = ((0, 0), (0, 3), (3, 0), (2, 5), (4, 4), (6, 6))
    merged = [solve_shakirov(p, kmax, lmax).c for kmax, lmax in shapes]
    monkeypatch.setattr(cone, "_full_step_stages", _unmerged_full_step)
    for (kmax, lmax), got in zip(shapes, merged):
        assert typed(got) == typed(solve_shakirov(p, kmax, lmax).c)


@pytest.mark.parametrize("kmax, lmax", [(0, 3), (3, 0), (3, 4), (6, 6)])
def test_apply_stopped_at_a_level_equals_the_full_apply_below_it(kmax, lmax):
    import random

    rng = random.Random(kmax * 10 + lmax)
    s = _random_series(rng, kmax, lmax)
    for stages in (_full_step_stages(P, kmax, lmax), _k_stages(P, kmax, lmax),
                   [_phi_stage(Rat(2, 3), Q, AXIS_L, kmax, lmax, inverted=True)]):
        full = typed(s.apply(stages).c)
        for top in range(kmax + lmax + 2):
            got = typed(s.apply(stages, top).c)
            for k in range(kmax + 1):
                for l in range(lmax + 1):
                    assert got[k][l] == (full[k][l] if k + l <= top else (int, 0))
