"""The suite registry's expansion of a config into checks, pinned without
running any check: every check is replaced by a stub that echoes its
arguments as the report's ``orders``.  Then a few checks run for real
beyond the acceptance configs: the empty window, higher orders and a sweep
of the windowed suites.  Last, every comparison path is shown able to fail:
each suite under a recorder that doubles one compared value, and the
upstream computations of each check, one at a time."""

import pytest

from qkz.errors import DegenerateParameterError
from qkz.scalars import ONE, is_plain
from qkz.suites import (
    SUITES, Recorder, SuiteConfig, _ALJ_WINDOWS, _execute, _sample_with_retries,
    chk_al_jackson, chk_coupled, chk_dual_qkz, chk_fourd, chk_heine, chk_ito_qkz, chk_nekrasov_3way,
    chk_pentagon, chk_qkz_matrix, chk_rmatrix_3way, chk_shakirov, chk_shuffle, run_suite)

ALJ = "partition sum = lattice sum"

# check names per suite at the default config, seed 1
NAMES = {
    "SHAKIROV_EQ": ["solver = partition sum, seed 1"],
    "RMATRIX_3WAY": ["three realizations agree, seed 1"],
    "QKZ_MATRIX": ["q-KZ window (1,0), seed 1", "q-KZ window (1,1), seed 1",
                   "q-KZ window (2,1), seed 1"],
    "DUAL_QKZ": ["dual q-KZ window (1,0), seed 1", "dual q-KZ window (1,1), seed 1"],
    "ITO_QKZ": ["lattice-sum equations (1,0), seed 1",
                "lattice-sum equations (1,1), seed 1",
                "lattice-sum equations (2,1), seed 1"],
    "COMMUTATIVITY": ["R D2 A = A R D2 at N=0, seed 1", "R D2 A = A R D2 at N=1, seed 1",
                      "R D2 A = A R D2 at N=2, seed 1", "R D2 A = A R D2 at N=3, seed 1",
                      "R D2 A = A R D2 at N=4, seed 1"],
    "AL_EQ_JACKSON": [f"{ALJ} (0,0), seed 1", f"{ALJ} (0,1), seed 1",
                      f"{ALJ} (1,0), seed 1", f"{ALJ} (0,2), seed 1",
                      f"{ALJ} (1,1), seed 1", f"{ALJ} (2,0), seed 1",
                      f"{ALJ} (0,3), seed 1", f"{ALJ} (1,2), seed 1",
                      f"{ALJ} (2,1), seed 1", f"{ALJ} (3,0), seed 1"],
    "NEKRASOV_3WAY": ["orbifolded factor forms, seed 1"],
    "PENTAGON": ["dilogarithm expansion, seed 1"],
    "BAILEY": ["10W9 transformation, seed 1"],
    "SHUFFLE": ["factorized antisymmetrization, seed 1"],
    "COUPLED": ["coupled two-step system, seed 1"],
    "FOURD_LIMIT": ["small-h limit, seed 1"],
    "HEINE_EXAMPLE": ["basic hypergeometric pair, seed 1"],
}

# arguments of the first check at kmax=5, lmax=6, seed 1
FIRST_ARGS = {
    "SHAKIROV_EQ": {"seed": 1, "kmax": 5, "lmax": 6},
    "RMATRIX_3WAY": {"seed": 1},
    "QKZ_MATRIX": {"seed": 1, "m": 1, "n": 0, "lmax": 6},
    "DUAL_QKZ": {"seed": 1, "m": 1, "n": 0, "lmax": 6},
    "ITO_QKZ": {"seed": 1, "m": 1, "n": 0, "lmax": 6},
    "COMMUTATIVITY": {"seed": 1, "N": 0},
    "AL_EQ_JACKSON": {"seed": 1, "m": 0, "n": 0, "lmax": 6},
    "NEKRASOV_3WAY": {"seed": 1},
    "PENTAGON": {"seed": 1},
    "BAILEY": {"seed": 1},
    "SHUFFLE": {"seed": 1},
    "COUPLED": {"seed": 1, "order": 5},
    "FOURD_LIMIT": {"seed": 1, "jet_order": 2},
    "HEINE_EXAMPLE": {"seed": 1, "lmax": 6},
}


# the suite id of each check, to run it as its suite does
SUITE_OF = {spec.check: sid for sid, spec in SUITES.items()}


def _record(check, **kwargs):
    """The report record of one check, run through the suite's own path."""
    return _execute((SUITE_OF[check], kwargs))


def _mismatch(check, **kwargs):
    record = _record(check, **kwargs)
    assert (record["status"] == "pass") == (record["mismatch"] is None), record
    return record["mismatch"]


def _echo(rec, **kwargs):
    rec.orders = kwargs


@pytest.fixture
def expand(monkeypatch):
    monkeypatch.setenv("QKZ_THREADS", "1")
    for sid, spec in SUITES.items():
        monkeypatch.setitem(SUITES, sid, spec._replace(check=_echo))
    return lambda **cfg: [(c["name"], c["orders"])
                          for c in run_suite(SuiteConfig(**cfg))["checks"]]


def test_registry_covers_every_suite():
    assert set(SUITES) == set(NAMES) == set(FIRST_ARGS)


@pytest.mark.parametrize("suite", sorted(NAMES))
def test_registry_expansion_matches_reference(expand, suite):
    assert [name for name, _ in expand(suite=suite, seeds=(1,))] == NAMES[suite]
    assert expand(suite=suite, seeds=(1,), kmax=5, lmax=6)[0][1] == FIRST_ARGS[suite]


def test_registry_window_and_N_overrides(expand):
    assert expand(suite="AL_EQ_JACKSON", seeds=(1,), points=2, m=2, n=1) == [
        (f"{ALJ} (2,1), seed 1", {"seed": 1, "m": 2, "n": 1, "lmax": 4}),
        (f"{ALJ} (2,1), seed 1000004", {"seed": 1000004, "m": 2, "n": 1, "lmax": 4}),
    ]
    assert expand(suite="COMMUTATIVITY", seeds=(1, 5), N=3) == [
        ("R D2 A = A R D2 at N=3, seed 1", {"seed": 1, "N": 3}),
        ("R D2 A = A R D2 at N=3, seed 5", {"seed": 5, "N": 3}),
    ]


# -- real checks outside the acceptance configs -------------------------------

@pytest.mark.parametrize("suite", ["DUAL_QKZ", "ITO_QKZ"])
def test_empty_window_passes(monkeypatch, suite):
    # m + n = 0 makes every Pochhammer product empty; none may turn float
    monkeypatch.setenv("QKZ_THREADS", "1")
    report = run_suite(SuiteConfig(suite=suite, seeds=(1, 2), m=0, n=0, lmax=2))
    assert [c["status"] for c in report["checks"]] == ["pass", "pass"]


@pytest.mark.parametrize("check", [chk_qkz_matrix, chk_al_jackson])
@pytest.mark.parametrize("m,n", [(2, 2), (3, 1)])
def test_lambda_order_5(check, m, n):
    assert _mismatch(check, seed=1, m=m, n=n, lmax=5) is None


@pytest.mark.parametrize("lmax", [1, 2, 3, 4, 5])
def test_al_eq_jackson_at_every_low_lmax(monkeypatch, lmax):
    # the whole default suite at each low lmax: components that vanish
    # through lmax on both sides are not compared, and every check still
    # compares at least one component
    monkeypatch.setenv("QKZ_THREADS", "1")
    report = run_suite(SuiteConfig(suite="AL_EQ_JACKSON", seeds=(1,), lmax=lmax))
    assert [c["name"] for c in report["checks"]] == NAMES["AL_EQ_JACKSON"]
    for check in report["checks"]:
        assert check["status"] == "pass", check["mismatch"]
        assert check["stats"]["nonzero"] > 0, check
        leading = check["info"]["leading_orders"]
        assert any(pair != (None, None) for pair in leading)
        assert all((pair == (None, None)) == (const is None) for pair, const
                   in zip(leading, check["info"]["component_constants"]))


_SWEEP_LMAX = {"QKZ_MATRIX": 5, "ITO_QKZ": 5, "AL_EQ_JACKSON": 5, "DUAL_QKZ": 3}


@pytest.mark.parametrize("suite", sorted(_SWEEP_LMAX))
def test_windowed_suites_run_the_requested_lmax(monkeypatch, suite):
    # every window with m + n <= 3 at every lmax from 1 up, seed 1: each
    # check runs the requested window and lmax, and passes on a comparison
    # with a nonzero side
    monkeypatch.setenv("QKZ_THREADS", "1")
    for lmax in range(1, _SWEEP_LMAX[suite] + 1):
        for m, n in _ALJ_WINDOWS:
            [check] = run_suite(SuiteConfig(suite=suite, seeds=(1,), m=m, n=n,
                                            lmax=lmax))["checks"]
            assert check["status"] == "pass", (lmax, check)
            assert (check["orders"]["m"], check["orders"]["n"]) == (m, n)
            assert check["orders"]["lmax"] == lmax
            assert check["stats"]["nonzero"] > 0, (lmax, check)
            if suite == "AL_EQ_JACKSON":
                # components that vanish through lmax on both sides are not
                # compared, and every check compares at least one component
                leading = check["info"]["leading_orders"]
                assert any(pair != (None, None) for pair in leading)
                assert all((pair == (None, None)) == (const is None) for pair, const
                           in zip(leading, check["info"]["component_constants"]))


@pytest.mark.parametrize("seed", [1, 2])
def test_nekrasov_3way_to_size_16(seed):
    # twice the acceptance max_size: pairs of up to 16 boxes each
    record = _record(chk_nekrasov_3way, seed=seed, pair_count=200, max_size=16)
    assert record["orders"]["max_size"] == 16
    assert record["status"] == "pass", record["mismatch"]


def test_every_nekrasov_3way_comparison_can_fail(monkeypatch):
    # a form that is off by a factor 2 is caught by the comparison it feeds
    from qkz import suites

    for name, key in (("nek_orb_floor", "floor_form"),
                      ("total_nekrasov_bracket", "box_product")):
        real = getattr(suites, name)
        with monkeypatch.context() as patch:
            patch.setattr(suites, name, lambda *args, _real=real: 2 * _real(*args))
            mismatch = _mismatch(chk_nekrasov_3way, seed=1, pair_count=20)
        assert mismatch is not None and key in mismatch, (name, mismatch)


@pytest.mark.parametrize("patched, want", [
    ("r_closed_form", {"vs": "closed"}),
    ("r_hg_matrix", {"vs": "hypergeometric"}),
    ("defining_relation_residuals",
     {"reason": "defining relation residual", "window": [1, 0], "i": 0, "j": 0}),
    ("_display_matrix_2x2", {"vs": "display", "window": [1, 0]}),
])
def test_every_rmatrix_3way_comparison_can_fail(monkeypatch, patched, want):
    # the defining relation S = r T fails alone when all three realizations
    # of r are off by the same entry, so that they still agree
    from qkz import suites

    def broken(real):
        if patched != "defining_relation_residuals":
            return lambda *args: real(*args).scale(2)

        def off_by_one_entry(*args):
            r = real(*args).copy()
            r[0, r.cols - 1] = r[0, r.cols - 1] + 1
            return r
        return off_by_one_entry

    names = (("r_via_linear_system", "r_closed_form", "r_hg_matrix")
             if patched == "defining_relation_residuals" else (patched,))
    for name in names:
        monkeypatch.setattr(suites, name, broken(getattr(suites, name)))
    mismatch = _mismatch(chk_rmatrix_3way, seed=1)
    assert mismatch is not None and want.items() <= mismatch.items(), mismatch


def test_rmatrix_3way_names_paper_indices(monkeypatch):
    # storage row and column 0 of window (2,1) is the paper index -n = -1
    from qkz import suites

    real = suites.r_closed_form

    def broken(m, n, *args):
        r = real(m, n, *args)
        if (m, n) == (2, 1):
            r[0, 0] = r[0, 0] + 1
        return r

    monkeypatch.setattr(suites, "r_closed_form", broken)
    mismatch = _mismatch(chk_rmatrix_3way, seed=1)
    assert mismatch is not None, mismatch
    assert {"window": [2, 1], "vs": "closed", "i": -1, "j": -1}.items() <= mismatch.items()


def test_fourd_limit_fails_at_a_doubled_A1(monkeypatch):
    # the KZ split H_4d - (kappa+1+a) theta = A0 + L A1/(L-1) is compared
    # before the KZ form, and a mismatch names the paper indices of window
    # (2,1), whose first row is i = -1
    from qkz import suites

    real = suites.h4d_matrix

    def broken(mvec, kappa_a, m, n, lam):
        H, A0, A1 = real(mvec, kappa_a, m, n, lam)
        return H, A0, A1.scale(2) if (m, n) == (2, 1) else A1

    monkeypatch.setattr(suites, "h4d_matrix", broken)
    mismatch = _mismatch(chk_fourd, seed=1)
    assert mismatch is not None, mismatch
    assert mismatch["relation"] == "H_4d - (kappa+1+a) theta vs A0 + L A1/(L-1)", mismatch
    assert (mismatch["window"], mismatch["i"], mismatch["j"]) == ([2, 1], -1, -1), mismatch


def test_every_shuffle_comparison_can_fail(monkeypatch):
    # one doubled e_hat_k is caught, and the mismatch names its N and k
    from qkz import suites

    real = suites.matsuo_e
    for N, k in ((1, 0), (3, 2), (4, 4)):
        def broken(a, b, z, q, _N=N, _k=k):
            values = real(a, b, z, q)
            if len(z) == _N:
                values[_k] = 2 * values[_k]
            return values
        with monkeypatch.context() as patch:
            patch.setattr(suites, "matsuo_e", broken)
            mismatch = _mismatch(chk_shuffle, seed=1)
        assert mismatch is not None and (mismatch["N"], mismatch["k"]) == (N, k)


def _doubled_pair(real, which):
    def broken(p, lmax):
        y0, y1, params = real(p, lmax)
        return (2 * y0 if 0 in which else y0), (2 * y1 if 1 in which else y1), params
    return broken


@pytest.mark.parametrize("case", ["cross", "componentwise", "z1", "z2"])
def test_every_heine_comparison_can_fail(monkeypatch, case):
    # a doubled y1 breaks the cross-multiplied pair; doubling both keeps it
    # and breaks the componentwise pair; a doubled M(z1) breaks the z1-shift
    # equation; a doubled pair at the z2-shifted point breaks the z2 shift
    from qkz import rmatrix, suites

    assert _mismatch(chk_heine, seed=1) is None
    if case == "cross":
        monkeypatch.setattr(suites, "heine_solution_pair",
                            _doubled_pair(suites.heine_solution_pair, {1}))
        want = "cross-multiplied pair"
    elif case == "componentwise":
        monkeypatch.setattr(suites, "heine_solution_pair",
                            _doubled_pair(suites.heine_solution_pair, {0, 1}))
        want = "componentwise pair"
    elif case == "z1":
        real_m = rmatrix._dual_m_matrix
        monkeypatch.setattr(rmatrix, "_dual_m_matrix",
                            lambda *args: real_m(*args).scale(2))
        want = "z1-shift"
    else:
        # heine_dual_residuals calls the module's own heine_solution_pair only
        # for the z2-shifted point; the check's own pair comes from suites
        monkeypatch.setattr(rmatrix, "heine_solution_pair",
                            _doubled_pair(rmatrix.heine_solution_pair, {0, 1}))
        want = "z2-shift"
    mismatch = _mismatch(chk_heine, seed=1)
    assert mismatch is not None and mismatch["relation"] == want, mismatch


@pytest.mark.parametrize("check, window, lmax, patched, key", [
    (chk_dual_qkz, (1, 1), 3, "r_closed_form", "k"),
    (chk_qkz_matrix, (2, 1), 4, "r_via_linear_system", "component"),
])
def test_a_doubled_column_is_named_by_its_index(monkeypatch, check, window, lmax, patched,
                                                key):
    # column J of the R-matrix feeds only the residuals of column J, which
    # the report names by its paper index J - n
    from qkz import rmatrix

    m, n = window
    real = getattr(rmatrix, patched)
    for column in range(m + n + 1):
        def broken(*args, _column=column):
            r = real(*args)
            for i in range(r.rows):
                r[i, _column] = 2 * r[i, _column]
            return r
        with monkeypatch.context() as patch:
            patch.setattr(rmatrix, patched, broken)
            mismatch = _mismatch(check, seed=1, m=m, n=n, lmax=lmax)
        assert mismatch is not None and mismatch[key] == column - n, (column, mismatch)


@pytest.mark.parametrize("cell", [(0, 0), (2, 1), (4, 4)])
def test_shakirov_eq_can_fail(monkeypatch, cell):
    # one doubled solver cell is caught, and the mismatch names that cell
    from qkz import suites

    real = suites.solve_shakirov

    def broken(p, kmax, lmax):
        psi = real(p, kmax, lmax)
        psi.c[cell[0]][cell[1]] *= 2
        return psi

    monkeypatch.setattr(suites, "solve_shakirov", broken)
    mismatch = _mismatch(chk_shakirov, seed=1, kmax=4, lmax=4)
    assert mismatch is not None and (mismatch["k"], mismatch["l"]) == cell, mismatch


@pytest.mark.parametrize("doubled, relation", [(0, "psi = g K chi"), (1, "chi = T(g K chi)")])
def test_every_coupled_relation_can_fail(monkeypatch, doubled, relation):
    # doubling g breaks the first relation, doubling T(g) the second
    from qkz import cone

    real = cone.coupling_series

    def broken(p, order):
        pair = list(real(p, order))
        pair[doubled] = pair[doubled] * 2
        return tuple(pair)

    monkeypatch.setattr(cone, "coupling_series", broken)
    mismatch = _mismatch(chk_coupled, seed=1)
    assert mismatch is not None and mismatch["relation"] == relation, mismatch


def _doubled(real):
    return lambda *args: 2 * real(*args)


def _doubled_matrix(real):
    return lambda *args: real(*args).scale(2)


def _plus_unit_matrix(real):
    from qkz.linalg import ScalarMatrix

    return lambda jp, lam: real(jp, lam) + ScalarMatrix.identity(jp.N + 1)


@pytest.mark.parametrize("window", [(1, 0), (1, 1), (2, 1)])
@pytest.mark.parametrize("check, patched, mutate, equation", [
    (chk_qkz_matrix, "rmatrix.r_via_linear_system", _doubled_matrix, None),
    (chk_ito_qkz, "jackson.ito_A", _doubled_matrix, "alpha"),
    # at order 0 the T1 and T2 equations read 0 = psi(0) K(0): doubling K
    # leaves them true, a unit matrix added to D1 (D2) does not
    (chk_ito_qkz, "jackson.d1_matrix", _plus_unit_matrix, "T1"),
    (chk_ito_qkz, "jackson.d2_matrix", _plus_unit_matrix, "T2"),
    (chk_ito_qkz, "jackson.matsuo_leading_constant", _doubled, "Lambda^0"),
])
def test_lmax_1_order_0_comparisons_can_fail(monkeypatch, window, check, patched, mutate,
                                              equation):
    # at lmax 1 these checks compare order 0 alone (checked_through 0)
    import importlib

    m, n = window
    record = _record(check, seed=1, m=m, n=n, lmax=1)
    assert record["orders"]["checked_through"] == 0 and record["status"] == "pass"
    module, name = patched.split(".")
    module = importlib.import_module(f"qkz.{module}")
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    mismatch = _mismatch(check, seed=1, m=m, n=n, lmax=1)
    assert mismatch is not None and mismatch["order"] == 0, mismatch
    assert mismatch.get("equation") == equation, mismatch


@pytest.mark.parametrize("check, window, factor", [
    (chk_dual_qkz, (0, 3), "rmatrix.dual_v_prefactor"),
    (chk_dual_qkz, (1, 2), "rmatrix.dual_v_prefactor"),
    (chk_dual_qkz, (2, 1), "rmatrix.dual_v_prefactor"),
    (chk_dual_qkz, (3, 0), "rmatrix.dual_v_prefactor"),
    (chk_ito_qkz, (0, 3), "jackson.matsuo_leading_constant"),
    (chk_ito_qkz, (3, 0), "jackson.matsuo_leading_constant")])
def test_windows_wider_than_the_order_pass(monkeypatch, check, window, factor):
    # at these windows some Lambda^(j+n) shifts pass the truncation order 1;
    # the pass is not 0 = 0, since a doubled factor breaks the order-0 equation
    import importlib

    m, n = window
    assert _mismatch(check, seed=1, m=m, n=n, lmax=1) is None
    module, name = factor.split(".")
    module = importlib.import_module(f"qkz.{module}")
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: 2 * real(*args))
    mismatch = _mismatch(check, seed=1, m=m, n=n, lmax=1)
    assert mismatch is not None and mismatch["order"] == 0, mismatch


@pytest.mark.parametrize("check, orders", [
    (chk_shakirov, {"kmax": 6, "lmax": 6}), (chk_coupled, {"order": 8})])
def test_cone_suites_above_the_acceptance_orders(check, orders):
    assert _mismatch(check, seed=1, **orders) is None


def test_ito_qkz_window_3_2_at_order_3():
    # AL_EQ_JACKSON runs above its acceptance size in test_lambda_order_5
    assert _mismatch(chk_ito_qkz, seed=1, m=3, n=2, lmax=3) is None


def test_dual_qkz_window_2_2_at_order_4():
    assert _mismatch(chk_dual_qkz, seed=1, m=2, n=2, lmax=4) is None


def test_dual_qkz_window_3_2_at_order_3():
    assert _mismatch(chk_dual_qkz, seed=1, m=3, n=2, lmax=3) is None


def test_rmatrix_3way_solves_each_window_once(monkeypatch):
    # three lambdas times six windows; the display tables reuse (1,0), (2,0),
    # and the solve and the residual share one (S, T): 54 of each at seeds 1-3
    from qkz import suites

    calls = {"expansion_matrices": 0, "r_via_linear_system": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(suites, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(suites, name, counted)
    for seed in (1, 2, 3):
        assert _mismatch(chk_rmatrix_3way, seed=seed) is None
    assert calls == {"expansion_matrices": 54, "r_via_linear_system": 54}


def test_pentagon_builds_its_shared_prefixes_once(monkeypatch):
    # 1/(phi(a x) phi(b L/x)) and phi(a x) phi(b L/x) are built once (4
    # passes), then the main side (1) and the ten Borel pairs (1 + 3 each):
    # 45 one-stage passes, where rebuilding the prefixes per side takes 63
    from qkz.cone import ConeSeries

    stages = []
    real = ConeSeries.apply

    def counted(self, pipeline):
        stages.append(len(pipeline))
        return real(self, pipeline)

    monkeypatch.setattr(ConeSeries, "apply", counted)
    assert _mismatch(chk_pentagon, seed=1) is None
    assert stages == [1] * 45


# -- one mutation test for every suite -------------------------------------------

def _comparisons(task):
    """(left, where) of each comparison with a nonzero side that the check
    of `task` makes, in order, and its record; every side is a plain
    scalar."""
    real = Recorder.compare
    seen = []

    def counted(self, left, right, where, *sides):
        assert is_plain(left) and is_plain(right), (where, left, right)
        if left or right:
            seen.append((self.compared, left, where))
        return real(self, left, right, where, *sides)

    Recorder.compare = counted
    try:
        record = _execute(task)
    finally:
        Recorder.compare = real
    return seen, record


def _with_doubled_left(task, k):
    """The record of `task` when its k-th comparison (counted from 0) sees
    twice its left side, and the number of comparisons made."""
    real = Recorder.compare
    calls = []

    def doubled(self, left, right, where, *sides):
        calls.append(where)
        return real(self, 2 * left if len(calls) == k + 1 else left, right, where, *sides)

    Recorder.compare = doubled
    try:
        return _execute(task), len(calls)
    finally:
        Recorder.compare = real


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_every_suite_fails_at_a_doubled_comparison(suite):
    # mutation testing: the first, middle and last comparison with a nonzero
    # side of each check at seed 1, each doubled in its own run, fails that
    # check at that comparison and nowhere else
    for kwargs in SUITES[suite].args(SuiteConfig(suite=suite, seeds=(1,))):
        task = (suite, {"seed": 1, **kwargs})
        seen, record = _comparisons(task)
        assert record["status"] == "pass" and seen, record
        assert record["stats"]["nonzero"] == len(seen)
        for k, left, where in (seen[i] for i in sorted({0, len(seen) // 2, len(seen) - 1})):
            mutant, calls = _with_doubled_left(task, k)
            assert mutant["status"] == "fail" and calls == k + 1, (k, mutant)
            assert where.items() <= mutant["mismatch"].items(), (k, where, mutant)
            assert str(2 * left) in mutant["mismatch"].values(), (k, left, mutant)
            assert mutant["point"] == record["point"], k


def test_a_mismatch_before_a_degenerate_stage_is_not_retried(monkeypatch):
    # the mismatch stops the attempt, so the degenerate stage after it can
    # start no retry that would throw the mismatch away
    attempts = []

    def check(rec, seed):
        rec.orders = {}

        def attempt(p):
            attempts.append(p)
            rec.compare(ONE, 2 * ONE, {"stage": "first"})
            raise DegenerateParameterError("a later stage is degenerate")

        _sample_with_retries(rec, seed, 8, attempt)

    monkeypatch.setitem(SUITES, "BAILEY", SUITES["BAILEY"]._replace(check=check))
    record = _execute(("BAILEY", {"seed": 1}))
    assert len(attempts) == 1
    assert record["status"] == "fail"
    assert record["mismatch"] == {"stage": "first", "left": "1", "right": "2"}
    assert record["point"] == attempts[0].to_json()
    assert record["stats"] == {"compared": 1, "nonzero": 1}


def test_a_check_that_compares_only_zeros_fails(monkeypatch):
    def check(rec, seed):
        rec.orders = {}
        rec.begin("{}")
        rec.compare(0, ONE * 0, {"at": 0})

    monkeypatch.setitem(SUITES, "BAILEY", SUITES["BAILEY"]._replace(check=check))
    record = _execute(("BAILEY", {"seed": 1}))
    assert record["status"] == "fail"
    assert record["mismatch"] == {"reason": "no compared value is nonzero", "compared": 1}
    assert record["stats"] == {"compared": 1, "nonzero": 0}
