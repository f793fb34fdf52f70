"""The suite registry's expansion of a config into checks, pinned without
running any check: every check is replaced by a stub that echoes its
arguments as the report's ``orders``.  Then a few checks run for real
beyond the acceptance configs: the empty window, higher orders and a sweep
of the windowed suites.  Last, every comparison path is shown able to fail:
each suite under a recorder that doubles one compared value, and the
upstream computations of each check, one at a time."""

import json

import pytest

from qkz.cone import ConeSeries
from qkz.errors import DegenerateParameterError
from qkz.linalg import ScalarMatrix
from qkz.qseries import LambdaSeries
from qkz.scalars import (ONE, Rat, coprime_base, exponent_vector, is_plain, quotient,
                         sample_generic_point)
from qkz import suites
from qkz.suites import (
    SUITES, Recorder, SuiteConfig, _ALJ_WINDOWS, _Mismatch, _coefficients, _execute,
    _sample_point, chk_al_jackson, chk_coupled, chk_dual_qkz, chk_fourd, chk_heine, chk_ito_qkz,
    chk_nekrasov_3way, chk_pentagon, chk_qkz_matrix, chk_rmatrix_3way, chk_shakirov, chk_shuffle,
    run_suite, suite_tasks)

from oracles import typed

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

# arguments of the first check at seed 1, with kmax=5 and lmax=6 where the
# suite reads them
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
    "COUPLED": {"seed": 1, "kmax": 5, "lmax": 6},
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
    orders = {k: v for k, v in {"kmax": 5, "lmax": 6}.items() if k in SUITES[suite].limits}
    assert expand(suite=suite, seeds=(1,), **orders)[0][1] == FIRST_ARGS[suite]


@pytest.mark.usefixtures("expand")
@pytest.mark.parametrize("suite", sorted(NAMES))
def test_report_config_is_what_the_checks_read(suite):
    # the suite, its seeds, and the options the suite's row bounds:
    # no option it does not read, and nothing about where or how the
    # report is written (the checks are stubs)
    # and each option the run leaves unset at its row's acceptance value, or
    # None where the row sweeps it
    spec = SUITES[suite]
    report = run_suite(SuiteConfig(suite=suite, seeds=(1,)))
    config = report["config"]
    assert set(config) == {"suite", "seeds", *spec.limits}
    swept = {opt: None for entry in spec.sweep for opt in entry}
    assert config == {"suite": suite, "seeds": [1], **swept, **spec.acceptance}


@pytest.mark.parametrize("suite", sorted(NAMES))
def test_a_default_config_is_the_acceptance_config(suite):
    assert SuiteConfig(suite=suite) == SuiteConfig(suite=suite, **SUITES[suite].acceptance)


@pytest.mark.parametrize("suite", sorted(NAMES))
def test_every_bounded_option_has_one_source(suite):
    # an option the row bounds takes its value from the row's acceptance
    # options or from its sweep, never from both and never from neither
    spec = SUITES[suite]
    swept = {opt for entry in spec.sweep for opt in entry}
    assert sorted([*swept, *spec.acceptance]) == sorted(spec.limits)


def test_registry_window_and_N_overrides(expand):
    # an override leaves the other options at their acceptance values
    assert expand(suite="AL_EQ_JACKSON", seeds=(1,), m=2, n=1) == [
        (f"{ALJ} (2,1), seed 1", {"seed": 1, "m": 2, "n": 1, "lmax": 3})]
    assert expand(suite="COMMUTATIVITY", seeds=(1, 5), N=3) == [
        ("R D2 A = A R D2 at N=3, seed 1", {"seed": 1, "N": 3}),
        ("R D2 A = A R D2 at N=3, seed 5", {"seed": 5, "N": 3}),
    ]


@pytest.mark.parametrize("suite", sorted(NAMES))
def test_registry_rows_sweep_only_their_bounded_unset_options(suite):
    # a sweep entry sets options the row bounds, within their bounds, and
    # only options that are unset by default (else the sweep never runs);
    # no two entries are the same check
    spec = SUITES[suite]
    default = SuiteConfig(suite=suite).options()
    for entry in spec.sweep:
        for opt, value in entry.items():
            assert opt in spec.limits and default[opt] is None, (opt, entry)
            lo, hi = spec.limits[opt]
            assert lo <= value <= hi, (opt, entry)
    assert len({tuple(sorted(entry.items())) for entry in spec.sweep}) == len(spec.sweep)


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


@pytest.mark.parametrize("check, m, n, lmax", [
    (chk_al_jackson, 0, 4, 5), (chk_al_jackson, 1, 3, 5), (chk_al_jackson, 4, 0, 5),
    (chk_qkz_matrix, 2, 1, 7)])
def test_larger_windows_and_orders(check, m, n, lmax):
    # with test_lambda_order_5: every AL_EQ_JACKSON window with m + n = 4
    # at lmax 5, and QKZ_MATRIX on its largest default window at lmax 7
    record = _record(check, seed=1, m=m, n=n, lmax=lmax)
    assert record["status"] == "pass", record["mismatch"]
    assert record["orders"]["lmax"] == lmax


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


class _UnitTable:
    """A stand-in for the bracket table whose every form is 1 = 1/1: the
    row and floor forms have no kappa group, so each residue is 1/1."""

    def __init__(self, drawn, su, p):
        drawn.append((su, p))

    def rows(self, lam, mu):
        return {}

    floors = rows

    def box(self, lam, mu):
        return 1, 1


def test_nekrasov_3way_never_draws_the_unit_spectral_value(monkeypatch):
    # at u = q^a kappa^b the bracket [u q^-a kappa^-b] = [1] is 0, and a
    # product comparison of zero factors cannot fail: no trial at seeds 1-24
    # draws such a u with |a|, |b| <= 2 max_size + 4 = 20 (u = 1 included).
    # The bracket table is a stub that records (sqrt(u), point), so no
    # factor is evaluated
    from qkz import suites

    drawn = []
    monkeypatch.setattr(suites, "BracketTable", lambda su, p: _UnitTable(drawn, su, p))
    span = range(-20, 21)
    tables = 0
    for seed in range(1, 25):
        drawn.clear()
        assert _mismatch(chk_nekrasov_3way, seed=seed) is None
        tables += len(drawn)
        p = sample_generic_point(seed, 8)
        assert all(at is p for _, at in drawn)  # the sampler is memoized
        values = {su for su, _ in drawn}
        assert 1 not in values
        # su^2 = q^a kappa^b = rq^(4a) rt^(-2b) iff v_su = 2a v_rq - b v_rt,
        # over one coprime base of the roots and of every p/s the draw gives
        base = coprime_base([*range(2, 31), p.rq, p.rt])
        vq, vt = exponent_vector(p.rq, base), exponent_vector(p.rt, base)
        lattice = {tuple(2 * a * x - b * y for x, y in zip(vq, vt)) for a in span for b in span}
        assert not [su for su in values if exponent_vector(su, base) in lattice]
    # one table per trial, which gives every form at orders 2, 3 and 4
    assert tables == 24 * 200


def test_every_nekrasov_3way_comparison_can_fail(monkeypatch):
    # a form that is off by a factor 2 is caught by the comparison it feeds
    from qkz.laumon import BracketTable

    def doubled(pair):
        return 2 * pair[0], pair[1]

    real_floors, real_box = BracketTable.floors, BracketTable.box
    for name, key, broken in (
            ("floors", "floor_form",
             lambda *args: {e: doubled(f) for e, f in real_floors(*args).items()}),
            ("box", "box_product", lambda *args: doubled(real_box(*args)))):
        with monkeypatch.context() as patch:
            patch.setattr(BracketTable, name, broken)
            mismatch = _mismatch(chk_nekrasov_3way, seed=1, pair_count=20)
        assert mismatch is not None and key in mismatch, (name, mismatch)


def test_a_passing_nekrasov_3way_run_reduces_no_factor(monkeypatch):
    # every comparison of seed 1 is one cross-multiplication of int pairs:
    # no factor becomes a Rat, and `compare`, which takes Rats, is not called
    from qkz import laumon

    def no_rat(*args):
        raise AssertionError(f"a Rat was built from {args}")

    calls = {"compare": 0, "compare_fractions": 0}
    for name in calls:
        real = getattr(Recorder, name)

        def counted(self, *args, _real=real, _name=name):
            calls[_name] += 1
            return _real(self, *args)
        monkeypatch.setattr(Recorder, name, counted)
    monkeypatch.setattr(laumon, "Rat", no_rat)
    record = _record(chk_nekrasov_3way, seed=1)
    assert record["status"] == "pass", record
    assert record["stats"] == {"compared": 2400, "nonzero": 2400}
    assert calls == {"compare": 0, "compare_fractions": 2400}


# -- the cross-multiplied comparison of int pairs -------------------------------

def test_equal_fractions_in_different_forms_pass_and_count_once():
    rec = Recorder()
    for left, right in (((2, 4), (-3, -6)), ((6, 8), (3, 4)), ((-10, 4), (5, -2)),
                        ((2 ** 90, 3 ** 40 * 2 ** 90), (1, 3 ** 40))):
        before = rec.compared
        rec.compare_fractions(left, right, {})
        assert rec.compared == rec.nonzero == before + 1


def test_unequal_fractions_fail_with_reduced_strings():
    rec = Recorder()
    with pytest.raises(_Mismatch) as got:
        rec.compare_fractions((4, 6), (-6, -8), {"n": 2}, ("row_form", "floor_form"))
    assert got.value.args[0] == {"n": 2, "row_form": "2/3", "floor_form": "3/4"}
    with pytest.raises(_Mismatch) as got:
        rec.compare_fractions((0, 5), (1, -1), {})
    assert got.value.args[0] == {"left": "0", "right": "-1"}
    assert rec.compared == rec.nonzero == 2


def test_zero_numerators_count_as_compared_but_not_nonzero():
    rec = Recorder()
    rec.compare_fractions((0, 7), (0, -3), {})
    assert (rec.compared, rec.nonzero) == (1, 0)


@pytest.mark.parametrize("left, right", [((1, 0), (1, 1)), ((1, 1), (1, 0)),
                                         ((0, 0), (0, 0)), ((3, 0), (5, 0))])
def test_a_zero_denominator_raises_and_is_not_counted(left, right):
    # a d == c b holds for any c/d when b = 0 and a = 0, so it cannot pass
    rec = Recorder()
    with pytest.raises(ValueError):
        rec.compare_fractions(left, right, {})
    assert (rec.compared, rec.nonzero) == (0, 0)


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
    mismatch = _mismatch(chk_fourd, seed=1, jet_order=2)
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

    assert _mismatch(chk_heine, seed=1, lmax=4) is None
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
    mismatch = _mismatch(chk_heine, seed=1, lmax=4)
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
    for kmax, lmax in ((4, 4), (4, 6)):
        mismatch = _mismatch(chk_coupled, seed=1, kmax=kmax, lmax=lmax)
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
    (chk_shakirov, {"kmax": 6, "lmax": 6}), (chk_coupled, {"kmax": 8, "lmax": 8}),
    (chk_coupled, {"kmax": 4, "lmax": 6}),
    (chk_shakirov, {"kmax": 4, "lmax": 12}), (chk_shakirov, {"kmax": 12, "lmax": 4})])
def test_cone_suites_above_the_acceptance_orders(check, orders):
    assert _mismatch(check, seed=1, **orders) is None


def test_ito_qkz_window_3_2_at_order_3():
    # AL_EQ_JACKSON runs above its acceptance size in test_lambda_order_5
    assert _mismatch(chk_ito_qkz, seed=1, m=3, n=2, lmax=3) is None


def test_ito_qkz_and_qkz_matrix_also_hold_at_order_lmax():
    # both checks build and compare through lmax - 1; the identities hold
    # one order higher too, at the checks' own points: 135 ITO_QKZ pairs
    # at order 3 and 45 QKZ_MATRIX pairs at order 4
    from qkz.jackson import JacksonParams, ito_qkz_check
    from qkz.rmatrix import qkz_residual
    from qkz.suites import _rng_rationals

    pairs = {"ito": [], "qkz": []}
    for seed in range(1, 6):
        for m, n in ((1, 0), (1, 1), (2, 1)):
            p = sample_generic_point(seed, guard=8).with_overrides(m, n)
            jp = JacksonParams.from_point(p, _rng_rationals(seed + 17, 1)[0])
            for name, (left, right) in ito_qkz_check(jp, 3).items():
                if name != "Lambda^0":
                    pairs["ito"] += [(_coefficients(a, 3)[3], _coefficients(b, 3)[3])
                                     for a, b in zip(left, right)]
            pairs["qkz"] += [(_coefficients(a, 4)[4], _coefficients(b, 4)[4])
                             for a, b in zip(*qkz_residual(p, 4))]
    for name, count in (("ito", 135), ("qkz", 45)):
        assert len(pairs[name]) == count
        assert all(a == b for a, b in pairs[name])
        assert sum(a != 0 for a, _ in pairs[name]) > count // 2


def _sides(built, order):
    """Coefficients 0..order, typed, of every entry of the two sides of each
    equation in `built`: {name: (left, right)}."""
    return {name: [typed([list(_coefficients(x, order)) for x in side]) for side in sides]
            for name, sides in built.items()}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("m,n", [(1, 0), (0, 1), (1, 1), (2, 1), (2, 2)])
def test_qkz_and_ito_sides_are_causal_in_lambda(seed, m, n):
    # the oracle of building both checks at their compared order: the
    # coefficients 0..L of each side built at order L equal, in value and
    # type, those of the same side built at L + 1.  An entry may be an int 0
    # at order L and a series at L + 1; its coefficients through L agree.
    from qkz.jackson import JacksonParams, ito_qkz_check
    from qkz.rmatrix import qkz_residual
    from qkz.suites import _rng_rationals

    p = sample_generic_point(seed, guard=8).with_overrides(m, n)
    jp = JacksonParams.from_point(p, _rng_rationals(seed + 17, 1)[0])

    def built(order):
        return {"q-KZ": qkz_residual(p, order), **ito_qkz_check(jp, order)}

    higher = built(1)
    for order in (1, 2, 3):
        lower, higher = higher, built(order + 1)
        assert all(x.order == order for sides in lower.values() for side in sides
                   for x in side if isinstance(x, LambdaSeries))
        assert _sides(lower, order) == _sides(higher, order), order


@pytest.mark.parametrize("check, builder", [(chk_qkz_matrix, "qkz_residual"),
                                            (chk_ito_qkz, "ito_qkz_check")])
def test_the_checks_build_their_sides_at_the_compared_order(monkeypatch, check, builder):
    # checked_through is lmax - 1, and LambdaSeries.variable needs order >= 1
    real, orders = getattr(suites, builder), []

    def spy(point, lmax):
        orders.append(lmax)
        return real(point, lmax)

    monkeypatch.setattr(suites, builder, spy)
    for lmax in (1, 2, 3, 4):
        record = _record(check, seed=1, m=1, n=0, lmax=lmax)
        assert record["status"] == "pass", record["mismatch"]
        assert record["orders"]["checked_through"] == lmax - 1
    assert orders == [1, 1, 2, 3]


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
    # 45 one-stage passes, where rebuilding the prefixes per side takes 63.
    # Each pass fills the levels k + l <= 6 that the check compares, 28 of
    # the 49 cells, and every compared side is 0 above them
    import qkz.cone as cone
    from qkz.cone import ConeSeries

    stages, levels, sides = [], [], []
    real, real_fill, real_cone = ConeSeries.apply, cone._fill_level, Recorder.cone

    def counted(self, pipeline, top=None):
        stages.append((len(pipeline), top))
        return real(self, pipeline, top)

    def fill(pipeline, bufs, level):
        levels.append(level)
        return real_fill(pipeline, bufs, level)

    def compared(self, left, right, order, *rest):
        sides.extend((left, right))
        return real_cone(self, left, right, order, *rest)

    monkeypatch.setattr(ConeSeries, "apply", counted)
    monkeypatch.setattr(cone, "_fill_level", fill)
    monkeypatch.setattr(Recorder, "cone", compared)
    assert _mismatch(chk_pentagon, seed=1) is None
    assert stages == [(1, 6)] * 45
    assert levels == list(range(7)) * 45
    assert len(sides) == 22
    for side in sides:
        above = [side.c[k][l] for k in range(7) for l in range(7) if k + l > 6]
        assert len(above) == 21 and all(v == 0 for v in above)


# -- one mutation test for every suite -------------------------------------------

def _comparisons(task):
    """(left, where) of each comparison with a nonzero side that the check
    of `task` makes, in order, and its record; every side is a plain
    scalar, or an int pair for `compare_fractions`, whose left side is
    given as its Rat."""
    real, real_fractions = Recorder.compare, Recorder.compare_fractions
    seen = []

    def counted(self, left, right, where, *sides):
        assert is_plain(left) and is_plain(right), (where, left, right)
        if left or right:
            seen.append((self.compared, left, where))
        return real(self, left, right, where, *sides)

    def counted_fractions(self, left, right, where, *sides):
        assert all(type(x) is int for x in (*left, *right)), (where, left, right)
        if left[0] or right[0]:
            seen.append((self.compared, Rat(*left), where))
        return real_fractions(self, left, right, where, *sides)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Recorder, "compare", counted)
        patch.setattr(Recorder, "compare_fractions", counted_fractions)
        return seen, _execute(task)


def _tasks_at_lmax_4(suite):
    """The checks at seed 1 of the suite's default config, at lmax 4 where
    the suite reads it: above the acceptance lmax 3 of DUAL_QKZ, ITO_QKZ and
    AL_EQ_JACKSON."""
    orders = {"lmax": 4} if "lmax" in SUITES[suite].limits else {}
    return suite_tasks(SuiteConfig(suite=suite, seeds=(1,), **orders))


def _with_doubled_left(task, k):
    """The record of `task` when its k-th comparison (counted from 0) sees
    twice its left side, and the number of comparisons made."""
    real, real_fractions = Recorder.compare, Recorder.compare_fractions
    calls = []

    def doubled(self, left, right, where, *sides):
        calls.append(where)
        return real(self, 2 * left if len(calls) == k + 1 else left, right, where, *sides)

    def doubled_fractions(self, left, right, where, *sides):
        calls.append(where)
        if len(calls) == k + 1:
            left = 2 * left[0], left[1]
        return real_fractions(self, left, right, where, *sides)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Recorder, "compare", doubled)
        patch.setattr(Recorder, "compare_fractions", doubled_fractions)
        return _execute(task), len(calls)


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_every_suite_fails_at_a_doubled_comparison(suite):
    # mutation testing: the first, middle and last comparison with a nonzero
    # side of each check at seed 1, each doubled in its own run, fails that
    # check at that comparison and nowhere else
    for task in _tasks_at_lmax_4(suite):
        seen, record = _comparisons(task)
        assert record["status"] == "pass" and seen, record
        assert record["stats"]["nonzero"] == len(seen)
        for k, left, where in (seen[i] for i in sorted({0, len(seen) // 2, len(seen) - 1})):
            mutant, calls = _with_doubled_left(task, k)
            assert mutant["status"] == "fail" and calls == k + 1, (k, mutant)
            assert where.items() <= mutant["mismatch"].items(), (k, where, mutant)
            assert str(2 * left) in mutant["mismatch"].values(), (k, left, mutant)
            assert mutant["point"] == record["point"], k


def _sampled_points(monkeypatch):
    """The points `sample_generic_point` returns to the checks, in order."""
    real, points = suites.sample_generic_point, []

    def sampled(*args):
        points.append(real(*args))
        return points[-1]

    monkeypatch.setattr(suites, "sample_generic_point", sampled)
    return points


# the suites whose checks sample a ParamPoint; the others begin a point of
# their own rationals
SAMPLING = set(SUITES) - {"BAILEY", "SHUFFLE", "FOURD_LIMIT"}


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_no_check_moves_past_a_degenerate_point(monkeypatch, suite):
    # a point that is degenerate as soon as it is begun fails every check of
    # the suite there, and the report names the point and the exception; a
    # check of a sampling suite samples that one point and no other
    points = _sampled_points(monkeypatch)
    begun, real_begin = [], Recorder.begin

    def degenerate_begin(self, point):
        real_begin(self, point)
        begun.append(point)
        raise DegenerateParameterError("injected")

    monkeypatch.setattr(Recorder, "begin", degenerate_begin)
    for task in _tasks_at_lmax_4(suite):
        points.clear()
        begun.clear()
        record = _execute(task)
        assert record["status"] == "fail" and len(begun) == 1, record
        assert record["mismatch"] == {"type": "DegenerateParameterError", "message": "injected"}
        assert record["point"] == begun[0] and record["orders"] is not None
        assert len(points) == (suite in SAMPLING), record
        if points:
            window = json.loads(begun[0])
            first = points[0] if "m" not in window else points[0].with_overrides(
                window["m"], window["n"])
            assert begun[0] == first.to_json()


def test_a_mismatch_before_a_degenerate_stage_is_not_retried(monkeypatch):
    # the mismatch stops the check, so the degenerate stage after it is
    # never reached, and the report gives the mismatch at the one point
    points = _sampled_points(monkeypatch)

    def check(rec, seed):
        rec.orders = {}
        _sample_point(rec, seed)
        rec.compare(ONE, 2 * ONE, {"stage": "first"})
        raise DegenerateParameterError("a later stage is degenerate")

    record = _stub_record(monkeypatch, check)
    assert len(points) == 1
    assert record["status"] == "fail"
    assert record["mismatch"] == {"stage": "first", "left": "1", "right": "2"}
    assert record["point"] == points[0].to_json()
    assert record["stats"] == {"compared": 1, "nonzero": 1}


def test_a_rejected_point_is_a_retry_of_the_report(monkeypatch):
    # no retry: a degenerate point after a passing comparison fails the
    # check, and the report keeps that point, the orders and the counts
    points = _sampled_points(monkeypatch)

    def check(rec, seed):
        rec.orders = {"lmax": 3}
        _sample_point(rec, seed, window=(1, 0))
        rec.compare(ONE, ONE, {})
        raise DegenerateParameterError("first point is degenerate")

    record = _stub_record(monkeypatch, check)
    assert len(points) == 1 and record["status"] == "fail"
    assert record["point"] == points[0].with_overrides(1, 0).to_json()
    assert record["orders"] == {"lmax": 3}
    assert record["mismatch"] == {"type": "DegenerateParameterError",
                                  "message": "first point is degenerate"}
    assert record["stats"] == {"compared": 1, "nonzero": 1}
    assert "retries" not in record


def test_a_check_that_runs_out_of_points_reports_every_retry(monkeypatch):
    # a check has one point: a vanishing denominator there fails the check
    # at once, which names the point and the exception
    points = _sampled_points(monkeypatch)

    def check(rec, seed):
        rec.orders = {}
        _sample_point(rec, seed)
        quotient(ONE, 0, "the pivot")

    record = _stub_record(monkeypatch, check)
    assert len(points) == 1 and record["status"] == "fail"
    assert record["point"] == points[0].to_json() == sample_generic_point(1, 8).to_json()
    assert record["mismatch"] == {"type": "DegenerateParameterError",
                                  "message": "the pivot vanishes"}
    assert "retries" not in record


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


def _stub_record(monkeypatch, check):
    """The report record of `check`, run in place of BAILEY's check at seed 1."""
    monkeypatch.setitem(SUITES, "BAILEY", SUITES["BAILEY"]._replace(check=check))
    return _execute(("BAILEY", {"seed": 1}))


def _walker_fault(monkeypatch, walk):
    """The record of a check whose one step is `walk(recorder)`."""
    def check(rec, seed):
        rec.orders = {}
        rec.begin("{}")
        walk(rec)

    record = _stub_record(monkeypatch, check)
    assert record["status"] == "error", record
    return record["mismatch"]


def test_a_series_side_that_ends_below_through_is_a_fault(monkeypatch):
    # coefficients 1 and 2 of the left side are unknown, not 0
    mismatch = _walker_fault(monkeypatch, lambda rec: rec.series(
        LambdaSeries([1]), LambdaSeries([1, 0, 5]), 2, {}))
    assert mismatch["type"] == "ValueError", mismatch
    assert mismatch["message"] == "a series of order 0 compared through order 2"


def test_matrices_of_different_shapes_are_a_fault(monkeypatch):
    mismatch = _walker_fault(monkeypatch, lambda rec: rec.matrix(
        ScalarMatrix.identity(2), ScalarMatrix.identity(3), {}))
    assert (mismatch["type"], mismatch["message"]) == ("ValueError", "shape mismatch")


def test_cones_of_different_shapes_are_a_fault(monkeypatch):
    bigger = ConeSeries.one(3, 3)
    bigger.c[3][0] = 7
    mismatch = _walker_fault(monkeypatch, lambda rec: rec.cone(
        ConeSeries.one(2, 2), bigger, 3, {}))
    assert (mismatch["type"], mismatch["message"]) == ("ValueError", "cone shapes differ")


def test_only_a_singular_pivot_chain_moves_to_the_next_seed(monkeypatch):
    # neither solve moves to another point: a non-square solve is a fault of
    # the program, status error; a pivot chain with no invertible pivot is a
    # degenerate point, status fail, and the report names the point and the
    # SingularMatrixError
    def check_with(matrix):
        def check(rec, seed):
            rec.orders = {}
            _sample_point(rec, seed)
            matrix.solve(ScalarMatrix.identity(2))
            rec.compare(ONE, ONE, {})
        return check

    points = _sampled_points(monkeypatch)
    record = _stub_record(monkeypatch, check_with(ScalarMatrix(2, 3, [ONE] * 6)))
    assert len(points) == 1 and record["status"] == "error", record
    assert (record["mismatch"]["type"], record["mismatch"]["message"]) == (
        "ValueError", "solve requires a square matrix")

    points.clear()
    record = _stub_record(monkeypatch, check_with(ScalarMatrix(2, 2, [ONE] * 4)))
    assert len(points) == 1 and record["status"] == "fail", record
    assert record["point"] == points[0].to_json()
    assert record["mismatch"] == {"type": "SingularMatrixError",
                                  "message": "no invertible pivot in column 1"}
    assert record["stats"] == {"compared": 0, "nonzero": 0}
