"""Acceptance gate: every criterion at its stated size and seed count, with
exact equality as the only pass condition.  Each suite runs at its registry
row's options (`Suite.acceptance`) and the default seeds, and prints one
pass/fail line (run with ``pytest -s`` to watch them stream)."""

import time

import pytest

from qkz.suites import SUITES, SuiteConfig, report_passed, run_suite

# The gate's runs: (tag, suite, budget, budget per seed), budgets in s; a
# tag opens with its criterion's number
RUNS = [
    ("1 SHAKIROV_EQ: solver equals partition sum on the 4x4 rectangle", "SHAKIROV_EQ", None, 120),
    ("2 RMATRIX_3WAY: three realizations and the printed 2x2/3x3 tables", "RMATRIX_3WAY", 10, None),
    ("3 QKZ_MATRIX: t-difference system through Lambda-order 3", "QKZ_MATRIX", None, None),
    ("4 AL_EQ_JACKSON: componentwise identification for m+n <= 3", "AL_EQ_JACKSON", None, None),
    ("5 COMMUTATIVITY: R D2 A = A R D2 and A = s T(R) D for N <= 4", "COMMUTATIVITY", None, None),
    ("6 ITO_QKZ: all three difference equations through order 2, N <= 3", "ITO_QKZ", None, None),
    ("7 NEKRASOV_3WAY: 200 pairs, orders 2..4, all residues", "NEKRASOV_3WAY", 30, None),
    ("8 FOURD_LIMIT: jets vs tridiagonal form, 4x4 table, KZ split", "FOURD_LIMIT", None, None),
    ("9a PENTAGON: dilogarithm expansion to total order 6", "PENTAGON", None, None),
    ("9b BAILEY: terminating 10W9 transformation for n <= 4", "BAILEY", None, None),
    ("10 SHUFFLE: factorized antisymmetrization for N <= 4", "SHUFFLE", 10, None),
    ("11 COUPLED: two-step system residuals vanish to total order 4", "COUPLED", None, None),
    ("12a DUAL_QKZ: Coulomb-shift equation through order 3", "DUAL_QKZ", None, None),
    ("12b HEINE_EXAMPLE: explicit pair and its two 2x2 equations", "HEINE_EXAMPLE", None, None),
]


def _run(runs):
    for tag, suite, budget_s, per_seed_budget_s in runs:
        cfg = SuiteConfig(suite=suite, **SUITES[suite].acceptance)
        start = time.monotonic()
        report = run_suite(cfg)
        elapsed = time.monotonic() - start
        verdict = "pass" if report_passed(report) else "FAIL"
        print(f"[{verdict}] {tag} ({elapsed:.1f}s, {len(report['checks'])} checks)")
        if verdict == "FAIL":
            first = next(c for c in report["checks"] if c["status"] != "pass")
            pytest.fail(f"{tag}: first failure {first['name']}: {first['mismatch']}")
        assert budget_s is None or elapsed <= budget_s, f"{tag} exceeded {budget_s}s budget"
        assert per_seed_budget_s is None or elapsed <= per_seed_budget_s * len(cfg.seeds), \
            f"{tag} exceeded {per_seed_budget_s}s/seed budget"


def _criterion(tag):
    """The number of the criterion a tag opens with: 9 for "9a PENTAGON: ..."."""
    return int(tag.split()[0].rstrip("ab"))


# one test per criterion, test_criterion_<NN>_<name>, runs the rows whose tag
# opens with its number; pytest passes no fixture to a parameter with a default
NAMES = ("shakirov_eq", "rmatrix_3way", "qkz_matrix", "al_eq_jackson", "commutativity", "ito_qkz",
         "nekrasov_3way", "fourd_limit", "pentagon_bailey", "shuffle", "coupled", "dual_qkz_heine")
for _number, _name in enumerate(NAMES, start=1):
    _runs = [row for row in RUNS if _criterion(row[0]) == _number]
    globals()[f"test_criterion_{_number:02d}_{_name}"] = lambda runs=_runs: _run(runs)


def test_the_gate_runs_every_suite_once():
    # every criterion has a row, every row a criterion, every suite one row
    assert {_criterion(tag) for tag, *_ in RUNS} == set(range(1, len(NAMES) + 1))
    assert sorted(suite for _, suite, _, _ in RUNS) == sorted(SUITES)
