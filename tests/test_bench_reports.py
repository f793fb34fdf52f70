"""The benchmark (``perfbench/run.py``) counts a check as failed unless its
report matches the digest recorded in ``perfbench/digests.json``.  Here every
suite of every workload runs once at seed 1, through the command line with
the workload's options, and each check must match its recorded digest: the
reports are byte-identical to the recorded ones, timing aside."""

import json
from pathlib import Path

import pytest

from qkz import cli
from qkz.cli import main

from loader import load_module

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
GATE = Path(__file__).resolve().parent / "test_acceptance.py"


BENCH = load_module("perfbench_run", RUN)
SUITES = [(workload, suite, options) for workload, spec in BENCH.WORKLOADS.items()
          for suite, options in spec.suites]


@pytest.mark.parametrize("workload, suite, options", SUITES,
                         ids=[suite for _, suite, _ in SUITES])
def test_report_matches_the_recorded_digests(monkeypatch, tmp_path, workload, suite,
                                             options):
    monkeypatch.setenv("QKZ_THREADS", "1")
    out = tmp_path / f"{suite}.json"
    assert main(["verify", suite, *options, "--seed", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    expected = json.loads(BENCH.DIGESTS.read_text())[suite]["1"]
    assert sorted(c["name"] for c in report["checks"]) == sorted(expected)
    for check in report["checks"]:
        assert BENCH.check_digest(check) == expected[check["name"]], check["name"]


class _Built(Exception):
    """Carries the SuiteConfig that `qkz verify` built, before any check runs."""


def _gate_configs():
    """The SuiteConfig of each suite in the acceptance gate, collected by
    running its criteria with a `_run` that only records them."""
    gate = load_module("acceptance_gate", GATE)
    configs = {}
    gate._run = lambda tag, cfg, **budgets: configs.setdefault(cfg.suite, cfg)
    for name, criterion in vars(gate).items():
        if name.startswith("test_criterion_"):
            criterion()
    return configs


def test_the_workloads_run_the_acceptance_configs(monkeypatch):
    # WORKLOADS copies the gate's options by hand: each suite's command line
    # must build the config its criterion runs, and the suites must be the same
    gate = _gate_configs()
    assert sorted(gate) == sorted(suite for _, suite, _ in SUITES)

    def built(cfg):
        raise _Built(cfg)

    monkeypatch.setattr(cli, "run_suite", built)
    for _, suite, options in SUITES:
        want = gate[suite]
        seeds = [arg for seed in want.seeds for arg in ("--seed", str(seed))]
        with pytest.raises(_Built) as got:
            main(["verify", suite, *options, *seeds])
        assert got.value.args[0] == want, suite
