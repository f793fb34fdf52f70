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
from qkz.suites import SUITES, SuiteConfig

from loader import load_module

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


BENCH = load_module("perfbench_run", RUN)
WORKLOAD_RUNS = [(workload, suite, options) for workload, spec in BENCH.WORKLOADS.items()
                 for suite, options in spec.suites]


@pytest.mark.parametrize("workload, suite, options", WORKLOAD_RUNS,
                         ids=[suite for _, suite, _ in WORKLOAD_RUNS])
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


def test_the_workloads_run_the_acceptance_configs(monkeypatch):
    # WORKLOADS copies the registry's acceptance options by hand: each suite's
    # command line, at the default seeds, must build its acceptance config,
    # and the suites must be the registry's
    assert sorted(suite for _, suite, _ in WORKLOAD_RUNS) == sorted(SUITES)

    def built(cfg):
        raise _Built(cfg)

    monkeypatch.setattr(cli, "run_suite", built)
    for _, suite, options in WORKLOAD_RUNS:
        with pytest.raises(_Built) as got:
            main(["verify", suite, *options])
        assert got.value.args[0] == SuiteConfig(suite=suite, **SUITES[suite].acceptance), suite
