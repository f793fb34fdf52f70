"""The benchmark (``perfbench/run.py``) counts a check as failed unless its
report matches the digest recorded in ``perfbench/digests.json``.  Here every
suite of every workload runs once at seed 1, through the command line with
the workload's options, and each check must match its recorded digest: the
reports are byte-identical to the recorded ones, timing aside."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from qkz.cli import main

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


BENCH = _load_run()
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
