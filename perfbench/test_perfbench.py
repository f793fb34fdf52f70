"""Fast self-tests of the benchmark (not part of the package's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys

import pytest

import run as bench
import tracer

sys.path.insert(0, str(bench.SRC))

SMOKE = bench.Workload(suites=(("BAILEY", ()),), seeds_per_pass=1)


@pytest.fixture
def smoke(monkeypatch):
    monkeypatch.setitem(bench.WORKLOADS, "smoke", SMOKE)
    yield
    shutil.rmtree(bench.OUT / "smoke-seed1-trace0", ignore_errors=True)
    shutil.rmtree(bench.OUT / "smoke-seed1-trace1", ignore_errors=True)


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_untraced_run_prints_every_metric_with_tracing_off(smoke, capsys):
    assert bench.main(["--workload", "smoke", "--seed", "1", "--seconds", "0",
                       "--trace", "0"]) == 0
    out = _last_json(capsys)
    assert out["correct"] and out["attempted"] == 1 and out["failed"] == 0
    assert {n: m["unit"] for n, m in out["metrics"].items()} == dict(bench.END_TO_END)
    assert all(m["value"] > 0 for m in out["metrics"].values())
    result = json.loads((bench.OUT / "smoke-seed1-trace0" / "pass0-BAILEY.result.json")
                        .read_text())
    assert result["wrapped_at_run"] == [] and result["wrapped_after"] == []
    assert "trace" not in result


def test_traced_run_reports_layers_and_removes_wrappers(smoke, capsys):
    assert bench.main(["--workload", "smoke", "--seed", "1", "--seconds", "0",
                       "--trace", "1"]) == 0
    out = _last_json(capsys)
    assert out["correct"] and out["attempted"] == 3
    assert {n: m["unit"] for n, m in out["metrics"].items()} == dict(bench.PER_LAYER)
    assert out["metrics"]["suites.checks"]["value"] == 1
    assert out["metrics"]["suites.run_suite.incl_s"]["value"] > 0
    assert out["metrics"]["laumon.pair_weight.calls"]["value"] == 0
    result = json.loads((bench.OUT / "smoke-seed1-trace1" / "pass1-BAILEY.result.json")
                        .read_text())
    assert len(result["wrapped_at_run"]) == len(tracer.LAYERS)
    assert result["wrapped_after"] == []
    result = json.loads((bench.OUT / "smoke-seed1-trace1" / "pass2-BAILEY.result.json")
                        .read_text())
    assert result["wrapped_at_run"] == ["laumon.pair_weight"]
    assert result["wrapped_after"] == []


def test_tracer_wraps_every_binding_and_restores_it():
    import qkz
    import qkz.cli
    from qkz import laumon, linalg, rmatrix, suites

    def bindings():
        return {(name, attr): value for name, mod in list(sys.modules.items())
                if name.startswith("qkz") for attr, value in vars(mod).items()}

    before = bindings()
    solve = vars(linalg.ScalarMatrix)["solve"]
    tr = tracer.Tracer().install()
    try:
        assert rmatrix.z_al_truncated is laumon.z_al_truncated
        assert rmatrix.z_al_truncated.__wrapped__ is before[("qkz.laumon", "z_al_truncated")]
        assert suites.sample_generic_point is qkz.sample_generic_point
        assert qkz.cli.run_suite is suites.run_suite
        assert vars(linalg.ScalarMatrix)["solve"] is not solve
        assert len(tracer.wrapped_layers()) == len(tracer.LAYERS)
        report = suites.run_suite(suites.SuiteConfig(suite="HEINE_EXAMPLE", seeds=(1,),
                                                     lmax=2))
    finally:
        tr.uninstall()
    assert suites.report_passed(report)
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert vars(linalg.ScalarMatrix)["solve"] is solve
    assert tracer.wrapped_layers() == []
    summary = tr.summary([1])
    layers = summary["layers"]
    assert layers["laumon.z_al_truncated"]["calls"] == 1
    assert layers["laumon.pair_weight"]["calls"] > 0
    assert summary["pairs"] >= layers["laumon.pair_weight"]["calls"]
    for st in layers.values():
        assert 0 <= st["self_ns"] <= st["incl_ns"] or st["calls"] == 0


def test_report_digest_catches_an_altered_point():
    from qkz.suites import SuiteConfig, run_suite

    digests = json.loads(bench.DIGESTS.read_text())
    expected = digests["BAILEY"]["1"]
    report = run_suite(SuiteConfig(suite="BAILEY", seeds=(1,)))
    assert bench.score_report(report, expected, True)[:2] == (1, 0)

    report["checks"][0]["time_ms"] += 1000
    report["checks"][0]["stats"] = {"terms": 7}
    assert bench.score_report(report, expected, True)[:2] == (1, 0)

    point = json.loads(report["checks"][0]["point"])
    point["q"] = "2/3" if point["q"] != "2/3" else "3/2"
    report["checks"][0]["point"] = json.dumps(point)
    assert bench.score_report(report, expected, True)[:2] == (1, 1)
    assert bench.score_report(None, expected, False)[:2] == (1, 1)


def test_a_repeated_check_name_fails():
    from qkz.suites import SuiteConfig, run_suite

    expected = json.loads(bench.DIGESTS.read_text())["BAILEY"]["1"]
    report = run_suite(SuiteConfig(suite="BAILEY", seeds=(1,)))
    broken = json.loads(json.dumps(report["checks"][0]))
    broken["status"] = "fail"
    report["checks"].insert(0, broken)
    attempted, failed, times = bench.score_report(report, expected, True)
    assert (attempted, failed) == (2, 2)
    assert len(times) == 2


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / bench.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{bench.HERE.name}/run.py", "--workload",
                           "nekrasov_factors", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
