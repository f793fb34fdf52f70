import copy
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from qkz.cli import main
from qkz.errors import ConfigError
from qkz.suites import SuiteConfig, run_suite, write_report


def test_unknown_suite_is_rejected_before_computation():
    with pytest.raises(ConfigError):
        SuiteConfig(suite="NO_SUCH_SUITE")
    assert main(["verify", "NO_SUCH_SUITE"]) == 2


def test_importing_the_cli_leaves_the_process_pool_out():
    # a serial run never starts the pool, so it need not import it
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys, qkz.cli; sys.exit('concurrent.futures' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0


def test_verify_exit_code_and_report_schema(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "PENTAGON", "--seed", "3", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert set(report) == {"suite", "version", "env", "config", "checks"}
    assert report["suite"] == "PENTAGON"
    assert report["env"]["backend"] in ("fractions.Fraction", "gmpy2.mpq")
    assert report["env"]["python"] == platform.python_version()
    assert report["env"]["workers"] == 1
    for check in report["checks"]:
        assert {"name", "status", "point", "orders", "mismatch", "time_ms"} <= set(check)
        assert check["status"] in ("pass", "fail")


def test_report_determinism_modulo_timing():
    cfg = SuiteConfig(suite="BAILEY", seeds=(2,))
    rep1 = run_suite(cfg)
    rep2 = run_suite(SuiteConfig(suite="BAILEY", seeds=(2,)))
    # env describes the run, not the result
    strip = lambda rep: json.dumps(  # noqa: E731
        {**rep, "env": None, "checks": [{k: v for k, v in c.items() if k != "time_ms"}
                                        for c in rep["checks"]]}, sort_keys=True)
    assert strip(rep1) == strip(rep2)


def test_csv_report_format():
    cfg = SuiteConfig(suite="SHUFFLE", seeds=(1,), format="csv")
    rep = run_suite(cfg)
    text = write_report(rep, None, "csv")
    lines = text.strip().splitlines()
    assert lines[0] == "name,status,point,orders,mismatch,time_ms"
    assert len(lines) == 1 + len(rep["checks"])


def test_failure_reports_first_mismatch_location():
    # inject a fake failing comparison through the report writer contract
    rep = run_suite(SuiteConfig(suite="SHUFFLE", seeds=(1,)))
    rep = copy.deepcopy(rep)
    rep["checks"][0]["status"] = "fail"
    rep["checks"][0]["mismatch"] = {"N": 2, "k": 1, "factored": "3/5",
                                    "antisymmetrized": "2/5"}
    text = write_report(rep, None, "json")
    obj = json.loads(text)
    assert obj["checks"][0]["mismatch"]["factored"] == "3/5"


def test_solve_and_laumon_dumps(tmp_path):
    out = tmp_path / "series.csv"
    assert main(["solve", "--kmax", "2", "--lmax", "2", "--seed", "1",
                 "--out", str(out)]) == 0
    solver_lines = out.read_text().strip().splitlines()
    assert solver_lines[0] == "k,l,numerator,denominator"
    assert main(["laumon", "--kmax", "2", "--lmax", "2", "--seed", "1",
                 "--out", str(out)]) == 0
    laumon_lines = out.read_text().strip().splitlines()
    # the two dumps agree coefficient by coefficient
    assert solver_lines == laumon_lines


def test_rmatrix_dump(tmp_path):
    out = tmp_path / "rmatrix.json"
    assert main(["rmatrix", "--m", "1", "--n", "0", "--seed", "3",
                 "--lambda", "3/11", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert len(obj["rows"]) == 2
    assert main(["rmatrix", "--m", "1", "--n", "1", "--seed", "3", "--fourd",
                 "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["kind"] == "small-h first order"


def test_degenerate_point_retry_is_deterministic():
    from qkz.errors import DegenerateParameterError
    from qkz.suites import RETRY_STRIDE, Recorder, _sample_with_retries

    seen = []

    def attempt(p):
        seen.append(p)
        if len(seen) < 3:
            raise DegenerateParameterError("synthetic degeneracy")
        return "ok"

    rec = Recorder()
    p, result = _sample_with_retries(rec, 10, 6, attempt_fn=attempt)
    assert result == "ok" and len(seen) == 3
    assert rec.point == p.to_json()
    # the third sampled point is the one derived from seed + 2*stride
    from qkz.scalars import sample_generic_point
    assert p == sample_generic_point(10 + 2 * RETRY_STRIDE, 6)


def test_retries_do_not_hide_a_fault():
    from qkz.suites import Recorder, _sample_with_retries

    calls = []

    def attempt(p):
        calls.append(p)
        raise ZeroDivisionError("injected fault")

    with pytest.raises(ZeroDivisionError, match="injected fault"):
        _sample_with_retries(Recorder(), 10, 6, attempt_fn=attempt)
    assert len(calls) == 1


def test_worker_pool_cap(monkeypatch):
    from qkz.suites import worker_count
    monkeypatch.setenv("QKZ_THREADS", "2")
    assert worker_count(8) == 2
    assert worker_count(1) == 1
    monkeypatch.delenv("QKZ_THREADS")
    assert worker_count(3) <= 3


def test_parallel_report_matches_serial(monkeypatch):
    monkeypatch.setenv("QKZ_THREADS", "1")
    serial = run_suite(SuiteConfig(suite="COMMUTATIVITY", seeds=(4,)))
    monkeypatch.setenv("QKZ_THREADS", "3")
    parallel = run_suite(SuiteConfig(suite="COMMUTATIVITY", seeds=(4,)))
    strip = lambda rep: [  # noqa: E731
        {k: v for k, v in c.items() if k != "time_ms"} for c in rep["checks"]]
    assert strip(serial) == strip(parallel)
    assert serial["env"]["workers"] == 1
    assert parallel["env"]["workers"] == min(3, len(parallel["checks"])) > 1


def test_jackson_dump(tmp_path):
    out = tmp_path / "jackson.json"
    assert main(["jackson", "--m", "1", "--n", "0", "--lmax", "2", "--seed", "4",
                 "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert set(obj["components"]) == {"0", "1"}
    for rs in obj["equation_residuals"].values():
        for series in rs:
            assert all(c == "0" for c in series)


@pytest.mark.parametrize("argv, env", [
    (["BAILEY", "--points", "0"], None),
    (["BAILEY", "--points", "-1"], None),
    (["QKZ_MATRIX", "--m", "1"], None),
    (["DUAL_QKZ", "--n", "1"], None),
    (["BAILEY", "--m", "1", "--n", "1"], None),
    (["QKZ_MATRIX", "--m", "-1", "--n", "0"], None),
    (["QKZ_MATRIX", "--lmax", "0"], None),
    (["HEINE_EXAMPLE", "--lmax", "0"], None),
    (["ITO_QKZ", "--lmax", "0"], None),
    (["DUAL_QKZ", "--lmax", "0"], None),
    (["AL_EQ_JACKSON", "--lmax", "0"], None),
    (["SHAKIROV_EQ", "--kmax", "-1"], None),
    (["COUPLED", "--lmax", "-1"], None),
    (["COMMUTATIVITY", "--N", "7"], None),
    (["BAILEY", "--N", "1"], None),
    (["FOURD_LIMIT", "--jet-order", "0"], None),
    (["BAILEY"], "abc"),
    (["BAILEY", "--seed", "1", "--seed", "1"], None),
    (["BAILEY", "--seed", "1", "--seed", "1000004", "--points", "2"], None),
])
def test_invalid_config_exits_2_before_computation(monkeypatch, capsys, argv, env):
    from qkz import suites

    def no_check(task):
        raise AssertionError(f"check ran: {task}")

    monkeypatch.setattr(suites, "_execute", no_check)
    if env is None:
        monkeypatch.delenv("QKZ_THREADS", raising=False)
    else:
        monkeypatch.setenv("QKZ_THREADS", env)
    assert main(["verify", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err


@pytest.mark.parametrize("flag, argv", [
    ("--lambda", ["rmatrix", "--m", "1", "--n", "0", "--lambda", "1/0"]),
    ("--lambda", ["rmatrix", "--m", "1", "--n", "0", "--lambda", "abc"]),
    ("--m", ["rmatrix", "--m", "-1", "--n", "0"]),
    ("--a2", ["jackson", "--m", "1", "--n", "0", "--a2", "0"]),
    ("--a2", ["jackson", "--m", "1", "--n", "0", "--a2", "x"]),
    ("--m", ["jackson", "--m", "-1", "--n", "0"]),
    ("--lmax", ["jackson", "--m", "1", "--n", "0", "--lmax", "0"]),
    ("--kmax", ["solve", "--kmax", "-1"]),
    ("--lmax", ["laumon", "--lmax", "-1"]),
    ("--m", ["laumon", "--m", "1"]),
])
def test_invalid_dump_options_exit_2_before_sampling(monkeypatch, capsys, flag, argv):
    import qkz.cli

    def no_point(*args, **kwargs):
        raise AssertionError("a point was sampled")

    monkeypatch.setattr(qkz.cli, "sample_generic_point", no_point)
    assert main([*argv, "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert flag in err


def test_unexpected_exception_is_an_error_check(monkeypatch, tmp_path):
    from qkz.suites import SUITES

    spec = SUITES["COMMUTATIVITY"]

    def flaky(rec, seed, N):
        if N == 2:
            raise RuntimeError("injected fault")
        return spec.check(rec, seed=seed, N=N)

    monkeypatch.setitem(SUITES, "COMMUTATIVITY", spec._replace(check=flaky))
    monkeypatch.setenv("QKZ_THREADS", "1")
    out = tmp_path / "report.json"
    assert main(["verify", "COMMUTATIVITY", "--seed", "1", "--out", str(out)]) == 1
    checks = json.loads(out.read_text())["checks"]
    assert [c["status"] for c in checks] == ["pass", "pass", "error", "pass", "pass"]
    mismatch = checks[2]["mismatch"]
    assert (mismatch["type"], mismatch["message"]) == ("RuntimeError", "injected fault")
    assert checks[2]["name"] == "R D2 A = A R D2 at N=2, seed 1"
