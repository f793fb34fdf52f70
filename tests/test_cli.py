import copy
import json
import os
import platform
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from qkz.cli import main
from qkz.errors import ConfigError
from qkz.suites import SUITE_OPTIONS, SUITES, SuiteConfig, run_suite, write_report


def test_unknown_suite_is_rejected_before_computation():
    with pytest.raises(ConfigError):
        SuiteConfig(suite="NO_SUCH_SUITE")
    with pytest.raises(ConfigError, match="at least one seed"):
        SuiteConfig(suite="BAILEY", seeds=())
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
    assert report["env"]["backend"] in ("qkz.scalars.Rat", "gmpy2.mpq")
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


def test_a_report_does_not_depend_on_where_it_is_written(monkeypatch, tmp_path):
    monkeypatch.setenv("QKZ_THREADS", "1")
    texts = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["verify", "BAILEY", "--seed", "1", "--out", str(out)]) == 0
        texts.append(re.sub(r'"time_ms": \d+', '"time_ms": 0', out.read_text()))
    assert texts[0] == texts[1]
    assert json.loads(texts[0])["config"] == {"suite": "BAILEY", "seeds": [1]}


def test_a_run_checks_exactly_the_seeds_it_names(monkeypatch, tmp_path):
    monkeypatch.setenv("QKZ_THREADS", "1")
    out = tmp_path / "r.json"
    assert main(["verify", "BAILEY", "--seed", "1", "--seed", "1000004", "--out", str(out)]) == 0
    assert [c["name"] for c in json.loads(out.read_text())["checks"]] == [
        "10W9 transformation, seed 1", "10W9 transformation, seed 1000004"]


def test_a_point_count_option_is_rejected_by_the_parser(monkeypatch, capsys):
    # the seeds a run names are the points it checks: there is no option
    # that draws more
    from qkz import suites

    def no_check(task):
        raise AssertionError(f"check ran: {task}")

    monkeypatch.setattr(suites, "_execute", no_check)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "BAILEY", "--points", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --points 2" in capsys.readouterr().err


def test_an_unknown_format_is_rejected_by_the_parser(capsys):
    # the parser's choices are the one check of --format: the run's config
    # has no format to check
    with pytest.raises(SystemExit) as exc:
        main(["verify", "BAILEY", "--format", "xml"])
    assert exc.value.code == 2
    assert "invalid choice: 'xml'" in capsys.readouterr().err
    with pytest.raises(TypeError):
        SuiteConfig(suite="BAILEY", format="json")


def test_csv_report_format():
    cfg = SuiteConfig(suite="SHUFFLE", seeds=(1,))
    rep = run_suite(cfg)
    text = write_report(rep, "csv")
    lines = text.strip().splitlines()
    assert lines[0] == "name,status,point,orders,mismatch,time_ms,compared,nonzero"
    assert len(lines) == 1 + len(rep["checks"])
    compared, nonzero = rep["checks"][0]["stats"].values()
    assert lines[1].endswith(f',"{compared}","{nonzero}"')


def test_failure_reports_first_mismatch_location():
    # inject a fake failing comparison through the report writer contract
    rep = run_suite(SuiteConfig(suite="SHUFFLE", seeds=(1,)))
    rep = copy.deepcopy(rep)
    rep["checks"][0]["status"] = "fail"
    rep["checks"][0]["mismatch"] = {"N": 2, "k": 1, "factored": "3/5",
                                    "antisymmetrized": "2/5"}
    text = write_report(rep, "json")
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


def test_mass_truncated_dumps_to_stdout_agree(capsys):
    # with no --out the table goes to stdout; on window (m, n) = (2, 1) the
    # cells with k - l > m or l - k > n are 0
    texts = []
    for command in ("solve", "laumon"):
        assert main([command, "--kmax", "3", "--lmax", "3", "--seed", "1",
                     "--m", "2", "--n", "1"]) == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    rows = [line.split(",") for line in texts[0].splitlines()[1:]]
    assert len(rows) == 16
    zero = {(int(k), int(l)) for k, l, num, den in rows if (num, den) == ("0", "1")}
    assert zero == {(k, l) for k in range(4) for l in range(4) if k - l > 2 or l - k > 1}


def test_a_qkz_error_exits_3_with_one_error_line(capsys):
    # Lambda = 1 zeroes Lambda - 1 in the small-h matrix
    assert main(["rmatrix", "--m", "2", "--n", "1", "--seed", "1", "--lambda", "1",
                 "--fourd"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: Lambda - 1 in the 4d matrix vanishes"]


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


def test_degenerate_point_retry_is_deterministic(monkeypatch, capsys, tmp_path):
    # a builder that meets a degenerate point fails its check there, with no
    # retry: `qkz verify` exits 1 without a traceback, and every run reports
    # the same sampled point and the exception
    import qkz.suites
    from qkz.errors import DegenerateParameterError
    from qkz.scalars import sample_generic_point

    calls = []

    def degenerate(p, lmax):
        calls.append(p)
        raise DegenerateParameterError("synthetic degeneracy")

    monkeypatch.setenv("QKZ_THREADS", "1")
    monkeypatch.setattr(qkz.suites, "heine_solution_pair", degenerate)
    texts = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["verify", "HEINE_EXAMPLE", "--seed", "10", "--out", str(out)]) == 1
        texts.append(re.sub(r'"time_ms": \d+', '"time_ms": 0', out.read_text()))
    assert "Traceback" not in capsys.readouterr().err
    assert texts[0] == texts[1] and len(calls) == 2
    [check] = json.loads(texts[0])["checks"]
    assert check["status"] == "fail"
    assert check["point"] == calls[0].to_json() == \
        sample_generic_point(10, 8).with_overrides(1, 0).to_json()
    assert check["orders"] == {"lmax": 4}
    assert check["mismatch"] == {"type": "DegenerateParameterError",
                                 "message": "synthetic degeneracy"}
    assert "retries" not in check


def test_retries_do_not_hide_a_fault(monkeypatch):
    # a builder's unexpected exception is a fault: its check reports status
    # error after one call, and the other checks still run
    import qkz.suites

    real, calls = qkz.suites.qkz_residual, []

    def faulty(p, lmax):
        calls.append(p)
        if p.window == (1, 1):
            raise ZeroDivisionError("injected fault")
        return real(p, lmax)

    monkeypatch.setenv("QKZ_THREADS", "1")
    monkeypatch.setattr(qkz.suites, "qkz_residual", faulty)
    report = run_suite(SuiteConfig(suite="QKZ_MATRIX", seeds=(10,)))
    assert [c["status"] for c in report["checks"]] == ["pass", "error", "pass"]
    assert [p.window for p in calls] == [(1, 0), (1, 1), (2, 1)]
    fault = report["checks"][1]["mismatch"]
    assert (fault["type"], fault["message"]) == ("ZeroDivisionError", "injected fault")
    assert all("retries" not in c for c in report["checks"])


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


def test_the_jackson_dump_builds_each_lattice_sum_once(monkeypatch, capsys):
    # the dump prints the vector its equations read: one lattice sum at the
    # point and one at each of its two shifted parameter sets
    import qkz.jackson

    real, built = qkz.jackson.jackson_vector, []

    def counted(jp, lmax):
        built.append(jp)
        return real(jp, lmax)

    monkeypatch.setattr(qkz.jackson, "jackson_vector", counted)
    assert main(["jackson", "--m", "1", "--n", "0", "--lmax", "3", "--seed", "4"]) == 0
    assert len(built) == len(set(built)) == 3
    assert json.loads(capsys.readouterr().out)["lmax"] == 3


class _Built(Exception):
    """Carries the SuiteConfig that `qkz verify` built, before any check runs."""


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_a_bare_verify_runs_the_acceptance_config(monkeypatch, suite):
    import qkz.cli

    def built(cfg):
        raise _Built(cfg)

    monkeypatch.setattr(qkz.cli, "run_suite", built)
    with pytest.raises(_Built) as got:
        main(["verify", suite, "--seed", "1"])
    assert got.value.args[0] == SuiteConfig(suite=suite, seeds=(1,), **SUITES[suite].acceptance)


@pytest.mark.parametrize("argv, env", [
    pytest.param(["COMMUTATIVITY", "--N", "-1"], None, id="argv0-None"),
    pytest.param(["AL_EQ_JACKSON", "--m", "0", "--n", "-1"], None, id="argv1-None"),
    pytest.param(["QKZ_MATRIX", "--m", "1"], None, id="argv2-None"),
    pytest.param(["DUAL_QKZ", "--n", "1"], None, id="argv3-None"),
    pytest.param(["BAILEY", "--m", "1", "--n", "1"], None, id="argv4-None"),
    pytest.param(["QKZ_MATRIX", "--m", "-1", "--n", "0"], None, id="argv5-None"),
    pytest.param(["QKZ_MATRIX", "--lmax", "0"], None, id="argv6-None"),
    pytest.param(["HEINE_EXAMPLE", "--lmax", "0"], None, id="argv7-None"),
    pytest.param(["ITO_QKZ", "--lmax", "0"], None, id="argv8-None"),
    pytest.param(["DUAL_QKZ", "--lmax", "0"], None, id="argv9-None"),
    pytest.param(["AL_EQ_JACKSON", "--lmax", "0"], None, id="argv10-None"),
    pytest.param(["SHAKIROV_EQ", "--kmax", "-1"], None, id="argv11-None"),
    pytest.param(["COUPLED", "--lmax", "-1"], None, id="argv12-None"),
    pytest.param(["COMMUTATIVITY", "--N", "7"], None, id="argv13-None"),
    pytest.param(["BAILEY", "--N", "1"], None, id="argv14-None"),
    pytest.param(["FOURD_LIMIT", "--jet-order", "0"], None, id="argv15-None"),
    pytest.param(["BAILEY"], "abc", id="argv16-abc"),
    pytest.param(["BAILEY", "--seed", "1", "--seed", "1"], None, id="argv17-None"),
    pytest.param(["BAILEY", "--seed", "2", "--seed", "3", "--seed", "2"], None, id="argv18-None"),
    pytest.param(["BAILEY", "--kmax", "-5"], None, id="argv19-None"),
    pytest.param(["PENTAGON", "--lmax", "9"], None, id="argv20-None"),
    pytest.param(["SHAKIROV_EQ", "--jet-order", "2"], None, id="argv21-None"),
    pytest.param(["FOURD_LIMIT", "--lmax", "3"], None, id="argv22-None"),
    pytest.param(["BAILEY"], "0", id="argv23-0"),
    pytest.param(["BAILEY"], "-1", id="argv24--1"),
    # an --out that cannot be written: {tmp} is an existing empty directory
    pytest.param(["BAILEY", "--out", "{tmp}/missing/r.json"], None, id="argv25-None"),
    pytest.param(["NEKRASOV_3WAY", "--seed", "1", "--out", "{tmp}/missing/x.json"], None,
                 id="argv26-None"),
    pytest.param(["BAILEY", "--format", "csv", "--out", "{tmp}/missing/r.csv"], None,
                 id="argv27-None"),
    pytest.param(["BAILEY", "--out", "{tmp}"], None, id="argv28-None"),
])
def test_invalid_config_exits_2_before_computation(monkeypatch, capsys, tmp_path, argv, env):
    from qkz import suites

    def no_check(task):
        raise AssertionError(f"check ran: {task}")

    monkeypatch.setattr(suites, "_execute", no_check)
    if env is None:
        monkeypatch.delenv("QKZ_THREADS", raising=False)
    else:
        monkeypatch.setenv("QKZ_THREADS", env)
    assert main(["verify", *(arg.replace("{tmp}", str(tmp_path)) for arg in argv)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err


def _verify_synopsis(text: str) -> str:
    """The `qkz verify` synopsis in `text`: its first line and the indented
    lines of brackets that continue it, dedented."""
    [block] = re.findall(r"^( *)(qkz verify .*\n(?:\1 +\[.*\n)*)", text, re.MULTILINE)
    return textwrap.dedent(block[0] + block[1])


def test_the_readme_and_the_help_give_one_verify_synopsis():
    # the synopsis names --seed, each run option, --out and --format: an
    # option cannot be added to or dropped from one of the two alone
    import qkz.cli

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    synopsis = _verify_synopsis(qkz.cli.__doc__)
    assert _verify_synopsis(readme) == synopsis
    flags = ["--" + opt.replace("_", "-") for opt in SUITE_OPTIONS]
    assert sorted(set(re.findall(r"--[A-Za-z][\w-]*", synopsis))) == sorted(
        ["--seed", *flags, "--out", "--format"])


def test_readme_option_table_matches_the_registry():
    # each `| `SUITE` | options | acceptance run | checks |` row names the
    # flags its suite reads and the values its acceptance run sets
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `([A-Z0-9_]+)` \| ([^|]*) \| ([^|]*) \|", readme, re.MULTILINE)
    assert sorted(suite for suite, _, _ in rows) == sorted(SUITES) and len(SUITES) == 14
    for suite, options, acceptance in rows:
        flags = {flag.replace("-", "_") for flag in re.findall(r"--([A-Za-z][\w-]*)", options)}
        assert flags == set(SUITES[suite].limits), suite
        values = re.findall(r"--([A-Za-z][\w-]*) (\d+)", acceptance)
        got = {flag.replace("-", "_"): int(v) for flag, v in values}
        assert got == SUITES[suite].acceptance, suite


def test_readme_csv_header_is_the_report_header():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    report = run_suite(SuiteConfig(suite="BAILEY", seeds=(1,)))
    header = write_report(report, "csv").splitlines()[0]
    assert re.findall(r"^name,status,.*$", readme, re.MULTILINE) == [header]


@pytest.mark.parametrize("flag, argv", [
    pytest.param("--lambda", ["rmatrix", "--m", "1", "--n", "0", "--lambda", "1/0"],
                 id="--lambda-argv0"),
    pytest.param("--lambda", ["rmatrix", "--m", "1", "--n", "0", "--lambda", "abc"],
                 id="--lambda-argv1"),
    pytest.param("--m", ["rmatrix", "--m", "-1", "--n", "0"], id="--m-argv2"),
    pytest.param("--a2", ["jackson", "--m", "1", "--n", "0", "--a2", "0"], id="--a2-argv3"),
    pytest.param("--a2", ["jackson", "--m", "1", "--n", "0", "--a2", "x"], id="--a2-argv4"),
    pytest.param("--m", ["jackson", "--m", "-1", "--n", "0"], id="--m-argv5"),
    pytest.param("--lmax", ["jackson", "--m", "1", "--n", "0", "--lmax", "0"], id="--lmax-argv6"),
    pytest.param("--kmax", ["solve", "--kmax", "-1"], id="--kmax-argv7"),
    pytest.param("--lmax", ["laumon", "--lmax", "-1"], id="--lmax-argv8"),
    pytest.param("--m", ["laumon", "--m", "1"], id="--m-argv9"),
    pytest.param("--out", ["laumon", "--kmax", "1", "--lmax", "1", "--out", "{tmp}/missing/x.csv"],
                 id="--out-argv10"),
])
def test_invalid_dump_options_exit_2_before_sampling(monkeypatch, capsys, tmp_path, flag, argv):
    import qkz.suites

    def no_point(*args, **kwargs):
        raise AssertionError("a point was sampled")

    monkeypatch.setattr(qkz.suites, "sample_generic_point", no_point)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert main([*argv, "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert flag in err


def test_unexpected_exception_is_an_error_check(monkeypatch, tmp_path):
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
