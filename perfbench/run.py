"""Benchmark for ``qkz verify``: serial verify time on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/qkz``).
It is a closed loop with one client: each pass runs the workload's suites
one after another, each as a fresh ``qkz verify`` interpreter (see
``child.py``) with ``QKZ_THREADS=1``, and passes repeat until ``--seconds``
have passed (the last pass is finished, not cut).  Every check of every
report must pass and match the digest recorded for it in ``digests.json``.

With ``--trace 0`` the end-to-end metrics are measured with no layer
wrapped.  With ``--trace 1`` three kinds of pass take turns: untraced, every
layer traced (``tracer.py``), which gives the per-layer metrics, and only
``pair_weight`` traced, which gives its share of verify time without the
cost of the wrappers nested inside it.

The last line of stdout is one JSON object: ``correct``, ``attempted`` and
``failed`` (checks) and ``metrics``.  The lines above it give the same
numbers for people, with sample counts, ``failed_frac`` and the
environment.  Spans, reports and per-process results of the last run of a
workload and seed are kept under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
DIGESTS = HERE / "digests.json"
OUT = ROOT / ".perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# A run must end within this many seconds, whatever --seconds says.
HARD_LIMIT_S = 170.0


@dataclass(frozen=True)
class Workload:
    suites: tuple           # (suite id, options) run in this order each pass
    seeds_per_pass: int     # suite seeds given to every suite of a pass


# Acceptance orders of each suite (tests/test_acceptance.py).
WORKLOADS = {
    "partition_sum": Workload(
        suites=(("SHAKIROV_EQ", ("--kmax", "4", "--lmax", "4")),
                ("QKZ_MATRIX", ("--lmax", "4")),
                ("DUAL_QKZ", ("--lmax", "3")),
                ("AL_EQ_JACKSON", ("--lmax", "3")),
                ("HEINE_EXAMPLE", ("--lmax", "4"))),
        seeds_per_pass=1),
    "matrix_lattice": Workload(
        suites=(("RMATRIX_3WAY", ()),
                ("COMMUTATIVITY", ()),
                ("ITO_QKZ", ("--lmax", "3")),
                ("FOURD_LIMIT", ("--jet-order", "2")),
                ("COUPLED", ("--kmax", "4", "--lmax", "4")),
                ("PENTAGON", ()),
                ("BAILEY", ()),
                ("SHUFFLE", ())),
        seeds_per_pass=3),
    "nekrasov_factors": Workload(
        suites=(("NEKRASOV_3WAY", ()),),
        seeds_per_pass=3),
}

# Suite seeds come from this pool, for which digests.json holds every check.
SEED_POOL = 24

# Metric names and units, as BENCHMARK.json lists them.
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]

# Pass kinds of a traced run, taken in turn: no layer wrapped, every layer
# wrapped, only pair_weight wrapped.
PAIR_WEIGHT = "laumon.pair_weight"
MODES = ("none", "all", PAIR_WEIGHT)

# Check keys a report carries at the commit that recorded the digests.
REPORT_KEYS = ("name", "status", "point", "orders", "mismatch", "info")


def suite_seeds(seed: int, count: int) -> list:
    """``count`` consecutive suite seeds of the pool, starting where ``seed`` points."""
    return [(seed - 1 + j) % SEED_POOL + 1 for j in range(count)]


def check_digest(check: dict) -> str:
    """Digest of a check projected onto REPORT_KEYS; timing and any newer
    fields are left out."""
    kept = {k: check[k] for k in REPORT_KEYS if k in check}
    text = json.dumps(kept, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def score_report(report, expected: dict, exit_ok: bool):
    """(attempted, failed, time_ms list) for one ``qkz verify`` run.

    ``expected`` maps each check name the run must produce to its digest.
    Every check in the report is attempted; it fails if it is not ``pass``,
    differs from its digest, is not expected, or shares its name with
    another check.  An expected check the report lacks is attempted and
    failed.  If the process failed or wrote no report, every expected check
    failed.
    """
    if report is None or not exit_ok:
        return len(expected), len(expected), []
    checks = report.get("checks", [])
    names = Counter(c.get("name") for c in checks)
    failed = sum(1 for c in checks
                 if names[c.get("name")] > 1 or c.get("name") not in expected
                 or c.get("status") != "pass" or check_digest(c) != expected[c["name"]])
    missing = sum(1 for name in expected if name not in names)
    times = [c["time_ms"] for c in checks if "time_ms" in c]
    return len(checks) + missing, failed + missing, times


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def run_child(suite, options, seeds, out_dir: Path, tag: str, mode: str, deadline: float):
    """One ``qkz verify`` in a fresh interpreter; returns its measurements."""
    report = out_dir / f"{tag}-{suite}.json"
    result = out_dir / f"{tag}-{suite}.result.json"
    spans = out_dir / f"{tag}-{suite}.spans.csv.gz"
    for path in (report, result):
        path.unlink(missing_ok=True)
    argv = ["verify", suite, *options]
    for s in seeds:
        argv += ["--seed", str(s)]
    argv += ["--out", str(report)]
    env = dict(os.environ, PYTHONPATH=str(SRC), QKZ_THREADS="1")
    cmd = [sys.executable, str(CHILD), str(result), str(SRC), mode,
           str(spans), *argv]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=str(ROOT), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - t_spawn))
        stderr, exit_ok = proc.stderr, proc.returncode == 0
    except subprocess.TimeoutExpired:
        stderr, exit_ok = "timed out", False
    res = _read_json(result) if exit_ok else None
    rep = _read_json(report)
    if res is None:
        sys.stderr.write(f"{suite} {seeds}: child failed: {stderr.strip()[-2000:]}\n")
    return t_spawn, res, rep


@dataclass
class PassResult:
    mode: str               # one of MODES
    verify_s: float         # summed over the pass's processes: run_suite entry to report written
    setups: list            # seconds from spawn to run_suite entry, per process
    check_ms: list          # time_ms of every check in the pass's reports
    rss_kb: int
    attempted: int
    failed: int
    clean: bool             # tracing off when it should be, wrappers removed
    trace: dict | None
    checks: int
    backend: str            # scalar type the children computed with


def run_pass(workload: Workload, seeds, digests, out_dir, tag, mode, deadline):
    traced = mode != "none"
    verify = 0.0
    setups, check_ms, traces = [], [], []
    rss = attempted = failed = checks = 0
    clean = True
    backend = "unknown"
    for suite, options in workload.suites:
        expected = {}
        for s in seeds:
            expected.update(digests.get(suite, {}).get(str(s), {}))
        t_spawn, res, rep = run_child(suite, options, seeds, out_dir, tag, mode, deadline)
        ok = res is not None and res["rc"] == 0
        a, f, times = score_report(rep, expected, ok)
        attempted += a
        failed += f
        check_ms += times
        if res is None:
            continue
        checks += len(rep["checks"]) if rep else 0
        verify += res["t_done"] - res["t_run"]
        setups.append(res["t_run"] - t_spawn)
        rss = max(rss, res["maxrss_kb"])
        backend = res["backend"]
        clean &= not res["wrapped_after"] and (traced or not res["wrapped_at_run"])
        if traced:
            traces.append(res["trace"])
    return PassResult(mode, verify, setups, check_ms, rss, attempted, failed,
                      clean, merge_traces(traces) if traced else None, checks, backend)


def merge_traces(traces: list) -> dict:
    """Sum the per-process trace summaries of one pass."""
    total = {"layers": {}, "factors": 0, "nonzero": 0, "pairs": 0, "points": 0,
             "distinct_points": 0, "point_retries": 0, "missing": set()}
    for tr in traces:
        for key, st in tr["layers"].items():
            acc = total["layers"].setdefault(key, {"calls": 0, "incl_ns": 0, "self_ns": 0})
            for k in acc:
                acc[k] += st[k]
        for k in ("factors", "nonzero", "pairs", "points", "distinct_points",
                  "point_retries"):
            total[k] += tr[k]
        total["missing"].update(tr["missing"])
    return total


def _frac(num, den):
    return num / den if den else 0.0


def layer_metrics(p: PassResult) -> dict:
    """Per-layer metric values of one traced pass, except trace_overhead_frac."""
    tr = p.trace
    derived = {
        "scalars.sample_generic_point.distinct_frac":
            _frac(tr["distinct_points"], tr["points"]),
        "partitions.pairs": tr["pairs"],
        "laumon.pair_weight.nonzero_frac":
            _frac(tr["nonzero"], layer_calls(p, PAIR_WEIGHT)),
        "qseries.qbracket_poch.factors": tr["factors"],
        "suites.checks": p.checks,
        "suites.point_retries": tr["point_retries"],
    }
    out = {}
    for name, _unit in PER_LAYER:
        if name in derived:
            out[name] = derived[name]
        elif name != "trace_overhead_frac":
            key, _, stat = name.rpartition(".")
            out[name] = (layer_calls(p, key) if stat == "calls"
                         else layer_s(p, key, stat[:-2]))
    return out


def layer_calls(p: PassResult, key: str) -> int:
    return p.trace["layers"].get(key, {}).get("calls", 0)


def layer_s(p: PassResult, key: str, kind: str) -> float:
    """Seconds in a layer over a traced pass; ``kind`` is ``incl`` or ``self``."""
    return p.trace["layers"].get(key, {}).get(f"{kind}_ns", 0) / 1e9


def quantile(values, q: int) -> float:
    """The q-th percentile, interpolated between samples."""
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(workload_name: str, seed: int, seconds: float, trace: bool):
    workload = WORKLOADS[workload_name]
    digests = json.loads(DIGESTS.read_text())
    seeds = suite_seeds(seed, workload.seeds_per_pass)
    out_dir = OUT / f"{workload_name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    t0 = time.monotonic()
    deadline = t0 + HARD_LIMIT_S
    passes = []
    while True:
        mode = MODES[len(passes) % len(MODES)] if trace else "none"
        start = time.monotonic()
        passes.append(run_pass(workload, seeds, digests, out_dir, f"pass{len(passes)}",
                               mode, deadline))
        now = time.monotonic()
        if not trace or len(passes) >= len(MODES):
            if now - t0 >= seconds or now + (now - start) > deadline:
                break
    return seeds, passes


def summarize(workload_name, seed, seeds, passes, trace: bool):
    plain = [p for p in passes if p.mode == "none"]
    traced = [p for p in passes if p.mode == "all"]
    pw_only = [p for p in passes if p.mode == PAIR_WEIGHT]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    clean = all(p.clean for p in passes)
    verify = statistics.median(p.verify_s for p in plain)
    lines = [f"env: python {sys.version.split()[0]}, backend {passes[-1].backend}, "
             f"nproc {os.cpu_count()}, QKZ_THREADS=1",
             f"workload {workload_name}, seed {seed}: suite seeds {seeds}, "
             f"{len(plain)} untraced, {len(traced)} traced and {len(pw_only)} "
             f"pair_weight-only passes"]
    if trace:
        per_pass = [layer_metrics(p) for p in traced]
        metrics = {name: {"value": statistics.median(m[name] for m in per_pass),
                          "unit": unit}
                   for name, unit in PER_LAYER if name != "trace_overhead_frac"}
        traced_verify = statistics.median(p.verify_s for p in traced)
        metrics["trace_overhead_frac"] = {"value": traced_verify / verify - 1,
                                          "unit": "frac"}
        missing = sorted(set().union(*(p.trace["missing"] for p in traced)))
        if missing:
            lines.append(f"layers not found in qkz: {', '.join(missing)}")
        pw = statistics.median(layer_s(p, PAIR_WEIGHT, "incl") for p in pw_only)
        pw_verify = statistics.median(p.verify_s for p in pw_only)
        lines.append(f"sanity: laumon.pair_weight.incl_s / verify_s with only pair_weight "
                     f"traced = {pw:.3f} s / {pw_verify:.3f} s = {_frac(pw, pw_verify):.3f}"
                     f" ({'expect >= 0.90' if workload_name == 'partition_sum' else 'expect 0'})")
    else:
        check_ms = [t for p in plain for t in p.check_ms]
        setups = [s for p in plain for s in p.setups]
        values = {
            "verify_s": verify,
            "check_ms_p50": quantile(check_ms, 50),
            "check_ms_p90": quantile(check_ms, 90),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p.rss_kb for p in plain) / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        counts = {"verify_s": f"{len(plain)} passes", "check_ms_p50": f"n={len(check_ms)}",
                  "check_ms_p90": f"n={len(check_ms)}", "setup_s": f"n={len(setups)}",
                  "peak_rss_mb": f"{len(plain)} passes"}
        for name, m in metrics.items():
            lines.append(f"  {name} = {m['value']:.6g} {m['unit']} ({counts[name]})")
    lines.append(f"  failed_frac = {_frac(failed, attempted):.6g} "
                 f"({failed} of {attempted} checks)")
    if not clean:
        lines.append("tracing state wrong: a layer was wrapped in an untraced run "
                     "or left wrapped afterwards")
    return {"correct": failed == 0 and clean, "attempted": attempted,
            "failed": failed, "metrics": metrics}, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qkz" / "__init__.py").is_file():
        print(f"no qkz sources at {SRC}: run from a source checkout", file=sys.stderr)
        return 2
    # The build step: a user's installed package has its bytecode compiled.
    compileall.compile_dir(str(SRC / "qkz"), quiet=1)

    seeds, passes = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if not any(p.setups for p in passes if p.mode == "none"):
        print("no qkz verify process completed; nothing was measured", file=sys.stderr)
        return 1
    result, lines = summarize(args.workload, args.seed, seeds, passes, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
