"""Run-to-run spread of the end-to-end metrics, in two sets over several seeds.

    python3 perfbench/spread.py --seeds 1-10 [--out perfbench/results.json]

Runs ``run.py`` once per seed and workload of BENCHMARK.json, for
``run_seconds``, with the workloads interleaved inside each seed so that host
drift hits all of them alike.  It does this twice, as two sets one after the
other.  For every workload and metric it prints, per set, the median and the
quartile spread, ``(q3 - q1) / median`` from ``statistics.quantiles(values,
n=4)``, and how far the second set's median lies from the first's, as a share
of the first; each next to the metric's bound in BENCHMARK.json.  It writes
every run with the environment to ``--out``.  It ends with one traced run per
workload at the first seed and prints its pair_weight sanity line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import run as bench

SETS = ("A", "B")
WORKLOADS = [w["name"] for w in bench.SPEC["workloads"]]
BOUNDS = {m["name"]: m["bound"] for m in bench.SPEC["end_to_end"]}


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, trace: int) -> dict:
    """One benchmark run: its result object plus the printed lines and wall time."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(bench.HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(bench.SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=str(bench.ROOT), capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result.update(seed=seed, wall_s=time.monotonic() - start, lines=lines[:-1])
    return result


def spread_of(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) >= 2 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def verdict(share: float, bound: float) -> str:
    if share < bound / 3:
        return "steady"
    return "within bound" if share <= bound else "TOO WIDE"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    runs = {s: {w: [] for w in WORKLOADS} for s in SETS}
    for set_name in SETS:
        for seed in seeds:
            for w in WORKLOADS:
                result = run_once(w, seed, 0)
                runs[set_name][w].append(result)
                values = " ".join(f"{k}={m['value']:.4g}"
                                  for k, m in result["metrics"].items())
                print(f"set {set_name} {w} seed {seed} ({result['wall_s']:.0f} s, "
                      f"correct={result['correct']}): {values}", flush=True)
    traced = {}
    for w in WORKLOADS:
        traced[w] = run_once(w, seeds[0], 1)
        sanity = [line for line in traced[w]["lines"] if line.startswith("sanity:")]
        print(f"{w} seed {seeds[0]} traced, {sanity[0]}")
    env = runs[SETS[0]][WORKLOADS[0]][0]["lines"][0]

    summary = {}
    print(env)
    for w in WORKLOADS:
        for name, bound in BOUNDS.items():
            per_set = {s: spread_of([r["metrics"][name]["value"] for r in runs[s][w]])
                       for s in SETS}
            first, second = (per_set[s]["median"] for s in SETS)
            shift = (second - first) / first
            summary.setdefault(w, {})[name] = dict(per_set, median_shift=shift)
            spreads = "  ".join(f"{s}: median {per_set[s]['median']:9.5g} spread "
                                f"{per_set[s]['spread']:6.3f} "
                                f"{verdict(per_set[s]['spread'], bound)}" for s in SETS)
            print(f"{w:17s} {name:13s} bound {bound:.2f}  {spreads}  B vs A "
                  f"{shift:+.3f} {verdict(abs(shift), bound)}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"env": env, "seconds": bench.SPEC["run_seconds"],
                       "summary": summary, "runs": runs, "traced": traced}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
