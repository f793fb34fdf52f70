"""Layer tracing from outside the qkz package.

A ``Tracer`` wraps the public functions of qkz's layers at every module that
bound them (``from .laumon import z_al_truncated`` makes a second binding in
``rmatrix``; a function-local import reads the home module at call time, so
the home binding covers it).  Each call records one span in memory: layer,
parent span, start and end.  A few layers also count work at the same
boundary.  ``uninstall`` puts every original binding back.

Nothing here is imported by qkz; the benchmark's child process installs the
tracer before it calls ``qkz.cli.main``.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time

# Traced layer functions as (module under qkz, attribute path).
LAYERS = (
    ("scalars", "sample_generic_point"),
    ("partitions", "enumerate_pairs"),
    ("laumon", "pair_weight"),
    ("laumon", "nek_orb"),
    ("laumon", "nek_orb_floor"),
    ("laumon", "z_al"),
    ("laumon", "z_al_truncated"),
    ("qseries", "qbracket_poch"),
    ("cone", "solve_shakirov"),
    ("cone", "coupled_step"),
    ("linalg", "ScalarMatrix.solve"),
    ("rmatrix", "r_via_linear_system"),
    ("rmatrix", "qkz_residual"),
    ("rmatrix", "dual_qkz_residuals"),
    ("rmatrix", "r_closed_form"),
    ("rmatrix", "r_hg_matrix"),
    ("jackson", "jackson_vector"),
    ("jackson", "al_jackson_compare"),
    ("jackson", "ito_qkz_check"),
    ("jackson", "matsuo_e"),
    ("jackson", "ito_R"),
    ("jackson", "ito_A"),
    ("suites", "run_suite"),
)

_MARK = "__perfbench_layer__"


def _qkz_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "qkz" or name.startswith("qkz."))]


def rebind(original, replacement) -> list:
    """Replace every module-level binding of ``original`` in the qkz package
    with ``replacement``; return the (module, name) sites that were changed."""
    sites = [(mod, name) for mod in _qkz_modules()
             for name, value in list(vars(mod).items()) if value is original]
    for mod, name in sites:
        setattr(mod, name, replacement)
    return sites


def _resolve(module: str, path: str):
    """(owner, attribute, function) for a layer, or None if it is absent."""
    try:
        mod = importlib.import_module(f"qkz.{module}")
    except ImportError:
        return None
    owner_path, _, attr = path.rpartition(".")
    owner = getattr(mod, owner_path, None) if owner_path else mod
    fn = vars(owner).get(attr) if owner is not None else None
    return None if fn is None else (owner, attr, fn)


def wrapped_layers() -> list:
    """Layer keys whose home binding is currently a tracer wrapper."""
    out = []
    for module, path in LAYERS:
        found = _resolve(module, path)
        if found is not None and getattr(found[2], _MARK, None) is not None:
            out.append(f"{module}.{path}")
    return out


class Tracer:
    """Spans and boundary counts for one process; install, run, uninstall."""

    def __init__(self, only=None):
        self.keys = [f"{m}.{p}" for m, p in LAYERS]
        self.only = only     # layer keys to wrap; None wraps them all
        self.layer = []      # layer index per span
        self.parent = []     # parent span index, -1 at the top
        self.start = []      # perf_counter_ns at entry
        self.end = []        # perf_counter_ns at exit
        self.factors = 0     # sum of n over qbracket_poch calls
        self.nonzero = 0     # pair_weight calls with a nonzero weight
        self.pairs = 0       # pairs returned by enumerate_pairs
        self.points = []     # (seed, guard) of each sample_generic_point call
        self.missing = []    # layers absent from this version of qkz
        self._stack = []     # open spans, shared so each span gets its caller
        self._restore = []

    def install(self) -> "Tracer":
        observers = {
            "qseries.qbracket_poch": self._count_factors,
            "laumon.pair_weight": self._count_nonzero,
            "partitions.enumerate_pairs": self._count_pairs,
        }
        for idx, (module, path) in enumerate(LAYERS):
            key = self.keys[idx]
            if self.only is not None and key not in self.only:
                continue
            found = _resolve(module, path)
            if found is None:
                self.missing.append(key)
                continue
            owner, attr, fn = found
            if key == "scalars.sample_generic_point":
                observe = self._point_recorder(fn)
            else:
                observe = observers.get(key)
            wrapper = self._wrap(idx, fn, observe)
            if owner is sys.modules[f"qkz.{module}"]:
                sites = rebind(fn, wrapper)
            else:
                setattr(owner, attr, wrapper)
                sites = [(owner, attr)]
            self._restore.extend((site, name, fn) for site, name in sites)
        return self

    def uninstall(self) -> None:
        for site, name, fn in reversed(self._restore):
            setattr(site, name, fn)
        self._restore = []

    def _wrap(self, idx, fn, observe):
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = len(end)
            end.append(0)
            layer.append(idx)
            parent.append(stack[-1] if stack else -1)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        setattr(wrapper, _MARK, self.keys[idx])
        wrapper.__wrapped__ = fn
        return wrapper

    def _count_factors(self, args, kwargs, result):
        self.factors += args[2] if len(args) > 2 else kwargs["n"]

    def _count_nonzero(self, args, kwargs, result):
        self.nonzero += result != 0

    def _count_pairs(self, args, kwargs, result):
        self.pairs += len(result)

    def _point_recorder(self, fn):
        sig = inspect.signature(fn)

        def observe(args, kwargs, result):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self.points.append((bound.arguments["seed"], bound.arguments["guard"]))
        return observe

    def summary(self, cli_seeds=()) -> dict:
        """Per-layer calls, inclusive and self nanoseconds, and the counts.

        Inclusive time counts only the outermost span of a layer, so a
        layer that reaches itself again is not counted twice.  Self time is
        a span's duration minus the durations of its direct child spans.
        ``point_retries`` counts sample calls at a seed the command line did
        not name: the retry stride moved them off the suite seeds.
        """
        n = len(self.end)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        stats = {k: {"calls": 0, "incl_ns": 0, "self_ns": 0} for k in self.keys}
        for i in range(n):
            s = stats[self.keys[self.layer[i]]]
            s["calls"] += 1
            s["self_ns"] += dur[i] - child[i]
            p = self.parent[i]
            while p >= 0 and self.layer[p] != self.layer[i]:
                p = self.parent[p]
            if p < 0:
                s["incl_ns"] += dur[i]
        seeds = set(cli_seeds)
        return {
            "layers": stats,
            "factors": self.factors,
            "nonzero": self.nonzero,
            "pairs": self.pairs,
            "points": len(self.points),
            "distinct_points": len(set(self.points)),
            "point_retries": sum(1 for seed, _ in self.points if seed not in seeds),
            "missing": self.missing,
        }

    def write_spans(self, path) -> None:
        """All spans as gzip CSV: span, parent, layer, start_ns, end_ns."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,parent,layer,start_ns,end_ns\n")
            for i in range(len(self.end)):
                fh.write(f"{i},{self.parent[i]},{self.keys[self.layer[i]]},"
                         f"{self.start[i]},{self.end[i]}\n")
