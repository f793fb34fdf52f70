"""One ``qkz verify`` in a fresh interpreter, as a command-line user runs it.

    python3 child.py RESULT SRC MODE SPANS verify SUITE_ID [options...]

Imports ``qkz.cli`` from SRC (and fails with exit 4 if it would come from
anywhere else), calls ``qkz.cli.main`` with the remaining arguments, and
writes RESULT as JSON:

- ``t_run``: ``time.monotonic()`` when ``run_suite`` is entered, i.e. once
  the interpreter has started, the package is imported, the command line is
  parsed and the config is built.  The parent took its own monotonic
  reading before spawning, so the difference is the set-up time.
- ``t_done``: when ``main`` returned, after the report was written.
- ``rc``: the exit code ``main`` returned.
- ``maxrss_kb``: peak resident set of this process (see ``peak_rss_kb``).
- ``wrapped_at_run`` / ``wrapped_after``: traced layers found wrapped when
  ``run_suite`` began and after tracing was removed.
- ``trace``: per-layer summary unless MODE is ``none``; the spans go to
  SPANS.  MODE ``all`` traces every layer of ``tracer.LAYERS``, and a layer
  key such as ``laumon.pair_weight`` traces that layer only.
"""

import json
import os
import resource
import sys
import time


def peak_rss_kb() -> int:
    """Peak resident set of this process since its exec.

    ``ru_maxrss`` would also count the spawning process's resident set,
    which Linux carries across exec; VmHWM belongs to the new image only.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    result_path, src, mode = sys.argv[1], sys.argv[2], sys.argv[3]
    spans_path, argv = sys.argv[4], sys.argv[5:]

    import qkz.cli
    import qkz.scalars
    import qkz.suites

    import tracer

    here = os.path.realpath(qkz.cli.__file__)
    if not here.startswith(os.path.realpath(src) + os.sep):
        print(f"qkz imported from {here}, not from {src}", file=sys.stderr)
        return 4

    marks = {}
    original_run_suite = qkz.suites.run_suite

    def run_suite(cfg):
        marks["wrapped_at_run"] = tracer.wrapped_layers()
        marks["t_run"] = time.monotonic()
        return original_run_suite(cfg)

    boundary = tracer.rebind(original_run_suite, run_suite)
    layers = None
    if mode != "none":
        layers = tracer.Tracer(None if mode == "all" else (mode,)).install()
    try:
        rc = qkz.cli.main(argv)
        t_done = time.monotonic()
    finally:
        if layers is not None:
            layers.uninstall()
        for mod, name in boundary:
            setattr(mod, name, original_run_suite)

    result = {
        "t_run": marks["t_run"],
        "t_done": t_done,
        "rc": rc,
        "maxrss_kb": peak_rss_kb(),
        "wrapped_at_run": marks["wrapped_at_run"],
        "wrapped_after": tracer.wrapped_layers(),
        "backend": f"{qkz.scalars.Rat.__module__}.{qkz.scalars.Rat.__name__}",
    }
    if layers is not None:
        seeds = [int(argv[i + 1]) for i, a in enumerate(argv) if a == "--seed"]
        result["trace"] = layers.summary(seeds)
        layers.write_spans(spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
