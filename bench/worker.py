"""One pass of a workload, in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED MODE

MODE is ``plain`` (tracing off), ``trace`` (per-layer spans),
``memory`` (tracemalloc around enumeration) or ``setup`` (stop once ready).
``run.py`` starts this with ``src`` on PYTHONPATH and reads two lines from
its stdout: ``ready`` once the package is imported and the operations are
built, then one JSON object with the pass's results.  The oracle digests for
the integer-table operations arrive as JSON on stdin.  Every ``lru_cache``
in the package is cold, as it is for each ``eulerward`` command.
"""

from __future__ import annotations

import json
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

import workloads


def _memory_releaser():
    """gc plus glibc's malloc_trim, or just gc where there is no glibc.

    Each `eulerward` command starts with a fresh heap.  Handing freed memory
    back between operations keeps one operation's leftovers out of the next
    one's peak RSS, which would otherwise depend on the order they ran in.
    """
    import ctypes
    import gc

    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return gc.collect
    return lambda: (gc.collect(), trim(0))


def main(workload, seed, mode):
    proto = sys.stdout
    import eulerward
    import eulerward.cli  # noqa: F401  (the package does not import its CLI)

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(eulerward.__file__).resolve().parent.parent != src:
        print("eulerward imported from %s, not %s" % (eulerward.__file__, src), file=sys.stderr)
        return 2
    ops = workloads.build(workload, seed)
    probe = None
    if mode in ("trace", "memory"):
        import tracer

        probe = tracer.Tracer() if mode == "trace" else tracer.MemoryProbe()
        probe.install()
    print("ready", file=proto, flush=True)
    if mode == "setup":
        return 0

    expected = json.loads(sys.stdin.read() or "{}")
    release_memory = _memory_releaser()
    results = []
    first_failure = None
    for i, op in enumerate(ops):
        run, check = workloads.RUNNERS[op.kind]
        error = None
        if probe:
            probe.active = True
        c0, t0 = process_time(), perf_counter()
        out = None
        try:
            out = run(eulerward, *op.args)
        except Exception:
            error = traceback.format_exc(limit=3)
        t1, c1 = perf_counter(), process_time()
        if probe:
            probe.active = False
        if mode == "trace" and isinstance(out, tuple) and isinstance(out[-1], workloads.Sink):
            probe.counts["bytes_out"] += out[-1].size
        if error is None:
            try:
                ok = bool(check(out, op.args, expected.get(str(i))))
            except Exception:
                ok, error = False, traceback.format_exc(limit=3)
            del out
        ok = error is None and ok
        if not ok and first_failure is None:
            first_failure = {"op": op._asdict(), "error": error}
        results.append([op.kind, t1 - t0, c1 - c0, ok])
        release_memory()

    payload = {"ops": results, "failure": first_failure}
    if mode == "trace":
        payload["layers"] = probe.metrics()
    elif mode == "memory":
        payload["enumeration_peak"] = probe.peak
    print(json.dumps(payload), file=proto, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2]), sys.argv[3]))
