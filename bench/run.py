"""The eulerward benchmark.

    python3 bench/run.py --workload tables-int --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  One process runs the workload's
passes one after another (a closed loop with one worker); each pass is a
fresh interpreter (``worker.py``) that imports the package from ``src``,
builds the seeded operation list and times each call.  Outputs are checked
against a plain-int oracle outside the timed region.  Passes repeat until
``--seconds`` would be exceeded, with at least ``MIN_PASSES`` of each kind.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones from traced passes, alternating with untraced passes for the tracing
overhead.  Metric names and units come from BENCHMARK.json.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
MIN_PASSES = 2
LATENCY_MIN_OPS = 100
DEADLINE_S = 170


class Run:
    """Passes of one workload and what they measured."""

    def __init__(self, workload, seed, deadline):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.ops = workloads.build(workload, seed)
        self.expected = json.dumps(workloads.expected_outputs(self.ops))
        self.setups = []
        self.passes = {"plain": [], "trace": [], "memory": []}
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def launch(self, mode):
        """One worker; its result dict, or None for a set-up probe or a failed pass."""
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        env.pop("PYTHONDONTWRITEBYTECODE", None)  # import from cached bytecode, as installs do
        argv = [sys.executable, str(BENCH / "worker.py"), self.workload, str(self.seed), mode]
        started = perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        timer = threading.Timer(max(1.0, self.deadline - perf_counter()), proc.kill)
        timer.start()
        try:
            try:
                proc.stdin.write("" if mode == "setup" else self.expected)
                proc.stdin.close()
            except BrokenPipeError:  # the worker died first; its exit code says why
                pass
            ready = proc.stdout.readline()
            setup = perf_counter() - started
            body = proc.stdout.read()
        finally:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            timer.cancel()
            proc.stdout.close()
        ok_start = ready.strip() == "ready" and proc.returncode == 0
        if ok_start and mode in ("setup", "plain"):
            self.setups.append(setup)
        if mode == "setup":
            if not ok_start:
                self.attempted += 1
                self.failed += 1
                self.errors.append("set-up failed (exit %s)" % proc.returncode)
            return None
        try:
            result = json.loads(body.strip().splitlines()[-1]) if ok_start else None
        except (ValueError, IndexError):
            result = None
        if result is None:
            self.attempted += len(self.ops)
            self.failed += len(self.ops)
            self.errors.append("%s pass failed (exit %s)" % (mode, proc.returncode))
            return None
        self.attempted += len(result["ops"])
        self.failed += sum(1 for op in result["ops"] if not op[3])
        if result["failure"]:
            self.errors.append(json.dumps(result["failure"]))
        result["wall"] = sum(op[1] for op in result["ops"])
        result["cpu"] = sum(op[2] for op in result["ops"])
        result["peak_rss_mb"] = usage.ru_maxrss * 1024 / 1e6
        result["duration"] = perf_counter() - started
        self.passes[mode].append(result)
        return result

    def measure(self, seconds, trace):
        self.launch("setup")  # warm-up: byte-compiles the package; not counted
        self.setups.clear()
        for _ in range(SETUP_PROBES):
            self.launch("setup")
        cycle = ["trace", "plain"] if trace else ["plain"]
        start = perf_counter()
        last = {}
        n = 0
        while perf_counter() < self.deadline:
            mode = cycle[n % len(cycle)]
            done = all(len(self.passes[m]) >= MIN_PASSES for m in cycle)
            if done and perf_counter() - start + last.get(mode, 0.0) > seconds:
                break
            result = self.launch(mode)
            n += 1
            if result is None:
                break
            last[mode] = result["duration"]
            first_trace = mode == "trace" and len(self.passes["trace"]) == 1
            if first_trace and result["layers"]["stirlingperm.objects"]:
                self.launch("memory")  # stirlingperm.peak_mb, only where enumeration ran

    def end_to_end(self):
        plain = self.passes["plain"]
        if not self.setups or not plain:
            return None
        return {
            "setup_s": statistics.median(self.setups),
            "wall_s": statistics.median(p["wall"] for p in plain),
            "cpu_s": statistics.median(p["cpu"] for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }

    def latency(self):
        """Per-operation p50 and p90 in ms: each pass's, median over passes.

        Only where a pass has LATENCY_MIN_OPS operations, so that p90 has ten
        samples beyond it.  They are printed but left out of the JSON result,
        whose end-to-end metrics must exist on every workload.
        """
        plain = self.passes["plain"]
        if len(self.ops) < LATENCY_MIN_OPS or not plain:
            return {}
        latencies = [[1e3 * op[1] for op in p["ops"]] for p in plain]
        return {
            "op_p50_ms": statistics.median(map(statistics.median, latencies)),
            "op_p90_ms": statistics.median(statistics.quantiles(x, n=10)[8] for x in latencies),
        }

    def per_layer(self, units):
        traced = self.passes["trace"]
        if not traced or not self.passes["plain"]:
            return None
        out = {}
        for name, unit in units.items():
            if name == "trace_overhead_ratio":
                plain = statistics.median(p["wall"] for p in self.passes["plain"])
                out[name] = statistics.median(p["wall"] for p in traced) / plain
            elif name == "stirlingperm.peak_mb":
                out[name] = max([p["enumeration_peak"] for p in self.passes["memory"]] + [0]) / 1e6
            elif unit in ("s", "1/s"):
                out[name] = statistics.median(p["layers"][name] for p in traced)
            else:
                values = {json.dumps(p["layers"][name]) for p in traced}
                if len(values) > 1:
                    self.errors.append("%s differs between traced passes: %s" % (name, values))
                out[name] = traced[0]["layers"][name]
        return out

    def summary(self, metrics, units):
        plain = self.passes["plain"]
        lines = [
            "# workload %s, seed %d: passes plain %d, trace %d, memory %d; %d ops per pass"
            % (
                self.workload,
                self.seed,
                len(plain),
                len(self.passes["trace"]),
                len(self.passes["memory"]),
                len(self.ops),
            ),
            "# setup samples %d" % len(self.setups),
        ]
        for mode, passes in self.passes.items():
            if passes:
                walls = " ".join("%.3f" % p["wall"] for p in passes)
                lines.append("# %s pass wall_s: %s" % (mode, walls))
        lines += ["%-40s %14.6g %s" % (name, metrics[name], units[name]) for name in units]
        if "wall_s" in units:
            lines += ["%-40s %14.6g ms" % item for item in self.latency().items()]
        lines.append(
            "%-40s %14.6g ratio  (%d of %d operations failed)"
            % ("fail_ratio", self.failed / max(1, self.attempted), self.failed, self.attempted)
        )
        lines += ["# error: %s" % e for e in self.errors[:5]]
        return lines


def environment():
    """Python version, nproc and the code under test, for every result."""
    try:
        commit = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit or "unknown (not a git checkout)",
        "src_sha256": h.hexdigest()[:16],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "eulerward" / "__init__.py").is_file():
        print("error: no eulerward package under %s; run from a checkout" % SRC, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    print("# eulerward benchmark %s" % json.dumps(environment(), sort_keys=True))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = perf_counter() + DEADLINE_S * len(names)
    metrics = {}
    attempted = failed = 0
    for name in names:
        run = Run(name, args.seed, deadline)
        run.measure(args.seconds, args.trace)
        got = run.per_layer(units) if args.trace else run.end_to_end()
        if got is None:  # nothing was measured; the failures say why
            got = dict.fromkeys(units, 0.0)
            run.failed = max(run.failed, 1)
            run.attempted = max(run.attempted, run.failed)
        print("\n".join(run.summary(got, units)), flush=True)
        prefix = name + "." if len(names) > 1 else ""
        metrics.update({prefix + m: {"value": got[m], "unit": units[m]} for m in units})
        attempted += run.attempted
        failed += run.failed
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
