"""One benchmark process: set up a workload, then run it when told to.

Started by run.py.  The worker imports what its workload needs, generates
the first input blocks, prints ``READY`` and reads one command line from
stdin: ``quit``, or a JSON object ``{"seconds": s, "blocks": n}`` that runs
whole blocks until the ops' summed latency reaches s seconds, or exactly n
blocks when n > 0.  It then prints one JSON result line and exits.

Ops run back to back from this single thread (a closed loop with one
client).  An op's latency covers the package call only; its oracle check
runs after the clock stops, so checking never counts as op time.
"""

from __future__ import annotations

import argparse
import importlib
import io
import itertools
import json
import os
import resource
import signal
import subprocess
import sys
import time
from collections import Counter

import metrics
import oracles
import stats
import workloads

PREGENERATED_BLOCKS = 16
# peak RSS is read after this many blocks, so it measures a fixed amount of
# work however fast the blocks ran (the endpoint memo grows with every op)
RSS_BLOCKS = 3
OP_TIMEOUT_S = 30.0
LOOP_DEADLINE_S = 120.0


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


class Loop:
    """Counts outcomes and latencies of one measured pass."""

    def __init__(self):
        self.latencies = []
        self.block_ops_per_s = []
        self.failures = Counter()  # "<kind>:<reason>" -> count
        self.wrong = 0
        self.unexpected = 0
        self.examples = []

    def record(self, op_kind, seconds, error, reason):
        """error: exception name the op raised or None; reason: oracle's complaint or None."""
        self.latencies.append(seconds)
        if reason is None:
            return
        if error is not None and (op_kind, error) in oracles.KNOWN_FAILURES:
            self.failures[f"{op_kind}:{error}"] += 1
            return
        if error is None:
            self.wrong += 1
            self.failures[f"{op_kind}:wrong"] += 1
        else:
            self.unexpected += 1
            self.failures[f"{op_kind}:{error}"] += 1
        if len(self.examples) < 5:
            self.examples.append(f"{op_kind}: {reason}")

    def end_block(self, first_op: int):
        """Close the block whose ops start at index `first_op` of the latencies."""
        ops = self.latencies[first_op:]
        self.block_ops_per_s.append(len(ops) / sum(ops))

    def summary(self, blocks: int, tail_p: float) -> dict:
        n = len(self.latencies)
        p = stats.tail_percentile(n, tail_p)
        return {
            "attempted": n,
            "failed": sum(self.failures.values()),
            "wrong": self.wrong,
            "unexpected": self.unexpected,
            "failures": dict(self.failures),
            "examples": self.examples,
            "blocks": blocks,
            "busy_s": sum(self.latencies),
            # every block costs about the same, so the median block damps a burst of machine noise
            "ops_per_s": stats.median(self.block_ops_per_s),
            "p50_ms": stats.median(self.latencies) * 1e3,
            "tail_ms": stats.percentile(self.latencies, p) * 1e3,
            "tail_percentile": p,
            "tail_beyond": sum(1 for x in self.latencies if x > stats.percentile(self.latencies, p)),
        }


def _peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _blocks(workload, seed, n_golden):
    b = 0
    while True:
        yield workloads.block(workload, seed, b, n_golden)
        b += 1


def _finished(command, done, loop, start) -> bool:
    """Stop after `blocks` blocks, or once the ops' summed latency reaches `seconds`."""
    if time.perf_counter() - start > LOOP_DEADLINE_S:
        return True
    if command["blocks"]:
        return done >= command["blocks"]
    return sum(loop.latencies) >= command["seconds"]


def _timed(fn, *args):
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    t0 = time.perf_counter()
    try:
        return fn(*args), None, time.perf_counter() - t0
    except OpTimeout:
        return None, "timeout", time.perf_counter() - t0
    except Exception as exc:  # an op's failure is data: count it and keep going
        return None, type(exc).__name__, time.perf_counter() - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_inprocess(workload, mods, blocks, command, tracer=None, patches=None):
    loop = Loop()
    word_oracle = oracles.WordOracle(mods["treepair"]) if workload == "algebra_words" else None
    execute = workloads.run_algebra if workload == "algebra_words" else workloads.run_cantor
    seen, repeats, queries = set(), 0, 0
    start = time.perf_counter()
    done, peak_rss = 0, 0.0
    for block in blocks:
        first_op = len(loop.latencies)
        for op in block:
            if patches is not None:
                patches.on()
            out, error, dt = _timed(execute, op, mods)
            if patches is not None:
                patches.off()
                for key in workloads.query_keys(op):
                    queries += 1
                    repeats += key in seen
                    seen.add(key)
            if workload == "algebra_words":
                reason = f"raised {error}" if error else oracles.check_algebra(word_oracle, op, out)
            else:
                reason = oracles.check_cantor(mods, op, out, error)
            loop.record(op["kind"], dt, error, reason)
            del out
        loop.end_block(first_op)
        done += 1
        if done == RSS_BLOCKS:
            peak_rss = _peak_rss_mb()
        if _finished(command, done, loop, start):
            break
    result = loop.summary(done, 90.0)
    result["peak_rss_mb"] = peak_rss if done >= RSS_BLOCKS else _peak_rss_mb()
    if tracer is not None:
        layers = metrics.layer_values(tracer)
        layers["cantor.repeat_query_share"] = repeats / queries if queries else 0.0
        result["layers"] = layers
    return result


def run_cli(root, golden, blocks, command, traced):
    loop = Loop()
    src = os.path.join(root, "src")
    env = dict(os.environ, PYTHONPATH=src)
    interp, imports, numpy_imports, in_process = [], [], [], []
    if traced:
        workloads.package_modules(src)
        cli = importlib.import_module("cantorthompson.cli")

        for _ in range(5):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=root, check=True)
            interp.append(time.perf_counter() - t0)
    flags = ["-X", "importtime"] if traced else []
    start = time.perf_counter()
    done = 0
    for block in blocks:
        first_op = len(loop.latencies)
        for op in block:
            name, argv, want_code, want = golden[op["golden"]]
            t0 = time.perf_counter()
            try:
                proc = subprocess.run([sys.executable, *flags, "-m", "cantorthompson.cli", *argv],
                                      capture_output=True, env=env, cwd=root, timeout=60)
                error = None
            except subprocess.TimeoutExpired:
                proc, error = None, "timeout"
            dt = time.perf_counter() - t0
            if error:
                reason = "timed out"
            elif proc.returncode != want_code:
                reason = f"{name}: exit {proc.returncode}, want {want_code}"
            elif proc.stdout != want:
                reason = f"{name}: stdout differs from the golden bytes"
            else:
                reason = None
            if traced and proc is not None:
                times = metrics.parse_importtime(proc.stderr.decode("utf-8", "replace"))
                imports.append(times.get("cantorthompson", 0.0))
                numpy_imports.append(times.get("numpy", 0.0))
                out, err = io.StringIO(), io.StringIO()
                t0 = time.perf_counter()
                code = cli.run(list(argv), out=out, err=err)
                in_process.append(time.perf_counter() - t0)
                if reason is None and (code != want_code or out.getvalue().encode() != want):
                    reason = f"{name}: in-process cli.run differs from the golden bytes"
            loop.record("cli", dt, error, reason)
        loop.end_block(first_op)
        done += 1
        if _finished(command, done, loop, start):
            break
    result = loop.summary(done, 75.0)
    # the largest resident set of any CLI process this worker waited for
    result["peak_rss_mb"] = _peak_rss_mb(resource.RUSAGE_CHILDREN)
    if traced:
        result["layers"] = metrics.cli_values(interp, imports, numpy_imports, in_process)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, _alarm)

    golden, mods, tracer, patches = [], None, None, None
    if args.workload == "cli_cold":
        golden = workloads.read_golden(args.root)
    else:
        mods = workloads.package_modules(os.path.join(args.root, "src"))
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            patches = tracing.install(tracer, mods)
    source = _blocks(args.workload, args.seed, len(golden))
    first = [next(source) for _ in range(PREGENERATED_BLOCKS)]
    print("READY " + json.dumps({"digest": workloads.digest(first)}), flush=True)

    line = sys.stdin.readline().strip()
    if line in ("", "quit"):
        return 0
    command = json.loads(line)
    blocks = itertools.chain(first, source)

    calib_start = stats.calibrate()
    if args.workload == "cli_cold":
        result = run_cli(args.root, golden, blocks, command, bool(args.trace))
    else:
        result = run_inprocess(args.workload, mods, blocks, command, tracer, patches)
    calib_end = stats.calibrate()
    result["calib_start_s"] = calib_start
    result["calib_end_s"] = calib_end
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
