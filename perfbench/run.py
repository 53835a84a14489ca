"""Benchmark entry point: run one workload from a seed and print its metrics.

    python3 perfbench/run.py --workload algebra_words --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The line before it records the environment and the details
behind the numbers (tail percentile and sample count, failures by kind).
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS")


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _git_sha(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), encoding="ascii") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def _src_digest(src: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment(root: str, args) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "git_sha": _git_sha(root),
        "src_sha256": _src_digest(os.path.join(root, "src")),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Worker:
    """A worker process, timed from spawn to READY."""

    def __init__(self, root, env, workload, seed, trace):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
               "--seed", str(seed), "--root", root, "--trace", str(trace)]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=env, cwd=root, text=True)
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0
        if not line.startswith("READY "):
            self.close()
            raise RuntimeError(f"worker for {workload} did not start (exit {self.proc.returncode})")
        self.digest = json.loads(line[6:])["digest"]

    def run(self, seconds: float = 0.0, blocks: int = 0) -> dict:
        command = json.dumps({"seconds": seconds, "blocks": blocks})
        out, _ = self.proc.communicate(command + "\n", timeout=170)
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def close(self):
        """Stop the worker if it still runs (idle set-up samples, a run that timed out) and reap it."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()


def measure(root, env, args) -> tuple:
    """--trace 0: median set-up over SETUP_SAMPLES spawns; the last one runs the workload."""
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        worker = Worker(root, env, args.workload, args.seed, 0)
        setups.append(worker.setup_s)
        worker.close()
    worker = Worker(root, env, args.workload, args.seed, 0)
    setups.append(worker.setup_s)
    try:
        result = worker.run(seconds=args.seconds)
    finally:
        worker.close()
    n = result["attempted"]
    values = {
        "setup_s": stats.median(setups),
        "ops_per_s": result["ops_per_s"],
        "op_p50_ms": result["p50_ms"],
        "op_tail_ms": result["tail_ms"],
        "ok_ratio": (n - result["failed"]) / n,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    result["setup_samples_s"] = setups
    result["inputs_sha256"] = worker.digest
    return values, result


def trace(root, env, args) -> tuple:
    """--trace 1: an untraced pass for half the time, then a traced pass over the same blocks."""
    worker = Worker(root, env, args.workload, args.seed, 0)
    try:
        plain = worker.run(seconds=args.seconds / 2.0)
    finally:
        worker.close()
    worker = Worker(root, env, args.workload, args.seed, 1)
    try:
        result = worker.run(blocks=plain["blocks"])
    finally:
        worker.close()
    values = dict.fromkeys((m[0] for m in metrics.PER_LAYER), 0.0)
    values.update(result.pop("layers"))
    values["env.calib_s"] = result["calib_start_s"]
    values["env.calib_drift"] = result["calib_end_s"] / result["calib_start_s"]
    values["trace.overhead_ratio"] = result["busy_s"] / plain["busy_s"]
    result["untraced_busy_s"] = plain["busy_s"]
    result["inputs_sha256"] = worker.digest
    return values, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cantorthompson", "__init__.py")):
        return _fail(f"no package source under {src}; run from the repository root")
    if args.workload == "cli_cold" and not os.path.isfile(os.path.join(root, "tests", "test_cli.py")):
        return _fail("cli_cold needs tests/test_cli.py and tests/golden/")

    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    # build: byte-compile the package once, so no measured process pays for it
    compileall.compile_dir(src, quiet=1)

    info = environment(root, args)
    try:
        values, result = (trace if args.trace else measure)(root, env, args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        return _fail(f"run failed: {exc}")

    wanted = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    units = {name: unit for name, unit, _ in wanted}
    result["env"] = info
    print(json.dumps({"detail": result}, sort_keys=True))
    print(json.dumps({
        "correct": result["wrong"] == 0 and result["unexpected"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
