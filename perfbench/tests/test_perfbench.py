"""Self-tests of the benchmark: seeded inputs, oracles, metric names, refusal without source.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import copy
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import metrics  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

MODS = workloads.package_modules(os.path.join(ROOT, "src"))
N_GOLDEN = len(workloads.read_golden(ROOT))

# sha256 of blocks 0..3 at seed 1; changes only when input generation changes
DIGESTS = {
    "algebra_words": "5ba9f8a83d82cc21a483a2a3d1c37c43ee084c15cf12742c47321937d452c5bb",
    "cantor_geometry": "d4a459aae3951b1f405bd74b7dd8da614cbe5edabd411e733043d88714794d69",
    "cli_cold": "16cbe95252dba2a6053324113c2c5cc7788afc4df6384eb8db81717f7d08c7c8",
}


def _blocks(workload, seed, n=4):
    return [workloads.block(workload, seed, b, N_GOLDEN) for b in range(n)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    digest = workloads.digest(_blocks(workload, 1))
    assert digest == workloads.digest(_blocks(workload, 1))
    assert digest == DIGESTS[workload]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_other_inputs(workload):
    assert workloads.digest(_blocks(workload, 1)) != workloads.digest(_blocks(workload, 2))


def test_golden_invocations_are_read_from_the_cli_tests():
    golden = workloads.read_golden(ROOT)
    assert len(golden) == 12
    assert golden[0][:3] == ("01_word_f0f1inv", ["word", "f0 f1^-1"], 0)
    assert all(want for _, _, _, want in golden)


def _op(workload, kind, seed=3):
    for b in range(8):
        for op in workloads.block(workload, seed, b):
            if op["kind"] == kind or op.get("slot") == kind:
                return op
    raise LookupError(kind)


ALGEBRA_PERTURBATIONS = {
    "value": lambda out, m: out["values"].__setitem__(0, out["values"][0] + m["dyadic"].Dyadic(1, 40)),
    "class": lambda out, m: out.__setitem__("class", "V" if out["class"] != "V" else "F"),
    "back": lambda out, m: out.__setitem__("back", out["back"] * m["treepair"].generator("f0")),
    "square": lambda out, m: out.__setitem__("square", out["pair"]),
}


@pytest.mark.parametrize("what", sorted(ALGEBRA_PERTURBATIONS))
def test_algebra_oracle_rejects_a_perturbed_answer(what):
    oracle = oracles.WordOracle(MODS["treepair"])
    op = next(op for op in workloads.algebra_block(3, 0) if op["kind"] == "F" and len(op["word"]) > 4)
    out = workloads.run_algebra(op, MODS)
    assert oracles.check_algebra(oracle, op, out) is None
    ALGEBRA_PERTURBATIONS[what](out, MODS)
    assert oracles.check_algebra(oracle, op, out) is not None


def _shift_first_level(out):
    k = max(out["levels"])
    (a, b), rest = out["levels"][k][0], out["levels"][k][1:]
    out["levels"][k] = [(a, b + Fraction(1, 10**9))] + rest


CANTOR_PERTURBATIONS = {
    "enum_interval": _shift_first_level,
    "enum_gap": _shift_first_level,
    "enum_circle": _shift_first_level,
    "deep_mid": lambda out: out.__setitem__("lo", out["lo"] + Fraction(1, 2**5000)),
    "brd_exact": lambda out: out.__setitem__("status", "fails"),
    "brd_float": lambda out: out.__setitem__("witness", 7),
    "d_of_K": lambda out: out.__setitem__("d", out.get("d", 0) + 1),
    "count_NK": lambda out: out.__setitem__("N", out.get("N", 0) + 2),
    "twist_Psi0": lambda out: out.__setitem__("K", out["K"] * 1.2),
    "twist_composed": lambda out: out.__setitem__("K", 0.5),
}


@pytest.mark.parametrize("slot", sorted(CANTOR_PERTURBATIONS))
def test_cantor_oracle_rejects_a_perturbed_answer(slot):
    op = _op("cantor_geometry", slot)
    if slot in ("d_of_K", "count_NK"):
        # a geometric family certifies, so the op returns a value
        op = dict(op, omega="geometric:1/8,1/8", horizon=1000, K=1.2)
    if slot == "deep_mid":
        op = dict(op, depth=300, index=12345)
    out, error, _ = worker._timed(workloads.run_cantor, op, MODS)
    assert error is None and oracles.check_cantor(MODS, op, out, None) is None
    bad = copy.deepcopy(out)
    CANTOR_PERTURBATIONS[slot](bad)
    assert oracles.check_cantor(MODS, op, bad, None) is not None


def test_refusal_counts_as_success_only_when_the_recount_agrees():
    op = {"kind": "d_of_K", "omega": "omega_k:1", "horizon": 1000, "K": 1.2}
    assert oracles.check_cantor(MODS, op, None, "NotFoundWithinHorizon") is None
    op = {"kind": "d_of_K", "omega": "geometric:1/8,1/8", "horizon": 1000, "K": 1.2}
    assert oracles.check_cantor(MODS, op, None, "NotFoundWithinHorizon") is not None


def test_deep_query_past_the_recursion_limit_is_a_known_failure():
    op = {"kind": "deep", "omega": "explicit:1/3", "depth": 1500, "index": 1}
    out, error, _ = worker._timed(workloads.run_cantor, op, MODS)
    loop = worker.Loop()
    loop.record("deep", 0.1, error, oracles.check_cantor(MODS, op, out, error))
    loop.record("enum", 0.1, None, "endpoints differ")
    loop.record("brd", 0.1, "ValueError", "raised ValueError")
    loop.end_block(0)
    summary = loop.summary(1, 90.0)
    assert summary["failures"] == {"deep:RecursionError": 1, "enum:wrong": 1, "brd:ValueError": 1}
    assert (summary["failed"], summary["wrong"], summary["unexpected"]) == (3, 1, 1)


def test_cli_oracle_rejects_perturbed_golden_bytes():
    golden = workloads.read_golden(ROOT)
    name, argv, code, want = golden[1]
    bad = [(name, argv, code, want + b"x")]
    blocks = [[{"kind": "cli", "golden": 0}]]
    result = worker.run_cli(ROOT, bad, iter(blocks), {"seconds": 0, "blocks": 1}, False)
    assert (result["attempted"], result["wrong"]) == (1, 1)
    result = worker.run_cli(ROOT, [golden[1]], iter(blocks), {"seconds": 0, "blocks": 1}, False)
    assert (result["attempted"], result["failed"]) == (1, 0)


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    as_listed = lambda rows: [(m["name"], m["unit"], m["better"]) for m in rows]  # noqa: E731
    assert as_listed(spec["end_to_end"]) == list(metrics.END_TO_END)
    assert as_listed(spec["per_layer"]) == list(metrics.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "algebra_words",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
