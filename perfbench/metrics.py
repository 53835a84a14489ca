"""Names, units and directions of every metric the benchmark prints.

BENCHMARK.json lists the same metrics; a self-test keeps the two equal.
A per-layer metric reads 0 on a workload that does not exercise its layer.
"""

from __future__ import annotations

from stats import loglog_slope, median

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("ok_ratio", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

_TIMED = (
    "treepair.word_eval", "treepair.generator", "treepair.pow", "treepair.reduce",
    "treepair.to_pl_map", "treepair.plmap_eval",
)
_CANTOR = ("cantor.interval", "cantor.gap", "cantor.circle", "cantor.interval_length")

PER_LAYER = (
    (("dyadic.new.count", "count", "lower"),)
    + tuple(m for n in _TIMED for m in ((n + ".busy_s", "s", "lower"), (n + ".calls", "count", "lower")))
    + (
        ("treepair.compose.self_s", "s", "lower"),
        ("treepair.compose.calls", "count", "lower"),
        ("treepair.tree_new.count", "count", "lower"),
        ("treepair.reduce.cancel_ratio", "ratio", "higher"),
        ("treepair.leaves_in.max", "count", "lower"),
        ("treepair.word_eval.slope", "1", "lower"),
        ("theta.realize.busy_s", "s", "lower"),
        ("theta.theta.busy_s", "s", "lower"),
        ("theta.compose_classes.busy_s", "s", "lower"),
        ("pantstree.subtree_new.count", "count", "lower"),
    )
    + tuple(m for n in _CANTOR for m in ((n + ".busy_s", "s", "lower"), (n + ".calls", "count", "lower")))
    + (
        ("cantor.brd_check_exact.busy_s", "s", "lower"),
        ("cantor.brd_check_float.busy_s", "s", "lower"),
        ("cantor.endpoint_bits.max", "bits", "lower"),
        ("cantor.repeat_query_share", "ratio", "higher"),
        ("geometry.depth_scale.busy_s", "s", "lower"),
        ("geometry.d_of_K.busy_s", "s", "lower"),
        ("geometry.count_NK.busy_s", "s", "lower"),
        ("geometry.twist_dilatation.busy_s", "s", "lower"),
        ("geometry.d_of_K.slope", "1", "lower"),
        ("kernels.psi0_apply.mpts_per_s", "Mpts/s", "higher"),
        ("kernels.psi1_apply.mpts_per_s", "Mpts/s", "higher"),
        ("kernels.region_ids.busy_s", "s", "lower"),
        ("kernels.bytes_computed", "B", "lower"),
        ("cli.interp_start_s", "s", "lower"),
        ("cli.import_s", "s", "lower"),
        ("cli.import_numpy_s", "s", "lower"),
        ("cli.import_numpy_share", "ratio", "lower"),
        ("cli.run_s", "s", "lower"),
        ("env.calib_s", "s", "lower"),
        ("env.calib_drift", "ratio", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    )
)

# word_eval calls below this many reduced leaves are dominated by fixed costs
SLOPE_MIN_LEAVES = 16


def layer_values(tracer) -> dict:
    """Per-layer values recorded by an in-process traced pass (layers it did not touch read 0)."""
    out = {"dyadic.new.count": tracer.counts["dyadic.new"]}
    for name in _TIMED + _CANTOR:
        out[name + ".busy_s"] = tracer.busy[name]
        out[name + ".calls"] = tracer.calls[name]
    leaves_in = tracer.counts["treepair.reduce.leaves_in"]
    out.update({
        "treepair.compose.self_s": tracer.self_time["treepair.compose"],
        "treepair.compose.calls": tracer.calls["treepair.compose"],
        "treepair.tree_new.count": tracer.counts["treepair.tree_new"],
        "treepair.reduce.cancel_ratio":
            tracer.counts["treepair.reduce.leaves_removed"] / leaves_in if leaves_in else 0.0,
        "treepair.leaves_in.max": tracer.maxima["treepair.leaves_in"],
        "treepair.word_eval.slope": loglog_slope(
            (n, t) for n, t in tracer.samples["treepair.word_eval"] if n >= SLOPE_MIN_LEAVES),
        "theta.realize.busy_s": tracer.busy["theta.realize"],
        "theta.theta.busy_s": tracer.busy["theta.theta"],
        "theta.compose_classes.busy_s": tracer.busy["theta.compose_classes"],
        "pantstree.subtree_new.count": tracer.counts["pantstree.subtree_new"],
        "cantor.brd_check_exact.busy_s": tracer.busy["cantor.brd_check_exact"],
        "cantor.brd_check_float.busy_s": tracer.busy["cantor.brd_check_float"],
        "cantor.endpoint_bits.max": tracer.maxima["cantor.endpoint_bits"],
        "geometry.depth_scale.busy_s": tracer.busy["geometry.depth_scale"],
        "geometry.d_of_K.busy_s": tracer.busy["geometry.d_of_K"],
        "geometry.count_NK.busy_s": tracer.busy["geometry.count_NK"],
        "geometry.twist_dilatation.busy_s": tracer.busy["geometry.twist_dilatation"],
        "geometry.d_of_K.slope": loglog_slope(tracer.samples["geometry.d_of_K"]),
        "kernels.region_ids.busy_s": tracer.busy["kernels.region_ids"],
        "kernels.bytes_computed": tracer.counts["kernels.bytes_computed"],
    })
    for name in ("kernels.psi0_apply", "kernels.psi1_apply"):
        busy = tracer.busy[name]
        out[name + ".mpts_per_s"] = tracer.counts[name + ".points"] / busy / 1e6 if busy else 0.0
    return out


def parse_importtime(stderr: str) -> dict:
    """Cumulative import seconds by module name from `python -X importtime` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        out.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return out


def cli_values(interp_s, import_s, numpy_s, run_s) -> dict:
    imp = median(import_s) if import_s else 0.0
    npy = median(numpy_s) if numpy_s else 0.0
    return {
        "cli.interp_start_s": median(interp_s) if interp_s else 0.0,
        "cli.import_s": imp,
        "cli.import_numpy_s": npy,
        "cli.import_numpy_share": npy / imp if imp else 0.0,
        "cli.run_s": median(run_s) if run_s else 0.0,
    }
