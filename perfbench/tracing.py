"""Spans and counters recorded around the package's public functions, from outside.

`install` builds wrappers for module and class attributes of the package;
the returned `Patches` put them in place and take them out again.  Nothing
under the package's source changes: calls the package makes through those
attributes (``word_eval`` calling ``generator``, ``compose`` calling
``self.reduce()``, ``count_NK`` calling ``d_of_K``) pass through the
wrappers too, so nested spans nest.

Per name the tracer keeps
* ``calls``: every entry into the wrapper;
* ``busy``: wall time of calls not nested inside a call of the same name;
* ``self``: wall time minus the time covered by traced child spans.

`cantor.interval` recurses through its own module global.  Its wrapper puts
the original function back while it runs, so the recursion adds no frames
(deep queries hit the recursion limit at the same depth as untraced) and its
``calls`` count only calls from outside ``interval``.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.maxima = defaultdict(int)
        self.samples = defaultdict(list)  # name -> [(size, seconds)]
        self._stack = []  # open spans: [name, seconds covered by children]
        self._depth = Counter()

    def span(self, name, fn, on_done=None, restore=None):
        """Wrap fn in a span; `name` may be a callable of the call's args.

        on_done(tracer, seconds, args, result) runs after every call, with
        result None when the call raised.  restore=(owner, attr) puts fn back
        on owner while the call runs (for self-recursive functions).
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            tracer.calls[label] += 1
            frame = [label, 0.0]
            tracer._stack.append(frame)
            tracer._depth[label] += 1
            if restore is not None:
                setattr(restore[0], restore[1], fn)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = time.perf_counter() - t0
                if restore is not None:
                    setattr(restore[0], restore[1], wrapper)
                tracer._depth[label] -= 1
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += dt
                if tracer._depth[label] == 0:
                    tracer.busy[label] += dt
                tracer.self_time[label] += dt - frame[1]
                if on_done is not None:
                    on_done(tracer, dt, args, result)

        return wrapper

    def counter(self, name, init):
        counts = self.counts

        @functools.wraps(init)
        def __init__(obj, *args, **kwargs):
            counts[name] += 1
            init(obj, *args, **kwargs)

        return __init__


def _on_word_eval(tracer, dt, args, result):
    # fitted over positive words in f0, f1 (F words and powers): their reduced
    # pairs keep one leaf per letter, as in a size sweep of random F words
    if result is not None and all(e > 0 and name in ("f0", "f1") for name, e in args[0]):
        tracer.samples["treepair.word_eval"].append((result.nleaves, dt))


def _on_reduce(tracer, dt, args, result):
    n_in = args[0].nleaves
    tracer.counts["treepair.reduce.leaves_in"] += n_in
    tracer.maxima["treepair.leaves_in"] = max(tracer.maxima["treepair.leaves_in"], n_in)
    if result is not None:
        tracer.counts["treepair.reduce.leaves_removed"] += n_in - result.nleaves


def _on_interval(tracer, dt, args, result):
    if result is not None:
        bits = max(result.lo.denominator.bit_length(), result.hi.denominator.bit_length())
        tracer.maxima["cantor.endpoint_bits"] = max(tracer.maxima["cantor.endpoint_bits"], bits)


def _on_d_of_K(tracer, dt, args, result):
    # fitted over the float omega_k families, whose per-depth cost does not grow with depth
    if args[0].family == "omega_k":
        tracer.samples["geometry.d_of_K"].append((args[2], dt))


def _kernel_points(label, out_bytes):
    # bytes computed from the call's shapes (complex128 in, complex128 or int64 out), not measured
    def on_done(tracer, dt, args, result):
        n = args[0].size
        tracer.counts[label + ".points"] += n
        tracer.counts["kernels.bytes_computed"] += n * (16 + out_bytes)

    return on_done


class Patches:
    """Wrappers installed on the package; `on()` and `off()` switch them, so oracles run untraced."""

    def __init__(self):
        self._items = []  # (owner, attr, original, wrapper)

    def add(self, owner, attr, wrapper):
        self._items.append((owner, attr, getattr(owner, attr), wrapper))

    def on(self):
        for owner, attr, _, wrapper in self._items:
            setattr(owner, attr, wrapper)

    def off(self):
        for owner, attr, original, _ in reversed(self._items):
            setattr(owner, attr, original)


def install(tracer: Tracer, m: dict) -> Patches:
    """Build wrappers for the layer boundaries of the package modules `m` (switched off until `on()`)."""
    patches = Patches()

    def span(owner, attr, name, **kw):
        patches.add(owner, attr, tracer.span(name, getattr(owner, attr), **kw))

    def counter(owner, name):
        patches.add(owner, "__init__", tracer.counter(name, owner.__init__))

    tp, th, ca, ge, ke = m["treepair"], m["theta"], m["cantor"], m["geometry"], m["_kernels"]
    counter(m["dyadic"].Dyadic, "dyadic.new")
    counter(tp.Tree, "treepair.tree_new")
    counter(m["pantstree"].PantsSubtree, "pantstree.subtree_new")

    span(tp, "word_eval", "treepair.word_eval", on_done=_on_word_eval)
    span(tp, "generator", "treepair.generator")
    span(tp.TreePair, "__pow__", "treepair.pow")
    span(tp.TreePair, "reduce", "treepair.reduce", on_done=_on_reduce)
    span(tp.TreePair, "compose", "treepair.compose")
    span(tp.TreePair, "to_pl_map", "treepair.to_pl_map")
    span(tp.PLMap, "eval", "treepair.plmap_eval")

    for attr in ("realize", "theta", "compose_classes"):
        span(th, attr, "theta." + attr)

    span(ca, "interval", "cantor.interval", on_done=_on_interval, restore=(ca, "interval"))
    for attr in ("gap", "circle", "interval_length"):
        span(ca, attr, "cantor." + attr)
    span(ca, "brd_check", lambda args: "cantor.brd_check_exact" if args[0].is_exact
         else "cantor.brd_check_float")

    span(ge, "depth_scale", "geometry.depth_scale")
    span(ge, "d_of_K", "geometry.d_of_K", on_done=_on_d_of_K)
    span(ge, "count_NK", "geometry.count_NK")
    span(ge, "twist_dilatation", "geometry.twist_dilatation")

    for attr, out_bytes in (("psi0_apply", 16), ("psi1_apply", 16), ("region_ids", 8)):
        span(ke, attr, "kernels." + attr, on_done=_kernel_points("kernels." + attr, out_bytes))
    return patches
