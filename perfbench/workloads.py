"""Seeded inputs and op execution for the three workloads.

Inputs come in blocks.  Block b is a pure function of (workload, seed, b),
so blocks can be generated on demand and two runs with one seed see the same
ops in the same order.  Every block holds the same mix of op kinds, sizes
(word lengths, depths, horizons, grids) and parameter families; sizes are
log-spaced over each kind's range, so over a block they are log-uniform.
The seed draws everything else (letters, points, parameters, indices) and
the order of ops inside a block.  Every block, whatever its seed, therefore
costs about the same, and a run that stops after a whole block measures the
same profile however many blocks it ran.

Ops call the package through module attributes (``treepair.word_eval``, not a
name bound at import) so the traced run's wrappers see them.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import random
import sys
from fractions import Fraction

WORKLOADS = ("algebra_words", "cantor_geometry", "cli_cold")


def _rng(workload: str, seed: int, *salt) -> random.Random:
    return random.Random(":".join(str(s) for s in (workload, seed) + salt))


def _logspace(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


# -- algebra_words --

# (kind, letters, exponents, strata per block, min length, max length).
# The V and T ranges stop where their most expensive ops still cost less than
# the two largest F words and powers, so the tail percentile falls on ops
# whose cost depends on their length alone, not on how a random word cancels.
ALGEBRA_KINDS = (
    ("V", ("f0", "f1", "f2", "f3"), (-2, -1, 1, 2), 8, 4, 120),
    ("F", ("f0", "f1"), (1,), 8, 2, 200),
    ("T", ("f0", "f1", "f2"), (1,), 4, 8, 128),
    ("pow", None, (-1, 1), 8, 2, 200),
)
# the generator of each pow stratum: f2 and f3 have finite order, so their
# powers stay small and go to the lower strata; f0, f1 powers grow one leaf per step
POW_GENERATORS = ("f2", "f3", "f0", "f1", "f2", "f3", "f0", "f1")
POINTS_PER_OP = 3


def _dyadic_point(rng: random.Random) -> str:
    n = rng.randint(1, 24)
    return f"{rng.randrange(1 << n)}/2^{n}"


def algebra_block(seed: int, b: int) -> list:
    rng = _rng("algebra_words", seed, "block", b)
    ops = []
    for kind, letters, exponents, strata, lo, hi in ALGEBRA_KINDS:
        for s in range(strata):
            length = max(1, round(_logspace(lo, hi, (s + 0.5) / strata)))
            if kind == "pow":
                # f^-k and f^k cost differently, so the sign is fixed per stratum too
                word = [[POW_GENERATORS[s], length * exponents[s % 2]]]
            else:
                word = [[rng.choice(letters), rng.choice(exponents)] for _ in range(length)]
            ops.append({"kind": kind, "word": word,
                        "points": [_dyadic_point(rng) for _ in range(POINTS_PER_OP)]})
    rng.shuffle(ops)
    return ops


def run_algebra(op, mods):
    treepair, theta = mods["treepair"], mods["theta"]
    Dyadic = mods["dyadic"].Dyadic
    g = treepair.word_eval([tuple(t) for t in op["word"]])
    cls = g.classify()
    pl = g.to_pl_map()
    values = [pl.eval(Dyadic.parse(x)) for x in op["points"]]
    mc = theta.realize(g)
    back = theta.theta(mc)
    square = theta.theta(theta.compose_classes(mc, theta.depth_stabilize(mc)))
    return {"pair": g, "class": cls, "pl": pl, "values": values, "back": back, "square": square}


# -- cantor_geometry --

# geometric (a, r) pairs, taken in turn: the cost of exact arithmetic on these
# families depends on the bit size of r, so it follows the block schedule
_GEOMETRIC = (("1", "1/2"), ("1/8", "1/8"), ("1/2", "2/3"), ("1/3", "3/4"), ("2/3", "1/3"))


def _explicit(rng: random.Random) -> str:
    qs = []
    for _ in range(rng.randint(1, 4)):
        den = rng.randint(2, 9)
        qs.append(f"{rng.randint(1, den - 1)}/{den}")
    return "explicit:" + ",".join(qs)


def _omega(rng: random.Random, family: str, turn: int) -> str:
    if family == "explicit":
        return _explicit(rng)
    if family == "geometric":
        return "geometric:%s,%s" % _GEOMETRIC[turn % len(_GEOMETRIC)]
    return family  # "omega_k:1" .. "omega_k:3"


# slot -> (families, size range); a block runs every slot CYCLE times, the
# c-th time on families[c % len(families)] at the c-th of CYCLE log-spaced
# sizes (a depth, horizon or grid)
CYCLE = 4
CANTOR_SLOTS = (
    ("enum_interval", ("explicit", "geometric", "omega_k:1", "omega_k:2"), (8, 11)),
    ("enum_gap", ("geometric", "omega_k:3", "explicit", "omega_k:1"), (8, 11)),
    ("enum_circle", ("omega_k:2", "explicit", "geometric", "omega_k:3"), (8, 11)),
    # endpoint bit lengths grow quadratically in depth on these families
    ("deep_shallow", ("geometric", "omega_k:1"), (32, 160)),
    ("deep_mid", ("explicit", "omega_k:2", "omega_k:3", "explicit"), (160, 900)),
    # past the default recursion limit: RecursionError at the seed (known defect)
    ("deep_past_limit", ("explicit", "omega_k:3", "omega_k:2", "explicit"), (1100, 2000)),
    ("brd_exact", ("geometric", "explicit"), (1000, 10000)),
    ("brd_float", ("omega_k:1", "omega_k:2", "omega_k:3", "omega_k:1"), (1000, 10000)),
    # omega_1 refuses at every horizon (acceptance criterion 7); count_NK certifies on geometric
    ("d_of_K", ("omega_k:1",), (1000, 4000)),
    ("count_NK", ("geometric", "omega_k:3", "geometric", "explicit"), (1000, 4000)),
    ("twist_Psi0", ("omega_k:1", "geometric", "explicit", "omega_k:2"), (128, 256)),
    ("twist_Psi1", ("geometric", "omega_k:2", "explicit", "omega_k:1"), (128, 256)),
    ("twist_composed", ("explicit", "omega_k:1", "geometric", "omega_k:3"), (128, 256)),
)
# above every |log ratio| these families reach (at most log 8), so each check
# scans its whole horizon rather than stopping at an early witness
_BRD_M = ("5/2", "3", "7/2")


def cantor_block(seed: int, b: int) -> list:
    rng = _rng("cantor_geometry", seed, "block", b)
    ops = []
    for c in range(CYCLE):
        for i, (slot, families, (lo, hi)) in enumerate(CANTOR_SLOTS):
            family = families[c % len(families)]
            omega = _omega(rng, family, i + c)
            size = round(_logspace(lo, hi, c / (CYCLE - 1)))
            if slot.startswith("enum_"):
                op = {"kind": "enum", "what": slot[5:], "omega": omega, "depth": size}
            elif slot.startswith("deep_"):
                op = {"kind": "deep", "omega": omega, "depth": size, "index": rng.randint(1, 1 << size)}
            elif slot.startswith("brd_"):
                op = {"kind": "brd", "omega": omega, "horizon": size, "M": rng.choice(_BRD_M)}
            elif slot in ("d_of_K", "count_NK"):
                op = {"kind": slot, "omega": omega, "horizon": size, "K": round(rng.uniform(1.05, 3.0), 3)}
            else:
                # q_n = 1 - a r^n rounds to 1.0 in double precision past n ~ 16 on geometric families
                op = {"kind": "twist", "omega": omega, "which": slot[6:], "grid": (128, 256)[c % 2],
                      "n": rng.randint(3, 12 if family == "geometric" else 40)}
            op["slot"] = slot
            ops.append(op)
    rng.shuffle(ops)
    return ops


def query_keys(op) -> list:
    """The (omega, depth, index) interval queries an op asks for, directly or through gap/circle."""
    if op["kind"] == "deep":
        return [(op["omega"], op["depth"], op["index"])]
    if op["kind"] != "enum":
        return []
    w = op["omega"]
    keys = []
    depth = op["depth"]
    if op["what"] == "interval":
        for k in range(depth + 1):
            keys += [(w, k, j) for j in range(1, 2 ** k + 1)]
    elif op["what"] == "gap":
        for k in range(1, depth + 1):
            for j in range(1, 2 ** (k - 1) + 1):
                keys += [(w, k - 1, j), (w, k, 2 * j - 1), (w, k, 2 * j)]
    else:
        for k in range(1, depth + 1):
            keys += [(w, k, i) for i in range(1, 2 ** k + 1)]
    return keys


def run_cantor(op, mods):
    cantor, geometry = mods["cantor"], mods["geometry"]
    w = cantor.CantorParams.parse(op["omega"])
    kind = op["kind"]
    if kind == "enum":
        depth = op["depth"]
        levels = {}
        if op["what"] == "interval":
            for k in range(depth + 1):
                levels[k] = [(iv.lo, iv.hi) for iv in
                             (cantor.interval(w, k, j) for j in range(1, 2 ** k + 1))]
        elif op["what"] == "gap":
            for k in range(1, depth + 1):
                levels[k] = [cantor.gap(w, k, j) for j in range(1, 2 ** (k - 1) + 1)]
        else:
            for k in range(1, depth + 1):
                levels[k] = [cantor.circle(w, k, i) for i in range(1, 2 ** k + 1)]
        lengths = [cantor.interval_length(w, k) for k in range(depth + 1)]
        return {"levels": levels, "lengths": lengths}
    if kind == "deep":
        iv = cantor.interval(w, op["depth"], op["index"])
        return {"lo": iv.lo, "hi": iv.hi, "length": cantor.interval_length(w, op["depth"])}
    if kind == "brd":
        res = cantor.brd_check(w, op["horizon"], Fraction(op["M"]))
        return {"status": res.status, "witness": res.witness}
    if kind == "d_of_K":
        return {"d": geometry.d_of_K(w, op["K"], op["horizon"])}
    if kind == "count_NK":
        return {"N": geometry.count_NK(w, op["K"], op["horizon"])}
    spec = geometry.TwistMapSpec(op["n"], w, op["which"])
    est = geometry.twist_dilatation(spec, op["grid"])
    return {"K": est.K, "samples": est.samples}


# -- cli_cold --


def _literal(node, names):
    if isinstance(node, ast.Name):
        return names[node.id]
    if isinstance(node, (ast.List, ast.Tuple)):
        items = [_literal(e, names) for e in node.elts]
        return items if isinstance(node, ast.List) else tuple(items)
    return ast.literal_eval(node)


def read_golden(root: str) -> list:
    """The pinned CLI invocations, read from the test module's source without importing it.

    Returns [(name, argv, exit code, golden stdout bytes)].
    """
    path = os.path.join(root, "tests", "test_cli.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    names, golden = {}, None
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Name):
            target = stmt.targets[0].id
            if target == "GOLDEN":
                golden = _literal(stmt.value, names)
            else:
                try:
                    names[target] = ast.literal_eval(stmt.value)
                except ValueError:
                    pass
    if not golden:
        raise RuntimeError(f"no GOLDEN list in {path}")
    out = []
    for name, argv, code in golden:
        with open(os.path.join(root, "tests", "golden", name + ".txt"), "rb") as fh:
            out.append((name, list(argv), code, fh.read()))
    return out


def cli_block(seed: int, b: int, n_golden: int) -> list:
    """One cycle through the pinned invocations, in seeded order."""
    order = list(range(n_golden))
    _rng("cli_cold", seed, "block", b).shuffle(order)
    return [{"kind": "cli", "golden": i} for i in order]


# -- shared --

def block(workload: str, seed: int, b: int, n_golden: int = 0) -> list:
    if workload == "algebra_words":
        return algebra_block(seed, b)
    if workload == "cantor_geometry":
        return cantor_block(seed, b)
    if workload == "cli_cold":
        return cli_block(seed, b, n_golden)
    raise ValueError(f"unknown workload {workload!r}")


def digest(blocks) -> str:
    """sha256 of the canonical JSON of a list of blocks."""
    return hashlib.sha256(json.dumps(blocks, sort_keys=True).encode()).hexdigest()


def package_modules(src: str) -> dict:
    """Import the package from `src` and return its submodules by short name.

    Raises RuntimeError when the package found is not the one under `src`.
    """
    if src not in sys.path:
        sys.path.insert(0, src)
    import cantorthompson

    where = os.path.dirname(os.path.abspath(cantorthompson.__file__))
    if where != os.path.join(os.path.abspath(src), "cantorthompson"):
        raise RuntimeError(f"cantorthompson imported from {where}, not from {src}")
    return {name: sys.modules["cantorthompson." + name]
            for name in ("dyadic", "treepair", "theta", "pantstree", "cantor", "geometry", "_kernels")}
