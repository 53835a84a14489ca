"""Correctness oracles: independent recomputations of each op's answer.

Each ``check_*`` returns None when the answer is right and a one-line reason
when it is not.  An oracle never raises on a wrong answer; the worker counts
the reason as a failure and goes on.

Expected outcomes
-----------------
* algebra_words: every op succeeds.
* cantor_geometry: ``d_of_K``/``count_NK`` may refuse with
  ``NotFoundWithinHorizon`` or ``HorizonTooSmall``.  A refusal is a success
  exactly when the brute-force recount refuses the same way (the omega_1
  refusal is acceptance criterion 7, honest-red).  Deep ``interval`` queries
  past the recursion limit raise ``RecursionError`` at the seed (a known
  defect); they count as failures, by name, and are not capped away.
* cli_cold: golden stdout bytes and exit code 0 for all twelve invocations.
"""

from __future__ import annotations

import math
from fractions import Fraction

# relative tolerance of the grid estimate against the closed-form dilatation
TWIST_TOL = {128: 0.05, 256: 0.03}
KNOWN_FAILURES = {("deep", "RecursionError")}


# -- algebra_words --


def _pieces(pl) -> list:
    return [(lo.as_fraction(), hi.as_fraction(), Fraction(2) ** m, o.as_fraction())
            for lo, hi, m, o in pl.pieces]


class WordOracle:
    """Evaluates words by applying the generators' PL maps right to left, in Fractions."""

    def __init__(self, treepair):
        self.forward, self.inverse = {}, {}
        for name in ("f0", "f1", "f2", "f3"):
            fwd = _pieces(treepair.generator_pl_map(name))
            self.forward[name] = fwd
            self.inverse[name] = sorted((s * lo + o, s * hi + o, 1 / s, -o / s) for lo, hi, s, o in fwd)

    @staticmethod
    def _apply(pieces, x: Fraction) -> Fraction:
        for lo, hi, s, o in pieces:
            if lo <= x < hi:
                return s * x + o
        raise ValueError(f"{x} outside [0,1)")

    def apply(self, word, x: Fraction) -> Fraction:
        for name, e in reversed(word):
            pieces = self.forward[name] if e > 0 else self.inverse[name]
            for _ in range(abs(e)):
                x = self._apply(pieces, x)
        return x


def _parse_point(text: str) -> Fraction:
    top, bottom = text.split("/2^")
    return Fraction(int(top), 1 << int(bottom))


def _class_of_pieces(pl) -> str:
    """F, T or V from the order in which the PL map lays its pieces' images."""
    images = [(lo.as_fraction() * Fraction(2) ** m + o.as_fraction()) for lo, _, m, o in pl.pieces]
    order = sorted(range(len(images)), key=images.__getitem__)
    rank = [0] * len(images)
    for r, i in enumerate(order):
        rank[i] = r
    n = len(rank)
    if rank == list(range(n)):
        return "F"
    return "T" if all(rank[i] == (i + rank[0]) % n for i in range(n)) else "V"


def check_algebra(oracle: WordOracle, op, out):
    word = op["word"]
    xs = [_parse_point(p) for p in op["points"]]
    for x, got in zip(xs, out["values"]):
        want = oracle.apply(word, x)
        if got.as_fraction() != want:
            return f"g({x}) = {got}, oracle {want}"
    want_class = _class_of_pieces(out["pl"])
    if all(name != "f3" for name, _ in word):
        # f0, f1, f2 generate T, where F is the stabiliser of 0
        want_class = "F" if oracle.apply(word, Fraction(0)) == 0 else "T"
    if out["class"] != want_class:
        return f"class {out['class']}, oracle {want_class}"
    if out["back"] != out["pair"]:
        return "theta(realize(g)) != g"
    square = out["square"].to_pl_map()
    for x in xs:
        want = oracle.apply(word, oracle.apply(word, x))
        if square.eval(x).as_fraction() != want:
            return f"theta(compose_classes) at {x} != g(g(x))"
    return None


# -- cantor_geometry --


def _lengths(w, depth: int) -> list:
    out = [Fraction(1)]
    for k in range(1, depth + 1):
        out.append(out[-1] * (1 - w.q_fraction(k)) / 2)
    return out


def _levels(lengths) -> list:
    levels = [[(Fraction(0), Fraction(1))]]
    for k in range(1, len(lengths)):
        step = []
        for lo, hi in levels[-1]:
            step += [(lo, lo + lengths[k]), (hi - lengths[k], hi)]
        levels.append(step)
    return levels


def check_enum(w, op, out):
    depth = op["depth"]
    lengths = _lengths(w, depth)
    if out["lengths"] != lengths:
        return "interval_length differs from the closed-form product"
    levels = _levels(lengths)
    for k, got in out["levels"].items():
        if op["what"] == "interval":
            want = levels[k]
        elif op["what"] == "gap":
            kids = levels[k]
            want = [(kids[2 * j][1], kids[2 * j + 1][0]) for j in range(len(kids) // 2)]
        else:
            radius = (1 + w.delta) / 2 * lengths[k]
            want = [((lo + hi) / 2, radius) for lo, hi in levels[k]]
        if list(got) != want:
            return f"{op['what']} endpoints differ at depth {k}"
    return None


def check_deep(w, op, out):
    k, j = op["depth"], op["index"]
    lengths = _lengths(w, k)
    path = j - 1
    lo = sum(lengths[m - 1] - lengths[m] for m in range(1, k + 1) if (path >> (k - m)) & 1)
    if out["length"] != lengths[k]:
        return f"interval_length at depth {k} differs from the closed-form product"
    if (out["lo"], out["hi"]) != (lo, lo + lengths[k]):
        return f"I_{k}^j endpoints differ from the prefix-sum recomputation"
    return None


def expected_brd(w, horizon: int, M: Fraction):
    """(status, witness) recomputed from the family's closed form."""
    Mf = float(M)
    if w.family == "geometric":
        ratios = [1 / w.params[1]]  # (1 - q_n) / (1 - q_{n+1}) = 1/r for every n
    elif w.family == "explicit":
        # after the prefix the last value repeats, so every later ratio is 1
        qs = w.params
        ratios = [(1 - qs[n - 1]) / (1 - qs[min(n + 1, len(qs)) - 1])
                  for n in range(1, min(len(qs), horizon - 1) + 1)]
    else:
        ratios = None
    if ratios is not None:
        for n, ratio in enumerate(ratios, 1):
            if not abs(math.log(ratio)) < Mf:
                return ("fails", n)
    else:
        for n in range(1, horizon):
            if not abs(math.log((1.0 - w.q(n)) / (1.0 - w.q(n + 1)))) < Mf:
                return ("fails", n)
    mid = (horizon + 1) // 2
    if w.family == "geometric":
        tending = True  # 1 - a r^n strictly increases
    else:
        tending = w.q_fraction(horizon) > w.q_fraction(mid)
    return ("holds_up_to_horizon", None) if tending else ("not_tending_to_1", horizon)


def check_brd(w, op, out):
    want = expected_brd(w, op["horizon"], Fraction(op["M"]))
    got = (out["status"], out["witness"])
    return None if got == want else f"brd_check {got}, oracle {want}"


def expected_nk(geometry, w, K: float, horizon: int):
    """(d(K), N(K)) by a brute-force suffix-max pass and recount; a string names the refusal."""
    bounds = [geometry.length_upper_bound(w, d) for d in range(1, horizon + 2)]
    L = [0.0] * (horizon + 1)  # L[d] = max(bounds[d:]) for d in 1..horizon
    running = bounds[horizon]
    for d in range(horizon, 0, -1):
        running = max(running, bounds[d])
        L[d] = running
    target = min(math.asinh(1.0 / math.sinh(0.5 * L[d])) for d in range(1, horizon + 1) if L[d] > 0)
    dK = next((d for d in range(1, horizon + 1) if K * L[d] < target), None)
    if dK is None:
        return "NotFoundWithinHorizon", "NotFoundWithinHorizon"
    lo, hi = bounds[dK - 1] / K, bounds[dK - 1] * K
    total = sum(2 ** d for d in range(1, horizon + 1) if lo <= bounds[d - 1] <= hi)
    certified = w.nondecreasing and bounds[horizon] < lo
    return dK, (total if certified else "HorizonTooSmall")


def check_nk(geometry, w, op, out, error):
    want_d, want_n = expected_nk(geometry, w, op["K"], op["horizon"])
    want = want_d if op["kind"] == "d_of_K" else want_n
    got = error if error is not None else (out["d"] if op["kind"] == "d_of_K" else out["N"])
    return None if got == want else f"{op['kind']} {got!r}, oracle {want!r}"


def check_twist(geometry, w, op, out):
    tol = TWIST_TOL[op["grid"]]
    closed = {which: geometry.twist_dilatation_analytic(geometry.TwistMapSpec(op["n"], w, which))
              for which in ("Psi0", "Psi1")}
    if op["which"] == "composed":
        # qc maps compose with K(f o g) <= K(f) K(g)
        bound = closed["Psi0"] * closed["Psi1"]
        ok = 1.0 <= out["K"] <= bound * (1 + tol)
        return None if ok else f"composed K {out['K']:.6g} outside [1, {bound:.6g}]"
    want = closed[op["which"]]
    if abs(out["K"] - want) > tol * want:
        return f"K {out['K']:.6g}, closed form {want:.6g} (tolerance {tol})"
    return None


def check_cantor(mods, op, out, error):
    """Reason the op's outcome is wrong, or None.  `error` names an exception the op raised."""
    w = mods["cantor"].CantorParams.parse(op["omega"])
    geometry = mods["geometry"]
    if op["kind"] in ("d_of_K", "count_NK"):
        return check_nk(geometry, w, op, out, error)
    if error is not None:
        return f"raised {error}"
    if op["kind"] == "enum":
        return check_enum(w, op, out)
    if op["kind"] == "deep":
        return check_deep(w, op, out)
    if op["kind"] == "brd":
        return check_brd(w, op, out)
    return check_twist(geometry, w, op, out)
