"""Generalized Cantor sets E(omega): exact interval/gap geometry and circles.

omega = (q_n) in (0,1)^N drives the construction: at step k the middle open
fraction q_k of each surviving interval is removed, leaving 2^k closed
intervals of equal length |I_k| = 2^(-k) * prod_{j<=k} (1 - q_j).

Exactness boundary: user-supplied sequences (explicit, geometric) are exact
Fractions end to end.  The iterated-log families omega_k are double-precision
by nature (their q_n come from float logs); endpoint geometry for them is
exact relative to the float-rounded q_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DegenerateParams, IndexOutOfRange

Rational = Fraction


# -- truncated iterated logarithm --

# thresholds e_k with log^(k)(e_k) = e; e_0 = e, e_k = exp(e_{k-1});
# beyond float range the threshold is +inf (every float input truncates).
_E_THRESHOLDS = [math.e]
while _E_THRESHOLDS[-1] < 700.0:
    _E_THRESHOLDS.append(math.exp(_E_THRESHOLDS[-1]))
_E_THRESHOLDS.append(math.inf)


def iterated_log_threshold(k: int) -> float:
    """e_k solving log^(k)(e_k) = e (inf when it exceeds float range)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return _E_THRESHOLDS[min(k, len(_E_THRESHOLDS) - 1)]


def iterated_log(k: int, x: float) -> float:
    """Truncated k-fold logarithm: 1 on (0, e_{k-1}], else log of the (k-1)-fold.

    Truncation applies at every level including k = 1, so the value is always
    >= 1; this is what makes q_n = 1 - 1/(2 log^(k) n) well defined at n = 1.
    """
    if x <= 0:
        raise ValueError("x must be positive")
    if k < 1:
        raise ValueError("k must be >= 1")
    if x <= iterated_log_threshold(k - 1):
        return 1.0
    value = math.log(x)
    for i in range(k - 1, 0, -1):
        # x > e_{k-1} guarantees every intermediate stays above the next threshold
        value = math.log(value)
    return value


@dataclass(frozen=True)
class CantorParams:
    """A sequence (q_n) with a certified lower bound delta <= inf q_n.

    family is one of "explicit" (finite prefix; the last value repeats),
    "geometric" (q_n = 1 - a r^n, exact) or "omega_k" (the iterated-log
    family, float-valued).
    """

    family: str
    params: tuple = ()
    delta: Fraction = Fraction(0)
    nondecreasing: bool = field(default=False, compare=True)

    @staticmethod
    def explicit(prefix, delta=None) -> "CantorParams":
        qs = tuple(Fraction(q) for q in prefix)
        if not qs:
            raise DegenerateParams("empty prefix")
        if any(not (0 < q < 1) for q in qs):
            raise DegenerateParams("q_n must lie in (0,1)")
        if delta is None:
            delta = min(qs)  # tail repeats the last value, so inf = min(prefix)
        delta = Fraction(delta)
        if not (0 < delta) or any(q < delta for q in qs):
            raise DegenerateParams("delta must satisfy 0 < delta <= q_n")
        nondec = all(a <= b for a, b in zip(qs, qs[1:]))
        return CantorParams("explicit", qs, delta, nondec)

    @staticmethod
    def geometric(a=Fraction(1), r=Fraction(1, 2)) -> "CantorParams":
        """q_n = 1 - a r^n; the default (1, 1/2) gives q_n = 1 - 2^-n."""
        a, r = Fraction(a), Fraction(r)
        if not (0 < r < 1) or a <= 0 or a * r >= 1:
            raise DegenerateParams("need 0 < r < 1 and 0 < a r < 1")
        return CantorParams("geometric", (a, r), 1 - a * r, True)

    @staticmethod
    def omega_k(k: int) -> "CantorParams":
        """q_n = 1 - 1/(2 log^(k) n): increasing, q_1 = 1/2, inf = delta = 1/2."""
        if k < 1:
            raise ValueError("k must be >= 1")
        return CantorParams("omega_k", (k,), Fraction(1, 2), True)

    @property
    def is_exact(self) -> bool:
        return self.family != "omega_k"

    def q(self, n: int):
        """q_n (1-based); Fraction for exact families, float for omega_k."""
        if n < 1:
            raise IndexOutOfRange("n must be >= 1")
        if self.family == "explicit":
            prefix = self.params
            return prefix[min(n, len(prefix)) - 1]
        if self.family == "geometric":
            a, r = self.params
            return 1 - a * r**n
        k = self.params[0]
        return 1.0 - 1.0 / (2.0 * iterated_log(k, float(n)))

    def q_fraction(self, n: int) -> Fraction:
        """q_n as an exact Fraction (for omega_k: the exact value of the float)."""
        q = self.q(n)
        return q if isinstance(q, Fraction) else Fraction(q)

    # -- serialization --

    def to_json(self) -> dict:
        obj = {"family": self.family, "delta": str(self.delta)}
        if self.family == "explicit":
            obj["q"] = [str(q) for q in self.params]
        elif self.family == "geometric":
            obj["a"], obj["r"] = str(self.params[0]), str(self.params[1])
        else:
            obj["k"] = self.params[0]
        return obj

    @staticmethod
    def from_json(obj: dict) -> "CantorParams":
        family = obj["family"]
        if family == "explicit":
            return CantorParams.explicit([Fraction(q) for q in obj["q"]],
                                         Fraction(obj["delta"]) if "delta" in obj else None)
        if family == "geometric":
            return CantorParams.geometric(Fraction(obj["a"]), Fraction(obj["r"]))
        if family == "omega_k":
            return CantorParams.omega_k(int(obj["k"]))
        raise DegenerateParams(f"unknown family {family!r}")

    @staticmethod
    def parse(spec: str) -> "CantorParams":
        """CLI form: "omega_k:2", "explicit:1/3,1/3", "geometric:1,1/2".

        A number that does not parse (such as 1/0) raises DegenerateParams.
        """
        name, _, rest = spec.partition(":")
        if name not in ("omega_k", "explicit", "geometric"):
            raise DegenerateParams(f"unknown omega spec {spec!r}")
        try:
            parts = [int(rest)] if name == "omega_k" else [Fraction(t) for t in rest.split(",") if t]
        except (ValueError, ZeroDivisionError) as exc:
            raise DegenerateParams(f"bad number in omega spec {spec!r}: {exc}") from exc
        if name == "omega_k":
            return CantorParams.omega_k(*parts)
        if name == "explicit":
            return CantorParams.explicit(parts)
        if len(parts) == 0:
            return CantorParams.geometric()
        if len(parts) == 2:
            return CantorParams.geometric(*parts)
        raise DegenerateParams("geometric takes 'a,r'")

    def __str__(self):
        if self.family == "explicit":
            return "explicit:" + ",".join(str(q) for q in self.params)
        if self.family == "geometric":
            return f"geometric:{self.params[0]},{self.params[1]}"
        return f"omega_k:{self.params[0]}"


@dataclass(frozen=True)
class CantorInterval:
    """Closed interval I_k^j of the construction (depth k, index j in 1..2^k)."""

    depth: int
    index: int
    lo: Fraction
    hi: Fraction

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


# endpoint memo per parameter set; plain dicts are safe for concurrent
# readers under CPython (worst case a value is computed twice)
_ENDPOINT_CACHE: dict = {}


def interval_length(w: CantorParams, k: int) -> Fraction:
    """Closed form |I_k| = 2^(-k) prod_{j<=k} (1 - q_j) (equation-level identity)."""
    out = Fraction(1)
    for j in range(1, k + 1):
        out *= 1 - w.q_fraction(j)
    return out / 2**k


def interval(w: CantorParams, k: int, j: int) -> CantorInterval:
    """Exact endpoints of I_k^j via the recursive halving-after-gap construction."""
    if k < 0 or not (1 <= j <= 2**k):
        raise IndexOutOfRange(f"no interval at depth {k} index {j}")
    if k == 0:
        return CantorInterval(0, 1, Fraction(0), Fraction(1))
    cache = _ENDPOINT_CACHE.setdefault(w, {})
    got = cache.get((k, j))
    if got is None:
        parent = interval(w, k - 1, (j + 1) // 2)
        child_len = parent.length * (1 - w.q_fraction(k)) / 2
        if j % 2 == 1:  # left child
            got = (parent.lo, parent.lo + child_len)
        else:
            got = (parent.hi - child_len, parent.hi)
        cache[(k, j)] = got
    return CantorInterval(k, j, got[0], got[1])


def gap(w: CantorParams, k: int, j: int) -> tuple:
    """Open interval J_k^{2j-1} removed at step k from I_{k-1}^j (j in 1..2^{k-1}).

    Checks |J| = q_k |I_{k-1}| exactly on the way out.
    """
    if k < 1 or not (1 <= j <= 2 ** (k - 1)):
        raise IndexOutOfRange(f"no gap at depth {k} index {j}")
    parent = interval(w, k - 1, j)
    left = interval(w, k, 2 * j - 1)
    right = interval(w, k, 2 * j)
    width = right.lo - left.hi
    assert width == w.q_fraction(k) * parent.length
    assert width >= 2 * w.delta * left.length  # q/(1-q) > q >= delta
    return (left.hi, right.lo)


def gap_bound_margin(w: CantorParams, k: int) -> Fraction:
    """Exact margin |J_k| - 2 delta |I_k| of the gap lower bound (>= 0 always)."""
    parent_len = interval_length(w, k - 1)
    child_len = interval_length(w, k)
    return w.q_fraction(k) * parent_len - 2 * w.delta * child_len


def circle(w: CantorParams, k: int, i: int) -> tuple:
    """Pants circle C_k^i: (center, radius) = (midpoint of I_k^i, (1+delta)/2 |I_k|)."""
    if k < 1 or not (1 <= i <= 2**k):
        raise IndexOutOfRange(f"no circle at depth {k} index {i}")
    iv = interval(w, k, i)
    return (iv.midpoint, (1 + w.delta) / 2 * iv.length)


def circles_disjoint(w: CantorParams, a: tuple, b: tuple) -> bool:
    """Exact test that circles C_{k}^{i} and C_{k'}^{i'} do not intersect.

    Two circles are disjoint as curves iff their disks are disjoint or one
    disk contains the other strictly; both cases reduce to comparing
    (c1 - c2)^2 against (r1 +- r2)^2 in exact rational arithmetic.
    """
    c1, r1 = circle(w, *a)
    c2, r2 = circle(w, *b)
    d2 = (c1 - c2) ** 2
    return d2 > (r1 + r2) ** 2 or d2 < (r1 - r2) ** 2


# -- bounded rate divergence --

HOLDS = "holds_up_to_horizon"
FAILS_RATIO = "fails"
NOT_TENDING = "not_tending_to_1"


@dataclass(frozen=True)
class BrdResult:
    """Outcome of a horizon-qualified BRD check.

    A finite prefix can refute but never prove lim q_n = 1, so `holds` means
    "no violation up to the horizon": every ratio (1-q_n)/(1-q_{n+1}) lies in
    (e^-M, e^M) and the prefix shows strict progress toward 1 across its
    second half.
    """

    status: str
    horizon: int
    M: Fraction
    witness: int | None = None

    @property
    def holds(self) -> bool:
        return self.status == HOLDS


def _exp_bounds(x: Fraction, terms: int) -> tuple:
    """Rational bounds lo < e^x < hi for x >= 0 via the Taylor tail estimate."""
    assert x >= 0
    total = Fraction(1)
    term = Fraction(1)
    for k in range(1, terms + 1):
        term *= x / k
        total += term
    tail_ratio = x / (terms + 2)
    if tail_ratio >= 1:
        return (total, None)  # need more terms for an upper bound
    tail = term * x / (terms + 1) / (1 - tail_ratio)
    return (total, total + tail)


def _ratio_in_band_exact(ratio: Fraction, M: Fraction) -> bool:
    """Decide ratio in (e^-M, e^M) exactly (ratio rational, M rational > 0)."""
    terms = 8
    while True:
        lo, hi = _exp_bounds(M, terms)
        if hi is not None:
            # ratio < e^M certified by ratio <= lo; violation by ratio >= hi
            upper_ok = ratio < lo
            upper_bad = ratio > hi
            # ratio > e^-M  <=>  ratio * e^M > 1
            lower_ok = ratio * lo > 1
            lower_bad = ratio * hi < 1
            if (upper_ok or upper_bad) and (lower_ok or lower_bad):
                return upper_ok and lower_ok
        terms *= 2
        if terms > 2**16:
            raise ArithmeticError("e^M bounds did not converge")


def brd_check(w: CantorParams, horizon: int, M) -> BrdResult:
    """Check the bounded-rate-divergence condition on a finite horizon.

    The ratio bound |log((1-q_n)/(1-q_{n+1}))| < M is decided exactly for
    exact families (rational outer/inner bounds for e^M) and in double
    precision for the float-valued omega_k families.  Divergence q_n -> 1 is
    only horizon-evidence: the prefix must make strict progress between
    n = ceil(horizon/2) and n = horizon, else NOT_TENDING is reported.
    """
    if horizon < 2:
        raise ValueError("horizon must be >= 2")
    M = Fraction(M)
    if M <= 0:
        return BrdResult(FAILS_RATIO, horizon, M, witness=1)
    if w.is_exact:
        for n in range(1, horizon):
            ratio = (1 - w.q_fraction(n)) / (1 - w.q_fraction(n + 1))
            if not _ratio_in_band_exact(ratio, M):
                return BrdResult(FAILS_RATIO, horizon, M, witness=n)
    else:
        Mf = float(M)
        for n in range(1, horizon):
            ratio = (1.0 - w.q(n)) / (1.0 - w.q(n + 1))
            if not abs(math.log(ratio)) < Mf:
                return BrdResult(FAILS_RATIO, horizon, M, witness=n)
    mid = (horizon + 1) // 2
    if not w.q_fraction(horizon) > w.q_fraction(mid):
        return BrdResult(NOT_TENDING, horizon, M, witness=horizon)
    return BrdResult(HOLDS, horizon, M)
