"""Numeric hyperbolic/quasiconformal estimators for X(omega).

Everything here is double precision and works under one documented *length
proxy*: the depth-d pants geodesic length is replaced by its upper bound

    bound(d) = 2 pi^2 / log(1 + 2 delta / (1 - q_d)),

which depends only on the depth and tends to 0 exactly when q_d -> 1.  All
downstream statements (L(d), delta(omega), d(K), N(K)) are statements about
this proxy, never about true hyperbolic lengths.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from . import _kernels
from .cantor import CantorParams, interval_length
from .errors import DegenerateParams, HorizonTooSmall, NotFoundWithinHorizon, NumericalBreakdown

TWO_PI_SQ = 2.0 * math.pi * math.pi


def _one_minus_q_float(w: CantorParams, d: int) -> float:
    q = w.q(d)
    if isinstance(q, Fraction):
        one_minus = 1 - q
        if one_minus <= 0:
            raise DegenerateParams(f"q_{d} >= 1")
        try:
            return float(one_minus)
        except OverflowError:
            return 0.0
    if q >= 1.0:
        raise DegenerateParams(f"q_{d} >= 1")
    return 1.0 - q


def length_upper_bound(w: CantorParams, d: int) -> float:
    """Depth-uniform proxy for the length of any depth-d pants geodesic.

    2 pi^2 / log(1 + 2 delta / (1 - q_d)); returns 0.0 when 1 - q_d
    underflows double precision (the mathematical limit).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    one_minus = _one_minus_q_float(w, d)
    if one_minus == 0.0:
        return 0.0
    return TWO_PI_SQ / math.log1p(2.0 * float(w.delta) / one_minus)


def c_delta(w: CantorParams) -> float:
    """The depth-independent constant C(delta) = pi^2 / log(1 + 2 delta/(1 - delta)).

    Printed next to the per-depth bound; the two differ by the q_d vs delta
    substitution and a factor 2 (see the length-table CLI output).
    """
    delta = float(w.delta)
    return math.pi * math.pi / math.log1p(2.0 * delta / (1.0 - delta))


def collar_width(length: float) -> float:
    """Half-width of the standard embedded collar: arcsinh(1/sinh(l/2))."""
    if length <= 0:
        raise ValueError("length must be positive")
    return math.asinh(1.0 / math.sinh(0.5 * length))


def wolpert_interval(length: float, K: float) -> tuple:
    """Closed-geodesic length distortion interval (l/K, K l) of a K-qc map."""
    if length <= 0 or K < 1:
        raise ValueError("need l > 0 and K >= 1")
    return (length / K, K * length)


def annulus_modulus(r1: float, r2: float) -> float:
    """Modulus of the round annulus r1 < |z| < r2: log(r2/r1) / (2 pi)."""
    if not 0 < r1 < r2:
        raise ValueError("need 0 < r1 < r2")
    return math.log(r2 / r1) / (2.0 * math.pi)


@dataclass(frozen=True)
class DepthScale:
    """Proxy length scale of a horizon: bounds[d] for d in 1..maxdepth+1.

    tail_max[d] = max(bounds[d:]) for d in 0..maxdepth, so L(d) is a lookup.
    """

    maxdepth: int
    bounds: tuple
    tail_certified: bool  # q nondecreasing => bound nonincreasing beyond the horizon
    tail_max: tuple
    delta_omega: float  # inf over d <= maxdepth of collar_width(L(d))

    def bound(self, d: int) -> float:
        return self.bounds[d - 1]

    def L(self, d: int) -> float:
        """sup of the proxy over depths >= d+1 (certified by monotonicity when possible)."""
        if d > self.maxdepth:
            raise ValueError(f"no depths beyond {d} at this horizon")
        return self.tail_max[d]


def depth_scale(w: CantorParams, maxdepth: int) -> DepthScale:
    if maxdepth < 2:
        raise ValueError("maxdepth must be >= 2")
    bounds = tuple(length_upper_bound(w, d) for d in range(1, maxdepth + 2))
    tail_max = tuple(accumulate(reversed(bounds), max))[::-1]
    delta_omega = min(collar_width(L) for L in tail_max[1:] if L > 0)
    return DepthScale(maxdepth, bounds, w.nondecreasing, tail_max, delta_omega)


def _depth_of_K(w: CantorParams, K: float, maxdepth: int) -> tuple:
    """d_of_K together with the depth scale its scan built."""
    if not (1 <= K < math.inf):  # also refuses nan
        raise ValueError(f"K must be a finite number >= 1, not {K}")
    scale = depth_scale(w, maxdepth)
    target = scale.delta_omega
    for d in range(1, maxdepth + 1):
        if K * scale.L(d) < target:
            return d, scale
    raise NotFoundWithinHorizon(
        f"K*L(d) < delta(omega) fails for all d <= {maxdepth}: "
        f"min K*L(d) = {K * scale.L(maxdepth):.6g}, delta(omega) = {target:.6g}"
    )


def d_of_K(w: CantorParams, K: float, maxdepth: int) -> int:
    """Smallest d <= maxdepth with K * L(d) < delta(omega), under the proxy model.

    Raises NotFoundWithinHorizon (never extrapolates) when no depth within the
    horizon satisfies the collar inequality.
    """
    return _depth_of_K(w, K, maxdepth)[0]


def count_NK(w: CantorParams, K: float, maxdepth: int) -> int:
    """N(K): number of (d, j) whose proxy length lies in [m_{d(K)}/K, K M_{d(K)}].

    Under the depth-uniform proxy m_d = M_d = bound(d), so each in-band depth
    contributes 2^d pairs.  The count is certified complete by the tail
    argument: the proxy is nonincreasing (q nondecreasing) and has dropped
    strictly below the band floor by depth maxdepth+1, hence no deeper depth
    can re-enter.  HorizonTooSmall otherwise.
    """
    dK, scale = _depth_of_K(w, K, maxdepth)
    lo, hi = scale.bound(dK) / K, scale.bound(dK) * K
    total = 0
    for d in range(1, maxdepth + 1):
        if lo <= scale.bound(d) <= hi:
            total += 2**d
    if not (scale.tail_certified and scale.bound(maxdepth + 1) < lo):
        raise HorizonTooSmall(
            f"cannot certify the band tail empty at horizon {maxdepth}: "
            f"bound({maxdepth + 1}) = {scale.bound(maxdepth + 1):.6g} vs band floor {lo:.6g}"
        )
    return total


# -- the twist maps --


@dataclass(frozen=True)
class TwistMapSpec:
    """One of the twist maps supported near I_n^1: Psi0, Psi1 or their composition."""

    n: int
    omega: CantorParams
    which: str = "composed"  # "Psi0" | "Psi1" | "composed"

    def __post_init__(self):
        if self.which not in ("Psi0", "Psi1", "composed"):
            raise ValueError(f"bad twist map selector {self.which!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    @property
    def q(self) -> float:
        q = float(self.omega.q(self.n))
        if not 0.0 < q < 1.0:
            raise DegenerateParams(f"q_{self.n} = {q} outside (0,1)")
        return q

    @property
    def L(self) -> float:
        """|I_n^1| in double precision."""
        value = float(interval_length(self.omega, self.n))
        if value <= 0.0:
            raise DegenerateParams(f"|I_{self.n}^1| underflows double precision")
        return value

    def annuli(self, L: float | None = None) -> dict:
        """Center and radii of the rotation annuli, keyed U0/U1/U2."""
        L = self.L if L is None else L
        q = self.q
        out = {}
        if self.which in ("Psi0", "composed"):
            out["U0"] = (0.5 * L, 0.5 * L, (1.0 + 3.0 * q) / (2.0 * (1.0 - q)) * L)
        if self.which in ("Psi1", "composed"):
            r_in, r_out = 0.25 * (1.0 - q) * L, 0.25 * (1.0 + q) * L
            out["U1"] = (0.25 * (1.0 - q) * L, r_in, r_out)
            out["U2"] = (0.25 * (3.0 + q) * L, r_in, r_out)
        return out

    def moduli(self) -> dict:
        """Closed-form annulus moduli (scale-free)."""
        q = self.q
        out = {}
        if self.which in ("Psi0", "composed"):
            out["U0"] = math.log((1.0 + 3.0 * q) / (1.0 - q)) / (2.0 * math.pi)
        if self.which in ("Psi1", "composed"):
            out["U1"] = out["U2"] = math.log((1.0 + q) / (1.0 - q)) / (2.0 * math.pi)
        return out


def twist_map_eval(spec: TwistMapSpec, z: complex) -> complex:
    """Evaluate the selected twist map at one point of the plane (exact formulas)."""
    L, q = spec.L, spec.q
    z = complex(z)
    if spec.which == "Psi0":
        return _kernels._psi0_point(z, L, q)
    if spec.which == "Psi1":
        return _kernels._psi1_point(z, L, q)
    return _kernels._psi1_point(_kernels._psi0_point(z, L, q), L, q)


def _apply_grid(spec: TwistMapSpec, z: np.ndarray, L: float, q: float) -> np.ndarray:
    if spec.which == "Psi0":
        return _kernels.psi0_apply(z, L, q)
    if spec.which == "Psi1":
        return _kernels.psi1_apply(z, L, q)
    return _kernels.psi1_apply(_kernels.psi0_apply(z, L, q), L, q)


def twist_mu_analytic(spec: TwistMapSpec, annulus: str, rho_over_L: float) -> float:
    """|mu| of the radial twist at radius rho (units of L), derived in closed form.

    For f(c + w) = c + w e^{i alpha(|w|)} one has |mu| = |t| / sqrt(1 + t^2)
    with t = rho alpha'(rho)/2; alpha is linear in rho here, so alpha' is the
    constant pi * (slope of the linear angle profile).
    """
    q = spec.q
    if annulus == "U0":
        a = (1.0 + 3.0 * q) / (2.0 * (1.0 - q))
        alpha_prime = math.pi / (0.5 - a)  # d alpha / d(rho/L)
    elif annulus in ("U1", "U2"):
        alpha_prime = math.pi * (-4.0) / (2.0 * q)
    else:
        raise ValueError(f"unknown annulus {annulus!r}")
    t = 0.5 * rho_over_L * alpha_prime
    return abs(t) / math.sqrt(1.0 + t * t)


def twist_dilatation_analytic(spec: TwistMapSpec) -> float:
    """Closed-form maximal dilatation of Psi0 or Psi1 (sup of |mu| at the outer radius)."""
    q = spec.q
    if spec.which == "Psi0":
        mu = twist_mu_analytic(spec, "U0", (1.0 + 3.0 * q) / (2.0 * (1.0 - q)))
    elif spec.which == "Psi1":
        mu = twist_mu_analytic(spec, "U1", 0.25 * (1.0 + q))
    else:
        raise ValueError("analytic dilatation available for Psi0/Psi1 only")
    return (1.0 + mu) / (1.0 - mu)


@dataclass(frozen=True)
class DilatationEstimate:
    K: float
    sup_mu: float
    grid: int
    samples: int
    moduli: dict


def twist_dilatation(spec: TwistMapSpec, grid: int = 128) -> DilatationEstimate:
    """Estimate max |mu| = |f_zbar / f_z| by central differences on annular meshes.

    Sampling happens on the unit-normalized picture (L = 1): the twist maps
    commute with z -> s z, so the dilatation is scale-invariant and the
    finite differences stay well conditioned for deep n.  Samples whose
    5-point stencil straddles a smoothness interface (only possible in
    composed mode) are skipped.  Raises NumericalBreakdown if any sampled
    |mu| reaches 1.
    """
    if grid < 64:
        raise ValueError("grid must be >= 64")
    q = spec.q
    L = 1.0
    sup_mu = 0.0
    samples = 0
    for center, r_in, r_out in spec.annuli(L).values():
        width = r_out - r_in
        h = width / (8.0 * grid)
        radii = r_in + (np.arange(1, grid + 1) / (grid + 1)) * width
        angles = 2.0 * np.pi * np.arange(grid) / grid
        z = center + radii[:, None] * np.exp(1j * angles)[None, :]
        stencil = [z + h, z - h, z + 1j * h, z - 1j * h]
        if spec.which == "composed":
            ids = _kernels.region_ids(z, L, q)
            ok = np.ones(z.shape, dtype=bool)
            for pt in stencil:
                ok &= _kernels.region_ids(pt, L, q) == ids
        else:
            ok = np.ones(z.shape, dtype=bool)
        fxp, fxm, fyp, fym = (_apply_grid(spec, pt, L, q) for pt in stencil)
        fx = (fxp - fxm) / (2.0 * h)
        fy = (fyp - fym) / (2.0 * h)
        fz = 0.5 * (fx - 1j * fy)
        fzb = 0.5 * (fx + 1j * fy)
        with np.errstate(divide="ignore", invalid="ignore"):
            mu = np.abs(fzb) / np.abs(fz)
        mu = mu[ok & np.isfinite(mu)]
        if mu.size and float(np.max(mu)) >= 1.0:
            raise NumericalBreakdown(f"|mu| = {float(np.max(mu)):.6g} >= 1 on {spec.which}")
        if mu.size:
            sup_mu = max(sup_mu, float(np.max(mu)))
        samples += int(np.count_nonzero(ok))
    K = (1.0 + sup_mu) / (1.0 - sup_mu)
    return DilatationEstimate(K, sup_mu, grid, samples, spec.moduli())


def twist_table(w: CantorParams, ns, grid: int = 128) -> list:
    """Rows (n, K(Psi0^n), K(Psi1^n), mod U0^n, mod U1^n) for the CLI and tests."""
    rows = []
    for n in ns:
        est0 = twist_dilatation(TwistMapSpec(n, w, "Psi0"), grid)
        est1 = twist_dilatation(TwistMapSpec(n, w, "Psi1"), grid)
        rows.append((n, est0.K, est1.K, est0.moduli["U0"], est1.moduli["U1"]))
    return rows
