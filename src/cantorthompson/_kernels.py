"""Hot numeric kernels: twist-map evaluation over complex meshes.

``psi0_apply`` / ``psi1_apply`` / ``region_ids`` are numpy-vectorized; the
scalar ``_psi*_point`` / ``_region*_point`` functions evaluate the same
formulas at one point, for ``twist_map_eval`` and as the reference the
kernels are tested against.

Geometry of the maps (lengths in units of L = |I_n^1|, q = q_n):

* Psi0: point-reflect the disk |z - L/2| < L/2 through its center; on the
  annulus up to (1+3q)/(2(1-q)) L interpolate the rotation angle pi -> 0
  linearly in the radius; identity outside.
* Psi1: the same around each child center (1-q)/4 L and (3+q)/4 L, with
  inner radius (1-q)/4 L, outer radius (1+q)/4 L and angle profile
  (-4 rho/L + 1 + q) / (2q).
"""

from __future__ import annotations

import cmath

import numpy as np


def _psi0_point(z: complex, L: float, q: float) -> complex:
    c = 0.5 * L
    w = z - c
    rho = abs(w)
    r_out = (1.0 + 3.0 * q) / (2.0 * (1.0 - q)) * L
    if rho <= 0.5 * L:
        return -z + L
    if rho < r_out:
        a = r_out / L
        r0 = (rho / L - a) / (0.5 - a)
        return c + w * cmath.exp(1j * cmath.pi * r0)
    return z


def _psi1_point(z: complex, L: float, q: float) -> complex:
    r_in = 0.25 * (1.0 - q) * L
    r_out = 0.25 * (1.0 + q) * L
    for c in (0.25 * (1.0 - q) * L, 0.25 * (3.0 + q) * L):
        w = z - c
        rho = abs(w)
        if rho <= r_in:
            return -z + 2.0 * c
        if rho < r_out:
            r1 = (-4.0 * rho / L + 1.0 + q) / (2.0 * q)
            return c + w * cmath.exp(1j * cmath.pi * r1)
    return z


def _region0_point(z: complex, L: float, q: float) -> int:
    """0 outside, 1 on the rotation annulus U0, 2 on the reflected disk."""
    rho = abs(z - 0.5 * L)
    if rho <= 0.5 * L:
        return 2
    if rho < (1.0 + 3.0 * q) / (2.0 * (1.0 - q)) * L:
        return 1
    return 0


def _region1_point(z: complex, L: float, q: float) -> int:
    """0 outside, 1/2 on U1/Delta1, 3/4 on U2/Delta2."""
    r_in = 0.25 * (1.0 - q) * L
    r_out = 0.25 * (1.0 + q) * L
    rho1 = abs(z - 0.25 * (1.0 - q) * L)
    if rho1 <= r_in:
        return 2
    if rho1 < r_out:
        return 1
    rho2 = abs(z - 0.25 * (3.0 + q) * L)
    if rho2 <= r_in:
        return 4
    if rho2 < r_out:
        return 3
    return 0


# -- numpy-vectorized kernels --


def psi0_apply(z: np.ndarray, L: float, q: float) -> np.ndarray:
    z = np.asarray(z, dtype=np.complex128)
    c = 0.5 * L
    w = z - c
    rho = np.abs(w)
    r_out = (1.0 + 3.0 * q) / (2.0 * (1.0 - q)) * L
    a = r_out / L
    r0 = (rho / L - a) / (0.5 - a)
    out = np.where(
        rho <= 0.5 * L,
        -z + L,
        np.where(rho < r_out, c + w * np.exp(1j * np.pi * r0), z),
    )
    return out


def psi1_apply(z: np.ndarray, L: float, q: float) -> np.ndarray:
    z = np.asarray(z, dtype=np.complex128)
    out = z.copy()
    r_in = 0.25 * (1.0 - q) * L
    r_out = 0.25 * (1.0 + q) * L
    for c in (0.25 * (1.0 - q) * L, 0.25 * (3.0 + q) * L):
        w = z - c
        rho = np.abs(w)
        reflect = rho <= r_in
        rotate = (~reflect) & (rho < r_out)
        out = np.where(reflect, -z + 2.0 * c, out)
        with np.errstate(invalid="ignore"):
            r1 = (-4.0 * rho / L + 1.0 + q) / (2.0 * q)
            rotated = c + w * np.exp(1j * np.pi * r1)
        out = np.where(rotate, rotated, out)
    return out


def region_ids(z: np.ndarray, L: float, q: float) -> np.ndarray:
    """Smoothness cell of each point: region0(z) * 8 + region1(psi0(z))."""
    z = np.asarray(z, dtype=np.complex128)
    rho0 = np.abs(z - 0.5 * L)
    r_out0 = (1.0 + 3.0 * q) / (2.0 * (1.0 - q)) * L
    reg0 = np.where(rho0 <= 0.5 * L, 2, np.where(rho0 < r_out0, 1, 0))
    zz = psi0_apply(z, L, q)
    r_in = 0.25 * (1.0 - q) * L
    r_out = 0.25 * (1.0 + q) * L
    rho1 = np.abs(zz - 0.25 * (1.0 - q) * L)
    rho2 = np.abs(zz - 0.25 * (3.0 + q) * L)
    reg1 = np.where(
        rho1 <= r_in,
        2,
        np.where(rho1 < r_out, 1, np.where(rho2 <= r_in, 4, np.where(rho2 < r_out, 3, 0))),
    )
    return reg0 * 8 + reg1
