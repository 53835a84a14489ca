import math
from fractions import Fraction as F

import numpy as np
import pytest

from cantorthompson import _kernels
from cantorthompson.cantor import CantorParams
from cantorthompson.errors import HorizonTooSmall, NotFoundWithinHorizon, NumericalBreakdown
from cantorthompson.geometry import (
    TwistMapSpec,
    annulus_modulus,
    c_delta,
    collar_width,
    count_NK,
    d_of_K,
    depth_scale,
    length_upper_bound,
    twist_dilatation,
    twist_dilatation_analytic,
    twist_map_eval,
    twist_mu_analytic,
    twist_table,
    wolpert_interval,
)

W1 = CantorParams.omega_k(1)
G8 = CantorParams.geometric(F(1, 8), F(1, 8))
HALF = CantorParams.explicit([F(1, 2)])


def test_length_upper_bound_examples():
    assert math.isclose(length_upper_bound(HALF, 1), 2 * math.pi**2 / math.log(3))
    geo = CantorParams.geometric()
    bounds = [length_upper_bound(geo, d) for d in range(1, 30)]
    assert all(a > b for a, b in zip(bounds, bounds[1:]))
    assert length_upper_bound(W1, 10_000) < length_upper_bound(W1, 100)
    with pytest.raises(ValueError):
        length_upper_bound(W1, 0)


def test_length_bound_underflow_is_the_limit():
    # deep geometric depths underflow 1 - q_d; the proxy's limit is 0
    assert length_upper_bound(CantorParams.geometric(), 5000) == 0.0


def test_c_delta_exposed():
    # C(delta) for delta = 1/2: pi^2/log(3); the per-depth bound at q_d = delta is 2 C(delta)
    assert math.isclose(2 * c_delta(HALF), length_upper_bound(HALF, 1))


def test_collar_width_examples():
    fixed = 2 * math.asinh(1.0)
    assert math.isclose(collar_width(fixed), math.asinh(1.0))
    assert collar_width(0.01) > collar_width(1.0)
    widths = [collar_width(10.0**-k) for k in range(1, 7)]
    assert all(a < b for a, b in zip(widths, widths[1:]))
    assert widths[-1] > 10


def test_wolpert_interval_examples():
    assert wolpert_interval(1.0, 2.0) == (0.5, 2.0)
    assert wolpert_interval(3.0, 1.0) == (3.0, 3.0)
    lo1, hi1 = wolpert_interval(2.0, 1.5)
    lo2, hi2 = wolpert_interval(2.0, 3.0)
    assert lo2 <= lo1 and hi1 <= hi2


def test_annulus_modulus_examples():
    assert math.isclose(annulus_modulus(1.0, math.e ** (2 * math.pi)), 1.0)
    assert math.isclose(annulus_modulus(0.5, 2.5), math.log(5) / (2 * math.pi))
    with pytest.raises(ValueError):
        annulus_modulus(1.0, 1.0)


def test_d_of_K_success_and_posthoc_oracle():
    for K in (1.0, 1.1, 1.5, 2.0):
        d = d_of_K(G8, K, 100)
        scale = depth_scale(G8, 100)
        # post-hoc recheck: the defining inequality holds at the returned depth
        assert K * scale.L(d) < scale.delta_omega
        if d > 1:
            assert not K * scale.L(d - 1) < scale.delta_omega
    assert d_of_K(G8, 1.1, 100) <= d_of_K(G8, 1.5, 100) <= d_of_K(G8, 2.0, 100)


def test_d_of_K_not_found():
    with pytest.raises(NotFoundWithinHorizon):
        d_of_K(HALF, 2.0, 40)  # constant q: proxy is depth-constant
    # the iterated-log family at desk horizons: proxy lengths stay O(10)
    # while the collar of the shallow-depth proxy is ~2.5e-4
    with pytest.raises(NotFoundWithinHorizon):
        d_of_K(W1, 1.0, 60)


def test_count_NK_matches_brute_force():
    for K in (1.1, 1.5, 2.0):
        n = count_NK(G8, K, 100)
        # independent scan: recompute every bound from scratch, no monotone shortcut
        dK = d_of_K(G8, K, 100)
        center = length_upper_bound(G8, dK)
        brute = 0
        for d in range(1, 101):
            b = length_upper_bound(G8, d)
            if center / K <= b <= center * K:
                brute += 2**d
        assert n == brute > 0


def test_count_NK_band_monotone_at_fixed_center():
    dK = d_of_K(G8, 1.1, 100)
    center = length_upper_bound(G8, dK)

    def band_count(K):
        total = 0
        for d in range(1, 101):
            b = length_upper_bound(G8, d)
            if center / K <= b <= center * K:
                total += 2**d
        return total

    assert band_count(1.1) <= band_count(1.5) <= band_count(2.0)


def test_count_NK_horizon_too_small():
    with pytest.raises(HorizonTooSmall):
        count_NK(G8, 1.5, 40)  # band floor not crossed by depth 41


def test_twist_map_eval_examples():
    spec = TwistMapSpec(5, W1, "Psi0")
    L = spec.L
    assert twist_map_eval(spec, 100 + 100j) == 100 + 100j
    assert twist_map_eval(spec, complex(L / 2)) == pytest.approx(complex(L / 2))
    # reflection on the inner disk: z -> -z + L
    z = 0.3 * L + 0.1j * L
    assert twist_map_eval(spec, z) == pytest.approx(-z + L)
    spec1 = TwistMapSpec(5, W1, "Psi1")
    c1 = 0.25 * (1 - spec1.q) * L
    assert twist_map_eval(spec1, complex(c1)) == pytest.approx(complex(c1))
    # composed = Psi1 after Psi0
    specc = TwistMapSpec(5, W1, "composed")
    for z in (0.2 * L + 0.05j * L, 1.5 * L - 0.3j * L, complex(12 * L)):
        assert twist_map_eval(specc, z) == pytest.approx(
            twist_map_eval(spec1, twist_map_eval(spec0 := spec, z))
        )


def test_twist_continuity_across_interfaces():
    spec = TwistMapSpec(7, W1, "Psi0")
    L, q = spec.L, spec.q
    c = 0.5 * L
    eps = 1e-12 * L
    for radius in (0.5 * L, (1 + 3 * q) / (2 * (1 - q)) * L):
        for theta in np.linspace(0.0, 2 * np.pi, 40, endpoint=False):
            inner = c + (radius - eps) * np.exp(1j * theta)
            outer = c + (radius + eps) * np.exp(1j * theta)
            gap = abs(twist_map_eval(spec, inner) - twist_map_eval(spec, outer))
            assert gap < 1e-9 * L


def test_twist_bijection_evidence():
    spec = TwistMapSpec(6, W1, "composed")
    L, q = 1.0, spec.q
    xs = np.linspace(-2.0, 3.0, 120)
    ys = np.linspace(-2.0, 2.0, 96)
    mesh = (xs[:, None] + 1j * ys[None, :]).ravel()
    image = _kernels.psi1_apply(_kernels.psi0_apply(mesh, L, q), L, q)
    rounded = set(zip(np.round(image.real, 9), np.round(image.imag, 9)))
    assert len(rounded) == mesh.size  # no collisions
    # the reflected disk is covered exactly: Psi0 on Delta0 is z -> -z + L
    disk = 0.5 * L + 0.2 * L * np.exp(2j * np.pi * np.arange(32) / 32)
    assert np.allclose(_kernels.psi0_apply(disk, L, q), -disk + L)


def test_beltrami_matches_analytic_shear():
    # FD |mu| vs the closed-form radial-twist shear, grid 512, tolerance 1e-3
    spec = TwistMapSpec(8, W1, "Psi0")
    q = spec.q
    L = 1.0
    center, r_in, r_out = spec.annuli(L)["U0"]
    grid = 512
    h = (r_out - r_in) / (8 * grid)
    radii = r_in + (np.arange(1, grid + 1) / (grid + 1)) * (r_out - r_in)
    z = center + radii * np.exp(1j * 0.73)
    fx = (_kernels.psi0_apply(z + h, L, q) - _kernels.psi0_apply(z - h, L, q)) / (2 * h)
    fy = (_kernels.psi0_apply(z + 1j * h, L, q) - _kernels.psi0_apply(z - 1j * h, L, q)) / (2 * h)
    mu = np.abs(0.5 * (fx + 1j * fy)) / np.abs(0.5 * (fx - 1j * fy))
    want = np.array([twist_mu_analytic(spec, "U0", r) for r in radii])
    assert float(np.max(np.abs(mu - want))) < 1e-3


def test_dilatation_identity_region():
    # finite differences of the identity region give mu = 0, K = 1
    spec = TwistMapSpec(5, W1, "Psi0")  # U0 outer radius ~4.9 at L = 1
    z = np.array([10.0 + 3j, -8.0 - 6j])
    h = 2.0**-20  # power-of-two step keeps the stencil differences exact
    fx = (_kernels.psi0_apply(z + h, 1.0, spec.q) - _kernels.psi0_apply(z - h, 1.0, spec.q)) / (2 * h)
    fy = (_kernels.psi0_apply(z + 1j * h, 1.0, spec.q) - _kernels.psi0_apply(z - 1j * h, 1.0, spec.q)) / (2 * h)
    mu = np.abs(fx + 1j * fy) / np.abs(fx - 1j * fy)
    assert float(np.max(mu)) == 0.0


def test_dilatation_grid_convergence_and_analytic():
    spec = TwistMapSpec(10, W1, "Psi0")
    est128 = twist_dilatation(spec, 128)
    est256 = twist_dilatation(spec, 256)
    assert abs(est128.K - est256.K) / est256.K < 0.01
    # FD sup converges to the closed-form dilatation from below
    exact = twist_dilatation_analytic(spec)
    assert est256.K < exact
    assert abs(est256.K - exact) / exact < 0.02
    with pytest.raises(ValueError):
        twist_dilatation(spec, 32)


def test_dilatation_decreasing_along_n():
    rows = twist_table(W1, [5, 10, 20], grid=96)
    k0 = [r[1] for r in rows]
    k1 = [r[2] for r in rows]
    assert k0[0] > k0[1] > k0[2]
    assert k1[0] > k1[1] > k1[2]
    # the documented desk-scale fact: these sit near 12-17, nowhere near 1
    assert k0[-1] > 10


def test_moduli_closed_forms():
    spec = TwistMapSpec(5, HALF, "composed")
    moduli = spec.moduli()
    assert math.isclose(moduli["U0"], math.log(5) / (2 * math.pi))
    assert math.isclose(moduli["U1"], math.log(3) / (2 * math.pi))
    w1_mods = [TwistMapSpec(n, W1, "Psi0").moduli()["U0"] for n in (5, 10, 20, 40)]
    assert all(a < b for a, b in zip(w1_mods, w1_mods[1:]))


def test_numerical_breakdown_signal(monkeypatch):
    # an anti-conformal kernel (z -> conj z) has |mu| = 1 everywhere
    spec = TwistMapSpec(5, W1, "Psi0")
    monkeypatch.setattr(_kernels, "psi0_apply", lambda z, L, q: np.conj(z))
    with pytest.raises(NumericalBreakdown):
        twist_dilatation(spec, 64)


def test_composed_dilatation_skips_interfaces():
    est = twist_dilatation(TwistMapSpec(6, W1, "composed"), 96)
    assert est.samples > 0
    assert 1.0 < est.K < 300.0


def _L_rescan(bounds, d):
    """Reference L(d): rescan the tail of the bounds."""
    return max(bounds[d:])


def _delta_omega_rescan(bounds, maxdepth):
    """Reference delta(omega), one tail rescan per depth."""
    return min(
        collar_width(_L_rescan(bounds, d))
        for d in range(1, maxdepth + 1)
        if _L_rescan(bounds, d) > 0
    )


def test_depth_scale_matches_tail_rescan():
    families = [
        W1,
        CantorParams.omega_k(3),
        CantorParams.parse("geometric:1/16,1/16"),
        CantorParams.parse("explicit:1/3,9/10,1/2,4/5,2/3"),  # proxy not monotone in d
    ]
    for w in families:
        scale = depth_scale(w, 200)
        assert scale.bounds == tuple(length_upper_bound(w, d) for d in range(1, 202))
        for d in range(201):
            assert scale.L(d) == _L_rescan(scale.bounds, d)
        assert scale.delta_omega == _delta_omega_rescan(scale.bounds, 200)
        with pytest.raises(ValueError):
            scale.L(201)
    explicit = depth_scale(families[3], 200)
    assert explicit.L(1) != explicit.bound(2)  # the suffix max is not the next bound here
    with pytest.raises(NotFoundWithinHorizon) as info:
        d_of_K(W1, 2.0, 40)
    assert str(info.value) == (
        "K*L(d) < delta(omega) fails for all d <= 40: "
        "min K*L(d) = 18.5218, delta(omega) = 0.000250875"
    )


def test_length_bound_to_zero_trend_on_omega_k():
    for k in (1, 2):
        w = CantorParams.omega_k(k)
        vals = [length_upper_bound(w, d) for d in (100, 1000, 10_000)]
        assert vals[0] > vals[1] > vals[2]


def test_annuli_avoid_cantor_set():
    # E(omega) sample = every interval endpoint down to depth n+8; the open
    # rotation annuli must not contain any of them (exact rational checks).
    # The outer circle of U0 touches E exactly at the far gap endpoint.
    from cantorthompson.cantor import interval as cantor_interval, interval_length

    for w, n in ((CantorParams.geometric(), 3), (W1, 4)):
        q = w.q_fraction(n)
        L = interval_length(w, n)
        annuli = [
            (L / 2, L / 2, (1 + 3 * q) / (2 * (1 - q)) * L),
            ((1 - q) / 4 * L, (1 - q) / 4 * L, (1 + q) / 4 * L),
            ((3 + q) / 4 * L, (1 - q) / 4 * L, (1 + q) / 4 * L),
        ]
        depth = n + 8
        points = set()
        for j in range(1, 2**depth + 1):
            iv = cantor_interval(w, depth, j)
            points.add(iv.lo)
            points.add(iv.hi)
        for center, r_in, r_out in annuli:
            for x in points:
                d2 = (x - center) ** 2
                assert d2 <= r_in**2 or d2 >= r_out**2, (x, center, r_in, r_out)
