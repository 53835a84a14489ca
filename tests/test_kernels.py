import numpy as np
import pytest

from cantorthompson import _kernels as k


def _mesh(rng, n=3000):
    return (rng.uniform(-3, 4, n) + 1j * rng.uniform(-3, 3, n)).astype(np.complex128)


@pytest.mark.parametrize("L,q", [(1.0, 0.5), (1.0, 0.72), (0.037, 0.9), (2.5, 0.31)])
def test_numpy_path_matches_scalar_reference(L, q):
    rng = np.random.default_rng(1)
    z = _mesh(rng)
    want0 = np.array([k._psi0_point(complex(v), L, q) for v in z])
    want1 = np.array([k._psi1_point(complex(v), L, q) for v in z])
    assert np.allclose(k.psi0_apply(z, L, q), want0, rtol=0, atol=1e-12 * max(L, 1))
    assert np.allclose(k.psi1_apply(z, L, q), want1, rtol=0, atol=1e-12 * max(L, 1))


def test_region_ids_match_map_branches():
    rng = np.random.default_rng(3)
    z = _mesh(rng, 500)
    L, q = 1.0, 0.66
    ids = k.region_ids(z, L, q)
    for v, cell in zip(z, ids):
        reg0, reg1 = divmod(int(cell), 8)
        assert reg0 == k._region0_point(complex(v), L, q)
        assert reg1 == k._region1_point(k._psi0_point(complex(v), L, q), L, q)
