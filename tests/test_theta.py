import random

import pytest

from cantorthompson.dyadic import Dyadic
from cantorthompson.errors import Malformed
from cantorthompson.pantstree import CurveAddress, PantsSubtree
from cantorthompson.theta import (
    CombinatorialMappingClass,
    compose_classes,
    depth_stabilize,
    identity_class,
    kernel_test,
    realize,
    theta,
)
from cantorthompson.treepair import TreePair, generator

from _helpers import random_pair

C = CurveAddress

PHI0 = CombinatorialMappingClass(
    PantsSubtree([C(1, 1), C(2, 3), C(2, 4)]),
    PantsSubtree([C(2, 1), C(2, 2), C(1, 2)]),
    (0, 1, 2),
)
PHI2 = CombinatorialMappingClass(
    PantsSubtree([C(1, 1), C(2, 3), C(2, 4)]),
    PantsSubtree([C(1, 1), C(2, 3), C(2, 4)]),
    (2, 0, 1),  # C11 -> C24, C23 -> C11, C24 -> C23
)
PHI3 = CombinatorialMappingClass(
    PantsSubtree([C(1, 1), C(2, 3), C(2, 4)]),
    PantsSubtree([C(1, 1), C(2, 3), C(2, 4)]),
    (1, 0, 2),  # swap C11 <-> C23
)


def random_class(rng, depth_limit=5):
    pair = random_pair(rng, 2**depth_limit // 2)
    mc = realize(pair)
    for _ in range(rng.randint(0, 2)):
        mc = depth_stabilize(mc)
    return mc


def test_theta_surjectivity_witnesses():
    assert theta(PHI0) == generator("f0")
    assert theta(PHI2) == generator("f2")
    assert theta(PHI3) == generator("f3")
    assert PHI0.tag == "OP" and PHI2.tag == "PO" and PHI3.tag == "POP"


def test_theta_identity_class():
    for d in (1, 2, 3):
        assert theta(identity_class(d)) == TreePair.identity()


def test_realize_examples():
    mc = realize(TreePair.identity())
    assert mc.depth == 1 and mc.domain_subtree.nleaves == 2
    assert kernel_test(mc)
    f1 = generator("f1")
    mc1 = realize(f1)
    assert [str(c) for c in mc1.domain_subtree.boundary] == ["g:1/1", "g:2/3", "g:3/7", "g:3/8"]
    assert realize(generator("f3")).tag == "POP"


def test_section_property():
    rng = random.Random(41)
    for _ in range(100):
        g = random_pair(rng, 16)
        assert theta(realize(g)) == g
        assert realize(g).tag == {"F": "OP", "T": "PO", "V": "POP"}[g.classify()]


def test_depth_stabilize():
    mc = identity_class(1)
    mc2 = depth_stabilize(mc)
    assert mc2.depth == 2 and theta(mc2) == TreePair.identity()
    assert theta(depth_stabilize(PHI0)) == generator("f0")
    a = depth_stabilize(depth_stabilize(PHI2))
    b = depth_stabilize(depth_stabilize(PHI2))
    assert a == b and a.depth == PHI2.depth + 2


def test_depth_invariance_five_refinements():
    rng = random.Random(42)
    for _ in range(20):
        mc = random_class(rng)
        want = theta(mc)
        for _ in range(5):
            mc = depth_stabilize(mc)
            assert theta(mc) == want


def test_compose_classes():
    ident = identity_class(2)
    assert theta(compose_classes(PHI0, ident)) == generator("f0")
    assert theta(compose_classes(ident, PHI0)) == generator("f0")
    assert kernel_test(compose_classes(PHI0, PHI0.invert()))
    # Phi0 o Phi1 agrees with f0 . f1 pointwise on the 2^-10 grid
    phi1 = realize(generator("f1"))
    composed = theta(compose_classes(PHI0, phi1))
    oracle = generator("f0").compose(generator("f1"))
    assert composed == oracle
    pl_c, pl_o = composed.to_pl_map(), oracle.to_pl_map()
    for k in range(1 << 10):
        x = Dyadic(k, 10)
        assert pl_c.eval(x) == pl_o.eval(x)


def test_homomorphism_random():
    rng = random.Random(43)
    for _ in range(100):
        a, b = random_class(rng), random_class(rng)
        assert theta(compose_classes(a, b)) == theta(a).compose(theta(b))


def test_tags_map_into_subgroups():
    # the order type of a bijection is the same on every representative, so the
    # tag of an unreduced class (e.g. a composite) names the class of theta(mc)
    rng = random.Random(44)
    tags = {"F": "OP", "T": "PO", "V": "POP"}
    for i in range(120):
        mc = random_class(rng)
        if i % 2:
            mc = compose_classes(mc, random_class(rng))
        assert mc.tag == tags[theta(mc).classify()]


def test_kernel_exactness():
    rng = random.Random(45)
    for _ in range(60):
        mc = random_class(rng)
        assert kernel_test(mc) == (theta(mc) == TreePair.identity())
    assert kernel_test(identity_class(3))
    assert not kernel_test(PHI0)


def test_malformed_class():
    with pytest.raises(Malformed):
        CombinatorialMappingClass.from_json(
            {"domain_leaves": ["g:1/1"], "range_leaves": ["g:1/1"], "perm": [1]}
        )
    with pytest.raises(Malformed):
        CombinatorialMappingClass(
            PantsSubtree([C(1, 1), C(1, 2)]), PantsSubtree([C(1, 1), C(1, 2)]), (0, 0)
        )


def test_class_json_round_trip():
    for mc in (PHI0, PHI2, PHI3, identity_class(2)):
        assert CombinatorialMappingClass.from_json(mc.to_json()) == mc
