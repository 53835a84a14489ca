import random

import pytest

from cantorthompson.dyadic import Dyadic, DyadicInterval
from cantorthompson.errors import NotAPartition
from cantorthompson.pantstree import (
    ROOT,
    CurveAddress,
    PantsSubtree,
    boundary_of_Wd,
    curve_of_interval,
    iota_C,
    pants_of,
    subtree_from_boundary,
)

from _helpers import random_tree

C = CurveAddress


def test_iota_C_examples():
    assert iota_C(C(1, 1)) == DyadicInterval(Dyadic(0), Dyadic(1, 1))
    assert iota_C(C(1, 2)) == DyadicInterval(Dyadic(1, 1), Dyadic(1))
    assert iota_C(C(3, 5)) == DyadicInterval(Dyadic(1, 1), Dyadic(5, 3))


def test_iota_C_is_tree_isomorphism():
    rng = random.Random(31)
    for _ in range(300):
        d = rng.randint(1, 10)
        j = rng.randint(1, 2**d)
        a = C(d, j)
        iv = iota_C(a)
        mid = (iv.lo + iv.hi).half()
        assert iota_C(a.left_child) == DyadicInterval(iv.lo, mid)
        assert iota_C(a.right_child) == DyadicInterval(mid, iv.hi)
        assert curve_of_interval(iv) == a


def test_boundary_of_Wd():
    assert boundary_of_Wd(1) == [C(1, 1), C(1, 2)]
    assert len(boundary_of_Wd(2)) == 4
    assert len(boundary_of_Wd(5)) == 32
    with pytest.raises(ValueError):
        boundary_of_Wd(0)


def test_subtree_from_boundary_examples():
    s = subtree_from_boundary([C(1, 1), C(1, 2)])
    assert s.to_tree().to_string() == "cll"
    s = subtree_from_boundary([C(1, 1), C(2, 3), C(2, 4)])
    assert s.to_tree().to_string() == "clcll"  # the D-tree of f0
    with pytest.raises(NotAPartition):
        subtree_from_boundary([C(1, 1), C(2, 3)])  # misses [3/4, 1]
    with pytest.raises(NotAPartition):
        subtree_from_boundary([C(1, 1), C(1, 2), C(2, 1)])  # overlap
    s = subtree_from_boundary([C(2, 4), C(1, 1), C(2, 3)])  # any order
    assert s.to_tree().to_string() == "clcll"
    assert s.boundary == (C(1, 1), C(2, 3), C(2, 4))
    with pytest.raises(NotAPartition):
        subtree_from_boundary([])


def test_pants_of_examples():
    assert pants_of(C(1, 1)) == (C(1, 1), C(2, 1), C(2, 2))
    assert pants_of(ROOT) == (ROOT, C(1, 1), C(1, 2))
    assert pants_of(C(2, 3)) == (C(2, 3), C(3, 5), C(3, 6))


def test_parent_child_structure():
    a = C(3, 5)
    assert a.parent == C(2, 3)
    assert C(1, 2).parent is ROOT
    assert a.left_child.parent == a and a.right_child.parent == a


def test_subtree_round_trip_and_prop_2_7():
    rng = random.Random(32)
    for _ in range(60):
        t = random_tree(rng, rng.randint(2, 64))
        s = PantsSubtree.from_tree(t)
        assert s.to_tree() == t
        assert subtree_from_boundary(s.boundary) == s
    # vertex closure: ancestors of every boundary curve are present, plus ROOT
    s = subtree_from_boundary([C(1, 1), C(2, 3), C(2, 4)])
    assert s.vertices() == {ROOT, C(1, 1), C(1, 2), C(2, 3), C(2, 4)}


def test_text_form():
    a = C(2, 3)
    assert str(a) == "g:2/3"
    assert CurveAddress.parse("g:2/3") == a
    with pytest.raises(ValueError):
        CurveAddress.parse("2/3")
    with pytest.raises(ValueError):
        CurveAddress.parse("g:0/1")
