"""From combinatorial mapping classes to Thompson elements and back.

A mapping class is stored purely combinatorially: which boundary pants curve
goes where.  That is exactly the data the correspondence factors through, so
the translation to a tree pair is the isomorphism iota_C applied leaf by
leaf; no analytic map is ever constructed.  Dehn-twist data is invisible to
this model by design.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import Malformed, NotAPartition
from .pantstree import CurveAddress, PantsSubtree
from .treepair import Tree, TreePair, perm_class


@dataclass(frozen=True)
class CombinatorialMappingClass:
    """Boundary-curve matching: domain curve i goes to range curve perm[i] (0-based).

    depth is the coarsest uniform depth d with the domain subtree refining the
    boundary of W_d, i.e. the minimum depth among domain boundary curves.
    """

    domain_subtree: PantsSubtree
    range_subtree: PantsSubtree
    perm: tuple

    def __post_init__(self):
        n = self.domain_subtree.nleaves
        if self.range_subtree.nleaves != n or sorted(self.perm) != list(range(n)):
            raise Malformed("leaf counts/bijection mismatch")

    @property
    def depth(self) -> int:
        return min(c.depth for c in self.domain_subtree.boundary)

    @property
    def tag(self) -> str:
        """OP / PO / POP: the F / T / V order type of the bijection."""
        return {"F": "OP", "T": "PO", "V": "POP"}[perm_class(self.perm)]

    def invert(self) -> "CombinatorialMappingClass":
        return _class_of(_pair(self).inverse_unreduced())

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "domain_leaves": [str(c) for c in self.domain_subtree.boundary],
            "range_leaves": [str(c) for c in self.range_subtree.boundary],
            "perm": [j + 1 for j in self.perm],
        }

    @staticmethod
    def from_json(obj: dict) -> "CombinatorialMappingClass":
        try:
            dom = PantsSubtree(CurveAddress.parse(t) for t in obj["domain_leaves"])
            ran = PantsSubtree(CurveAddress.parse(t) for t in obj["range_leaves"])
        except NotAPartition as exc:
            raise Malformed(str(exc)) from exc
        return CombinatorialMappingClass(dom, ran, tuple(j - 1 for j in obj["perm"]))


def identity_class(depth: int = 1) -> CombinatorialMappingClass:
    """The identity matching on the boundary of W_depth."""
    from .pantstree import boundary_of_Wd

    curves = boundary_of_Wd(depth)
    tree = PantsSubtree(curves)
    return CombinatorialMappingClass(tree, tree, tuple(range(len(curves))))


def _pair(mc: CombinatorialMappingClass) -> TreePair:
    """The unreduced tree pair of a class: its subtrees are already iota_C trees."""
    return TreePair(mc.domain_subtree.to_tree(), mc.range_subtree.to_tree(), mc.perm)


def _class_of(pair: TreePair) -> CombinatorialMappingClass:
    """The class read off a pair whose trees both have at least two leaves."""
    return CombinatorialMappingClass(
        PantsSubtree.from_tree(pair.domain), PantsSubtree.from_tree(pair.range), pair.perm
    )


def theta(mc: CombinatorialMappingClass) -> TreePair:
    """The Thompson element of a mapping class: push both subtrees through iota_C.

    The result is reduced; its class (F/T/V) matches the OP/PO/POP tag.
    """
    return _pair(mc).reduce()


def realize(g: TreePair) -> CombinatorialMappingClass:
    """A combinatorial section of theta: pull a reduced pair back through iota_C.

    theta(realize(g)) == g as reduced pairs, and the OP/PO/POP tag matches
    classify(g).  The trivial pair is realized at depth 1 (its leaf [0,1] is
    the root vertex, not a curve, so one expansion is forced).
    """
    g = g.reduce()
    if g.domain.is_leaf:
        return identity_class(1)
    return _class_of(g)


def depth_stabilize(mc: CombinatorialMappingClass) -> CombinatorialMappingClass:
    """Refine every matched boundary curve into its two children (left to left).

    This encodes that pants-level maps match boundary circles without
    twisting; theta is invariant under it.
    """

    def refine(subtree: PantsSubtree) -> Tree:
        return Tree(codes=[(d + 1, 2 * k + b) for d, k in subtree.to_tree().codes for b in (0, 1)])

    perm = [2 * j + b for j in mc.perm for b in (0, 1)]
    return _class_of(TreePair(refine(mc.domain_subtree), refine(mc.range_subtree), perm))


def compose_classes(
    a: CombinatorialMappingClass, b: CombinatorialMappingClass
) -> CombinatorialMappingClass:
    """Combinatorial composition, b first: refine to a common middle subtree and match through.

    Satisfies theta(compose_classes(a, b)) == compose(theta(a), theta(b)).
    The result keeps its (unreduced) subtree data; reduction happens inside
    theta only.
    """
    # the common refinement has >= 2 leaves, so both sides stay genuine subtrees (depth >= 1)
    return _class_of(_pair(a).compose_unreduced(_pair(b)))


def kernel_test(mc: CombinatorialMappingClass) -> bool:
    """True iff the class is combinatorially trivial: theta(mc) reduces to the identity."""
    return theta(mc) == TreePair.identity()
