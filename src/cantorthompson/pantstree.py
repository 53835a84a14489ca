"""The canonical pants tree and its isomorphism onto the dyadic tree.

Pants curves are pure combinatorial addresses (d, j): the curve surrounding
the Cantor interval I_d^j.  Their geometric realization lives in
:mod:`cantorthompson.cantor` (circles keyed by the same (d, j)).  The tree
isomorphism iota_C identifies curve (d, j) with the standard dyadic interval
[(j-1)/2^d, j/2^d]; the root vertex (the point at infinity) is a sentinel,
not a curve.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dyadic import Dyadic, DyadicInterval, interval_of_address, address_of_interval
from .errors import NotAPartition
from .treepair import Tree


class _RootVertex:
    """The distinguished vertex for the point at infinity."""

    def __repr__(self):
        return "ROOT"


ROOT = _RootVertex()


@dataclass(frozen=True, order=True)
class CurveAddress:
    """Pants curve gamma_d^j of depth d >= 1, index j in 1..2^d."""

    depth: int
    index: int

    def __post_init__(self):
        if self.depth < 1 or not (1 <= self.index <= 2**self.depth):
            raise ValueError(f"bad curve address ({self.depth}, {self.index})")

    @property
    def left_child(self) -> "CurveAddress":
        return CurveAddress(self.depth + 1, 2 * self.index - 1)

    @property
    def right_child(self) -> "CurveAddress":
        return CurveAddress(self.depth + 1, 2 * self.index)

    @property
    def parent(self):
        """Parent curve, or ROOT for the depth-1 curves."""
        if self.depth == 1:
            return ROOT
        return CurveAddress(self.depth - 1, (self.index + 1) // 2)

    def bits(self) -> tuple:
        """Root-to-curve binary address (0 = left)."""
        k = self.index - 1
        return tuple((k >> (self.depth - 1 - i)) & 1 for i in range(self.depth))

    @staticmethod
    def from_bits(bits) -> "CurveAddress":
        bits = tuple(bits)
        k = 0
        for b in bits:
            k = 2 * k + b
        return CurveAddress(len(bits), k + 1)

    def __str__(self):
        return f"g:{self.depth}/{self.index}"

    @staticmethod
    def parse(text: str) -> "CurveAddress":
        if not text.startswith("g:") or "/" not in text:
            raise ValueError(f"bad curve address {text!r} (expected 'g:d/j')")
        d, j = text[2:].split("/", 1)
        return CurveAddress(int(d), int(j))


def iota_C(a: CurveAddress) -> DyadicInterval:
    """Tree isomorphism onto standard dyadic intervals: (d, j) -> [(j-1)/2^d, j/2^d]."""
    return DyadicInterval(Dyadic(a.index - 1, a.depth), Dyadic(a.index, a.depth))


def curve_of_interval(interval: DyadicInterval) -> CurveAddress:
    """Inverse of iota_C on standard dyadic intervals of positive depth."""
    bits = address_of_interval(interval)
    if not bits:
        raise ValueError("[0,1] corresponds to the root vertex, not a curve")
    return CurveAddress.from_bits(0 if c == "L" else 1 for c in bits)


def boundary_of_Wd(d: int) -> list:
    """The 2^d depth-d pants curves bounding W_d, in left-to-right order."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return [CurveAddress(d, j) for j in range(1, 2**d + 1)]


def pants_of(a) -> tuple:
    """Boundary triple of the pair of pants below `a`: (a, left child, right child).

    For ROOT this is the pair of pants P_0^1 around infinity: (ROOT, (1,1), (1,2)).
    """
    if a is ROOT:
        return (ROOT, CurveAddress(1, 1), CurveAddress(1, 2))
    return (a, a.left_child, a.right_child)


class PantsSubtree:
    """Subtree of the pants tree associated to an unbounded domain.

    A view of its image tree iota_C(T_W): curve (d, j) is the tree leaf with
    code (d, j - 1), and the boundary curves are the leaves in left-to-right
    order.  Vertices are the boundary curves plus all their ancestors plus
    the root sentinel.
    """

    __slots__ = ("tree",)

    def __init__(self, boundary):
        codes = [(c.depth, c.index - 1) for c in boundary]
        # left to right: by left endpoint, an ancestor before its descendants
        top = max((d for d, _ in codes), default=0)
        codes.sort(key=lambda c: (c[1] << (top - c[0]), c[0]))
        try:
            tree = Tree(codes=codes)
        except ValueError as exc:
            raise NotAPartition(f"boundary curves do not form a pants subtree: {exc}") from exc
        object.__setattr__(self, "tree", tree)

    def __setattr__(self, name, value):
        raise AttributeError("PantsSubtree is immutable")

    @property
    def boundary(self) -> tuple:
        """The boundary curves, in left-to-right order."""
        return tuple(CurveAddress(d, k + 1) for d, k in self.tree.codes)

    @property
    def nleaves(self) -> int:
        return self.tree.nleaves

    def vertices(self) -> set:
        """All vertices: boundary curves, their proper ancestors, and ROOT."""
        out = {ROOT}
        for c in self.boundary:
            out.add(c)
            p = c.parent
            while p is not ROOT:
                out.add(p)
                p = p.parent
        return out

    def to_tree(self) -> Tree:
        """The ordered rooted binary tree iota_C(T_W)."""
        return self.tree

    @staticmethod
    def from_tree(tree: Tree) -> "PantsSubtree":
        """View a tree as a subtree; the tree is already a valid tiling, so nothing is rechecked."""
        if tree.is_leaf:
            raise NotAPartition("the trivial tree has no pants curves on its boundary")
        view = object.__new__(PantsSubtree)
        object.__setattr__(view, "tree", tree)
        return view

    def __eq__(self, other):
        return isinstance(other, PantsSubtree) and self.tree == other.tree

    def __hash__(self):
        return hash(self.tree)

    def __repr__(self):
        return "PantsSubtree(%s)" % ", ".join(str(c) for c in self.boundary)


def subtree_from_boundary(curves) -> PantsSubtree:
    """The unique T_W whose leaf set is `curves`; NotAPartition if they do not tile [0,1]."""
    return PantsSubtree(curves)
