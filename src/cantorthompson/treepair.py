"""Thompson's groups F, T, V as reduced tree-pair diagrams.

A group element is a pair of ordered rooted binary trees with the same leaf
count plus a leaf bijection: domain leaf i maps affinely onto range leaf
perm[i].  Equivalently it is a piecewise-affine right-continuous bijection of
[0, 1) with power-of-2 slopes and dyadic breakpoints (:class:`PLMap`); F and T
are the order-preserving and cyclically-ordered special cases.

Composition convention, fixed globally: ``compose(a, b)`` means *apply b
first*, i.e. the function a∘b.  The PL oracle test pins this down.

Trees are stored canonically as their ordered tuple of leaf codes
``(depth, index)``: the leaf is the standard dyadic interval
[index/2^depth, (index+1)/2^depth], the code `CurveAddress` uses with a
0-based index.  A sequence of codes is a tree iff those intervals tile
[0, 1] from left to right.  The public constructors check this once; the
algebra below builds its results from valid trees, so it skips the check.

Cost model: union, expansion, composition and reduction are single passes
over the leaves, so composing pairs of n and m leaves costs O(n + m) leaf
operations (on integers of at most depth bits).  Powers square repeatedly
and `word_eval` multiplies its letters as a balanced product, so a word of
size n costs O(n log n) leaf operations when its partial products keep about
one leaf per letter.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache

from .dyadic import Dyadic, DyadicInterval, ZERO, ONE
from .errors import NotStandardPartition, NotThompson, OutOfDomain, WordTooLong

# the largest word word_eval accepts: the sum of |exponent| over its letters
MAX_WORD_SIZE = 10_000

_BITS_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_DIGITS_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _code_of_bits(bits) -> tuple:
    """(depth, index) of a root-to-leaf bit tuple (0 = left)."""
    bits = bytes(tuple(bits))
    if not bits:
        return (0, 0)
    if bits.translate(None, b"\x00\x01"):
        raise ValueError(f"leaf address {tuple(bits)} is not over {{0, 1}}")
    return (len(bits), int(bits.translate(_BITS_TO_DIGITS), 2))


def _bits_of_code(d: int, k: int) -> tuple:
    return tuple(bin(k | 1 << d)[3:].encode().translate(_DIGITS_TO_BITS))


def _check_tiling(codes) -> None:
    """Raise ValueError unless the leaf codes tile [0, 1] from left to right.

    Sibling leaves on top of a stack merge into their parent; the codes are
    the leaves of a tree, in order, iff this leaves exactly the root.
    """
    if not codes:
        raise ValueError("a tree has at least one leaf")
    stack = []
    for d, k in codes:
        while k & 1 and stack and stack[-1] == (d, k - 1):
            stack.pop()
            d, k = d - 1, k >> 1
        stack.append((d, k))
    if stack != [(0, 0)]:
        raise ValueError("leaf addresses do not tile [0,1]")


class Tree:
    """Ordered rooted binary tree, canonically its left-to-right leaf codes (depth, index).

    ``Tree(addresses)`` takes root-to-leaf bit tuples, ``Tree(codes=...)``
    takes (depth, index) pairs; both check that the leaves tile [0, 1].
    """

    __slots__ = ("codes",)

    def __init__(self, addresses=None, *, codes=None):
        if (addresses is None) == (codes is None):
            raise TypeError("Tree() takes leaf addresses or codes=, not both")
        if codes is None:
            codes = tuple(_code_of_bits(a) for a in addresses)
        else:
            codes = tuple((d, k) for d, k in codes)
        _check_tiling(codes)
        object.__setattr__(self, "codes", codes)

    @classmethod
    def _trusted(cls, codes: tuple) -> "Tree":
        """A tree from codes already known to tile [0, 1] (not checked)."""
        tree = object.__new__(cls)
        object.__setattr__(tree, "codes", codes)
        return tree

    def __setattr__(self, name, value):
        raise AttributeError("Tree is immutable")

    @property
    def addresses(self) -> tuple:
        """The leaves as root-to-leaf bit tuples (0 = left), left to right."""
        return tuple(_bits_of_code(d, k) for d, k in self.codes)

    @classmethod
    def leaf(cls) -> "Tree":
        return cls._trusted(((0, 0),))

    @classmethod
    def caret(cls, left: "Tree", right: "Tree") -> "Tree":
        return cls._trusted(
            tuple((d + 1, k) for d, k in left.codes) + tuple((d + 1, k | 1 << d) for d, k in right.codes)
        )

    @property
    def is_leaf(self) -> bool:
        return self.codes == ((0, 0),)

    @property
    def nleaves(self) -> int:
        return len(self.codes)

    def union(self, other: "Tree") -> "Tree":
        """Smallest common refinement (union of the two partitions' breakpoints)."""
        out, i, j = [], 0, 0
        a, b = self.codes, other.codes
        na, nb = len(a), len(b)
        # both tile [0,1], so a[i] and b[j] always start at the same point
        while i < na:
            p, q = a[i], b[j]
            if p == q:
                out.append(p)
                i += 1
                j += 1
            elif p[0] < q[0]:  # b refines the leaf p
                d, k = p
                while j < nb and b[j][0] >= d and b[j][1] >> (b[j][0] - d) == k:
                    out.append(b[j])
                    j += 1
                i += 1
            else:  # a refines the leaf q
                d, k = q
                while i < na and a[i][0] >= d and a[i][1] >> (a[i][0] - d) == k:
                    out.append(a[i])
                    i += 1
                j += 1
        return Tree._trusted(tuple(out))

    def to_string(self) -> str:
        """Preorder serialization: 'c' for caret, 'l' for leaf (e.g. f0 domain = "clcll").

        A leaf is the leftmost leaf below as many carets as its index has
        trailing zero bits (all d of them for index 0), so those carets open
        right before it.
        """
        return "".join(
            "c" * (d if k == 0 else (k & -k).bit_length() - 1) + "l" for d, k in self.codes
        )

    @classmethod
    def from_string(cls, text: str) -> "Tree":
        codes = []
        pending = [(0, 0)]  # nodes still to read, next one on top
        for pos, c in enumerate(text):
            if not pending:
                raise ValueError(f"trailing garbage in tree string {text!r}")
            d, k = pending.pop()
            if c == "l":
                codes.append((d, k))
            elif c == "c":
                pending.append((d + 1, 2 * k + 1))
                pending.append((d + 1, 2 * k))
            else:
                raise ValueError(f"bad character {c!r} in tree string")
        if pending:
            raise ValueError(f"truncated tree string {text!r}")
        return cls(codes=codes)

    @classmethod
    def from_partition(cls, points) -> "Tree":
        """Tree whose leaves are the standard dyadic intervals [x_i, x_{i+1}].

        Raises NotStandardPartition if some piece is not standard dyadic.
        """

        def coerce(p):
            if isinstance(p, Dyadic):
                return p
            if isinstance(p, str):
                return Dyadic.parse(p)
            if isinstance(p, Fraction):
                try:
                    return Dyadic.from_fraction(p)
                except ValueError as exc:
                    raise NotStandardPartition(str(exc)) from exc
            return Dyadic._coerce(p)

        try:
            pts = [coerce(p) for p in points]
        except NotStandardPartition:
            raise
        except (ValueError, TypeError) as exc:
            raise NotStandardPartition(str(exc)) from exc
        if len(pts) < 2 or pts[0] != ZERO or pts[-1] != ONE or any(not pts[i] < pts[i + 1] for i in range(len(pts) - 1)):
            raise NotStandardPartition(f"points {points!r} are not an increasing 0..1 partition")
        codes = []
        for lo, hi in zip(pts, pts[1:]):
            iv = DyadicInterval(lo, hi)
            if not iv.is_standard:
                raise NotStandardPartition(f"{iv} is not a standard dyadic interval")
            n = iv.width.exp
            codes.append((n, lo.num << (n - lo.exp)))
        return cls(codes=codes)

    def __eq__(self, other):
        return isinstance(other, Tree) and self.codes == other.codes

    def __hash__(self):
        return hash(self.codes)

    def __repr__(self):
        return f"Tree({self.to_string()!r})"


def tree_from_partition(points) -> Tree:
    return Tree.from_partition(points)


class PLMap:
    """Piecewise-affine right-continuous bijection of [0,1).

    Pieces are (lo, hi, slope_log2, offset): x in [lo, hi) maps to
    2^slope_log2 * x + offset.  Source and image intervals each partition
    [0, 1); raw data violating this (or with a slope that is not a positive
    power of 2, or a non-dyadic breakpoint/offset) raises NotThompson.
    """

    __slots__ = ("pieces", "_piece_keys")

    def __init__(self, pieces):
        norm = []
        for piece in pieces:
            lo, hi, slope, offset = piece
            lo = self._dyadic(lo)
            hi = self._dyadic(hi)
            offset = self._dyadic(offset)
            norm.append((lo, hi, self._slope_log2(slope), offset))
        norm.sort(key=lambda p: p[0].as_fraction())
        if not norm:
            raise NotThompson("empty piece list")
        x = ZERO
        for lo, hi, m, o in norm:
            if lo != x or not lo < hi:
                raise NotThompson("source intervals do not partition [0,1)")
            x = hi
        if x != ONE:
            raise NotThompson("source intervals do not reach 1")
        images = sorted((self._apply(m, o, lo), self._apply(m, o, hi)) for lo, hi, m, o in norm)
        y = ZERO
        for ilo, ihi in images:
            if ilo != y:
                raise NotThompson("image intervals do not partition [0,1): not a bijection")
            y = ihi
        if y != ONE:
            raise NotThompson("image intervals do not reach 1")
        self._set_pieces(tuple(norm))

    @classmethod
    def _trusted(cls, pieces) -> "PLMap":
        """A map from pieces (lo, hi, slope_log2, offset) in source order, known to be valid."""
        pl = object.__new__(cls)
        pl._set_pieces(tuple(pieces))
        return pl

    def _set_pieces(self, pieces: tuple) -> None:
        object.__setattr__(self, "pieces", pieces)
        # piece lower endpoints as integers at a common power-of-2 scale (for bisect)
        scale = max(p[0].exp for p in pieces)
        keys = [p[0].num << (scale - p[0].exp) for p in pieces]
        object.__setattr__(self, "_piece_keys", (keys, scale))

    def __setattr__(self, name, value):
        raise AttributeError("PLMap is immutable")

    @staticmethod
    def _dyadic(x) -> Dyadic:
        if isinstance(x, Dyadic):
            return x
        if isinstance(x, int):
            return Dyadic(x)
        try:
            if isinstance(x, Fraction):
                return Dyadic.from_fraction(x)
            if isinstance(x, str):
                return Dyadic.parse(x)
        except ValueError as exc:
            raise NotThompson(str(exc)) from exc
        raise NotThompson(f"breakpoint/offset {x!r} is not dyadic")

    @staticmethod
    def _slope_log2(slope) -> int:
        if isinstance(slope, int) and not isinstance(slope, bool):
            # already a log2 exponent?  No: accept integer slopes 1, 2, 4 ... as values
            if slope <= 0:
                raise NotThompson(f"slope {slope} is not a positive power of 2")
            m = slope.bit_length() - 1
            if slope != 1 << m:
                raise NotThompson(f"slope {slope} is not a power of 2")
            return m
        if isinstance(slope, Dyadic):
            slope = slope.as_fraction()
        if isinstance(slope, Fraction):
            if slope <= 0:
                raise NotThompson(f"slope {slope} is not a positive power of 2")
            if slope.numerator == 1:
                m = slope.denominator.bit_length() - 1
                if slope.denominator == 1 << m:
                    return -m
            elif slope.denominator == 1:
                m = slope.numerator.bit_length() - 1
                if slope.numerator == 1 << m:
                    return m
            raise NotThompson(f"slope {slope} is not a power of 2")
        raise NotThompson(f"slope {slope!r} is not a power of 2")

    @staticmethod
    def _apply(m: int, offset: Dyadic, x: Dyadic) -> Dyadic:
        scaled = Dyadic(x.num << m, x.exp) if m >= 0 else Dyadic(x.num, x.exp - m)
        return scaled + offset

    def eval(self, x) -> Dyadic:
        """Exact image of x in [0,1); piece boundaries resolve right-continuously."""
        x = self._dyadic(x)
        if x < ZERO or not x < ONE:
            raise OutOfDomain(f"{x} is not in [0,1)")
        keys, scale = self._piece_keys
        if x.exp <= scale:
            i = bisect_right(keys, x.num << (scale - x.exp)) - 1
        else:
            # keys[i] * 2^shift <= x.num  <=>  keys[i] <= x.num >> shift (x >= 0)
            i = bisect_right(keys, x.num >> (x.exp - scale)) - 1
        _, _, m, o = self.pieces[i]
        return self._apply(m, o, x)

    def __call__(self, x) -> Dyadic:
        return self.eval(x)

    def eval_real(self, x) -> Dyadic:
        """Periodic extension f(x + n) = f(x) + n used for T on the line."""
        x = self._dyadic(x)
        n = x.num >> x.exp if x.num >= 0 else -((-x.num + (1 << x.exp) - 1) >> x.exp)
        return self.eval(x - n) + Dyadic(n)

    def breakpoints(self) -> list:
        return [p[0] for p in self.pieces] + [ONE]

    def refined(self, cuts) -> "PLMap":
        """Same map with extra dyadic breakpoints inserted."""
        cuts = sorted({c.as_fraction() for c in map(self._dyadic, cuts)})
        pieces = []
        for lo, hi, m, o in self.pieces:
            xs = [lo] + [Dyadic.from_fraction(c) for c in cuts if lo.as_fraction() < c < hi.as_fraction()] + [hi]
            for a, b in zip(xs, xs[1:]):
                pieces.append((a, b, 1 << m if m >= 0 else Fraction(1, 1 << -m), o))
        return PLMap(pieces)

    def same_map(self, other: "PLMap") -> bool:
        """Pointwise equality on [0,1), decided via common refinement."""
        cuts = self.breakpoints() + other.breakpoints()
        a = self.refined(cuts)
        b = other.refined(cuts)
        return [(p[0], p[2], p[3]) for p in a.pieces] == [(p[0], p[2], p[3]) for p in b.pieces]

    def __eq__(self, other):
        return isinstance(other, PLMap) and self.pieces == other.pieces

    def __repr__(self):
        bits = ", ".join(f"[{lo},{hi}): 2^{m} x + {o}" for lo, hi, m, o in self.pieces)
        return f"PLMap({bits})"


def perm_class(perm) -> str:
    """Order type of a leaf bijection: "F" (identity), "T" (cyclic rotation) or "V".

    The type is the same on every representative of an element, since
    expanding a leaf of an identity or rotation bijection keeps it one.
    """
    n = len(perm)
    if all(perm[i] == i for i in range(n)):
        return "F"
    c = perm[0]
    if all(perm[i] == (i + c) % n for i in range(n)):
        return "T"
    return "V"


class TreePair:
    """A Thompson group element as a (domain tree, range tree, leaf bijection).

    perm is 0-based: domain leaf i maps onto range leaf perm[i].  Construction
    does not reduce; use :meth:`reduce` (compose/inverse/generators always
    return reduced pairs).
    """

    __slots__ = ("domain", "range", "perm")

    def __init__(self, domain: Tree, range_: Tree, perm):
        perm = tuple(perm)
        n = domain.nleaves
        if range_.nleaves != n or sorted(perm) != list(range(n)):
            raise ValueError("leaf counts/bijection mismatch")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "range", range_)
        object.__setattr__(self, "perm", perm)

    @classmethod
    def _trusted(cls, domain: Tree, range_: Tree, perm: tuple) -> "TreePair":
        """A pair from data already known to match (not checked)."""
        pair = object.__new__(cls)
        object.__setattr__(pair, "domain", domain)
        object.__setattr__(pair, "range", range_)
        object.__setattr__(pair, "perm", perm)
        return pair

    def __setattr__(self, name, value):
        raise AttributeError("TreePair is immutable")

    @classmethod
    def identity(cls) -> "TreePair":
        leaf = Tree.leaf()
        return cls._trusted(leaf, leaf, (0,))

    @property
    def nleaves(self) -> int:
        return self.domain.nleaves

    def is_identity(self) -> bool:
        return self.reduce() == TreePair.identity()

    # -- reduction --

    def reduce(self) -> "TreePair":
        """Unique reduced representative: cancel exposed caret pairs until none remain.

        A caret pair cancels when domain leaves (i, i+1) are siblings matched
        onto range leaves that are siblings in the same order.  One left to
        right pass over the domain leaves keeps a stack of (domain node, range
        node) matches with no cancelling neighbours; a cancellation merges the
        top two, and only the merged match and its left neighbour can form a
        new pair.  The result has no exposed caret pair, so it is the reduced
        diagram of the element, which is unique (Cannon-Floyd-Parry, §2).
        Cancelling in any other order gives the same pair; this is
        property-tested, with a restart-from-leaf-0 reduction as reference.
        """
        dom, ran = self.domain.codes, self.range.codes
        # (domain depth, domain index, range depth, range index, first range leaf)
        stack = []
        for (dd, dk), j in zip(dom, self.perm):
            rd, rk = ran[j]
            while dk & 1 and rk & 1 and stack:
                pd, pk, qd, qk, pj = stack[-1]
                if pd != dd or pk != dk - 1 or qd != rd or qk != rk - 1:
                    break
                stack.pop()
                dd, dk, rd, rk, j = dd - 1, dk >> 1, rd - 1, rk >> 1, pj
            stack.append((dd, dk, rd, rk, j))
        if len(stack) == len(dom):
            return self
        # a merged match keeps its first range leaf, so these orders agree
        slot = [-1] * len(ran)
        for i, entry in enumerate(stack):
            slot[entry[4]] = i
        new_ran, perm = [], [0] * len(stack)
        for i in slot:
            if i >= 0:
                perm[i] = len(new_ran)
                new_ran.append(stack[i][2:4])
        new_dom = tuple(entry[:2] for entry in stack)
        return TreePair._trusted(Tree._trusted(new_dom), Tree._trusted(tuple(new_ran)), tuple(perm))

    # -- expansion and composition --

    def _expand_range_to(self, target: Tree) -> "TreePair":
        """Equivalent pair whose range tree is `target` (a refinement of self.range)."""
        tgt = target.codes
        nt = len(tgt)
        blocks, starts = [], []  # per range leaf: the codes below it in target, relative to it
        t = 0
        for d, k in self.range.codes:
            s = t
            while t < nt and tgt[t][0] >= d and tgt[t][1] >> (tgt[t][0] - d) == k:
                t += 1
            if t == s:
                raise ValueError("target is not a refinement of the range tree")
            blocks.append([(e - d, m - (k << (e - d))) for e, m in tgt[s:t]])
            starts.append(s)
        new_dom, new_perm = [], []
        for (d, k), j in zip(self.domain.codes, self.perm):
            block = blocks[j]
            new_dom.extend((d + e, (k << e) | m) for e, m in block)
            new_perm.extend(range(starts[j], starts[j] + len(block)))
        return TreePair._trusted(Tree._trusted(tuple(new_dom)), target, tuple(new_perm))

    def _expand_domain_to(self, target: Tree) -> "TreePair":
        return self.inverse_unreduced()._expand_range_to(target).inverse_unreduced()

    def inverse_unreduced(self) -> "TreePair":
        inv = [0] * len(self.perm)
        for i, j in enumerate(self.perm):
            inv[j] = i
        return TreePair._trusted(self.range, self.domain, tuple(inv))

    def inverse(self) -> "TreePair":
        return self.inverse_unreduced().reduce()

    def compose_unreduced(self, other: "TreePair") -> "TreePair":
        """self ∘ other over the common refinement of other.range and self.domain, not reduced."""
        middle = other.range.union(self.domain)
        b = other._expand_range_to(middle)
        a = self._expand_domain_to(middle)
        a_perm = a.perm
        return TreePair._trusted(b.domain, a.range, tuple(a_perm[j] for j in b.perm))

    def compose(self, other: "TreePair") -> "TreePair":
        """self ∘ other: apply `other` first, then `self`.  Result is reduced."""
        return self.compose_unreduced(other).reduce()

    def __mul__(self, other):
        return self.compose(other)

    def __pow__(self, k: int):
        """self^k by repeated squaring: O(log |k|) compositions."""
        if k == 0:
            return TreePair.identity()
        square = self if k > 0 else self.inverse()
        k = abs(k)
        out = None
        while True:
            if k & 1:
                out = square if out is None else out.compose(square)
            k >>= 1
            if not k:
                return out
            square = square.compose(square)

    # -- classification and PL form --

    def classify(self) -> str:
        """Smallest containing class of the reduced pair: "F", "T" or "V"."""
        return perm_class(self.reduce().perm)

    def to_pl_map(self) -> PLMap:
        """Piece i maps domain leaf interval i affinely onto range leaf interval perm[i]."""
        ran = self.range.codes
        pieces = []
        for (d, k), j in zip(self.domain.codes, self.perm):
            e, m = ran[j]
            # [k, k+1]/2^d -> [m, m+1]/2^e is x -> 2^(d-e) x + (m - k)/2^e
            pieces.append((Dyadic(k, d), Dyadic(k + 1, d), d - e, Dyadic(m - k, e)))
        return PLMap._trusted(pieces)

    def eval(self, x) -> Dyadic:
        return self.to_pl_map().eval(x)

    def __eq__(self, other):
        return (
            isinstance(other, TreePair)
            and self.domain == other.domain
            and self.range == other.range
            and self.perm == other.perm
        )

    def same_element(self, other: "TreePair") -> bool:
        return self.reduce() == other.reduce()

    def __hash__(self):
        return hash((self.domain, self.range, self.perm))

    def __repr__(self):
        return f"TreePair({self.domain.to_string()}, {self.range.to_string()}, {self.perm})"

    def to_json(self) -> dict:
        return {
            "domain": self.domain.to_string(),
            "range": self.range.to_string(),
            "perm": [j + 1 for j in self.perm],  # 1-based leaf numbers
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TreePair":
        return cls(
            Tree.from_string(obj["domain"]),
            Tree.from_string(obj["range"]),
            [j - 1 for j in obj["perm"]],
        )


def from_pl_map(m) -> TreePair:
    """Tree pair of a PL map (or of raw piece data, validated).

    Each piece is cut into standard dyadic source intervals whose images are
    also standard; the two partitions become the domain/range trees and the
    piece matching becomes the leaf bijection.  The result is reduced.
    """
    if not isinstance(m, PLMap):
        m = PLMap(m)
    dom, img = [], []  # source cell codes, and image cell codes in source order
    for lo, hi, slope_m, o in m.pieces:
        # a cell of depth n >= n_min at a multiple of 2^-n has a standard image
        n_min = max(0, slope_m + o.exp)
        x, n = lo.num, lo.exp  # the cursor x/2^n, a multiple of 2^-n
        while True:
            while n < n_min or (x + 1) << hi.exp > hi.num << n:  # [x, x+1]/2^n leaves [lo, hi)
                x, n = x << 1, n + 1
            dom.append((n, x))
            img.append((n - slope_m, x + (o.num << (n - slope_m - o.exp))))
            x += 1
            if x << hi.exp == hi.num << n:
                break
            while n > 0 and not x & 1:
                x, n = x >> 1, n - 1
    top = max(e for e, _ in img)
    order = sorted(range(len(img)), key=lambda i: img[i][1] << (top - img[i][0]))
    rank = [0] * len(order)
    for pos, i in enumerate(order):
        rank[i] = pos
    ran = tuple(img[i] for i in order)
    return TreePair._trusted(Tree._trusted(tuple(dom)), Tree._trusted(ran), tuple(rank)).reduce()


# -- the standard generating maps as affine pieces on [0,1) (f2/f3 wrap mod 1) --

_GENERATOR_PIECES = {
    "f0": [("0", "1/2", Fraction(1, 2), "0"), ("1/2", "3/4", 1, "-1/4"), ("3/4", "1", 2, "-1")],
    "f1": [
        ("0", "1/2", 1, "0"),
        ("1/2", "3/4", Fraction(1, 2), "1/4"),
        ("3/4", "7/8", 1, "-1/8"),
        ("7/8", "1", 2, "-1"),
    ],
    "f2": [("0", "1/2", Fraction(1, 2), "3/4"), ("1/2", "3/4", 2, "-1"), ("3/4", "1", 1, "-1/4")],
    "f3": [("0", "1/2", Fraction(1, 2), "1/2"), ("1/2", "3/4", 2, "-1"), ("3/4", "1", 1, "0")],
}


def generator_pl_map(name: str) -> PLMap:
    if name not in _GENERATOR_PIECES:
        raise ValueError(f"unknown generator {name!r} (expected f0..f3)")
    return PLMap(_GENERATOR_PIECES[name])


@lru_cache(maxsize=None)
def generator(name: str) -> TreePair:
    """The reduced pair of f0..f3, built on first use and kept."""
    return from_pl_map(generator_pl_map(name))


_WORD_TOKEN = re.compile(r"^f([0-3])(?:\^(-?\d+))?$")


def _check_word_size(word) -> None:
    size = sum(abs(e) for _, e in word)
    if size > MAX_WORD_SIZE:
        raise WordTooLong(f"word of size {size} (the sum of |exponent|) exceeds {MAX_WORD_SIZE}")


def parse_word(text: str) -> list:
    """Parse e.g. "f0 f1^-1 f2^2" into [(name, exponent), ...].

    Raises WordTooLong past MAX_WORD_SIZE.
    """
    word = []
    for token in text.split():
        m = _WORD_TOKEN.match(token)
        if not m:
            raise ValueError(f"bad word token {token!r} (expected f[0-3] or f[0-3]^k)")
        word.append((f"f{m.group(1)}", int(m.group(2)) if m.group(2) else 1))
    _check_word_size(word)
    return word


def word_eval(word) -> TreePair:
    """Left-to-right composition g1^e1 ∘ g2^e2 ∘ ... (rightmost applied first), reduced.

    The letters are multiplied as a balanced product, adjacent pairs first,
    which the associativity of composition allows.  Raises WordTooLong past
    MAX_WORD_SIZE, before any power is built.
    """
    word = list(word)
    _check_word_size(word)
    factors = [generator(name) ** exponent for name, exponent in word]
    if not factors:
        return TreePair.identity()
    while len(factors) > 1:
        paired = [factors[i].compose(factors[i + 1]) for i in range(0, len(factors) - 1, 2)]
        if len(factors) % 2:
            paired.append(factors[-1])
        factors = paired
    return factors[0].reduce()
