"""Thompson's groups F, T, V as reduced tree-pair diagrams.

A group element is a pair of ordered rooted binary trees with the same leaf
count plus a leaf bijection: domain leaf i maps affinely onto range leaf
perm[i].  Equivalently it is a piecewise-affine right-continuous bijection of
[0, 1) with power-of-2 slopes and dyadic breakpoints (:class:`PLMap`); F and T
are the order-preserving and cyclically-ordered special cases.

Composition convention, fixed globally: ``compose(a, b)`` means *apply b
first*, i.e. the function a∘b.  The PL oracle test pins this down.

Trees are stored canonically as their ordered tuple of leaf addresses (tuples
over {0, 1}, 0 = left).  A set of leaf addresses is a tree iff the
corresponding standard dyadic intervals partition [0, 1].
"""

from __future__ import annotations

import re
from bisect import bisect_right
from fractions import Fraction

from .dyadic import Dyadic, DyadicInterval, ZERO, ONE
from .errors import NotStandardPartition, NotThompson, OutOfDomain

Address = tuple  # tuple of 0/1 bits, root to leaf


def _interval_of_bits(bits: Address) -> DyadicInterval:
    n = len(bits)
    k = 0
    for b in bits:
        k = 2 * k + b
    return DyadicInterval(Dyadic(k, n), Dyadic(k + 1, n))


class Tree:
    """Ordered rooted binary tree, canonically a complete prefix code of leaf addresses."""

    __slots__ = ("addresses",)

    def __init__(self, addresses):
        addresses = tuple(tuple(a) for a in addresses)
        if not addresses:
            raise ValueError("a tree has at least one leaf")
        # complete prefix code <=> the leaf intervals tile [0,1] left to right
        x = ZERO
        for bits in addresses:
            iv = _interval_of_bits(bits)
            if iv.lo != x:
                raise ValueError(f"leaf addresses do not tile [0,1]: gap/overlap at {iv.lo}")
            x = iv.hi
        if x != ONE:
            raise ValueError("leaf addresses do not reach 1")
        object.__setattr__(self, "addresses", addresses)

    def __setattr__(self, name, value):
        raise AttributeError("Tree is immutable")

    @classmethod
    def leaf(cls) -> "Tree":
        return cls([()])

    @classmethod
    def caret(cls, left: "Tree", right: "Tree") -> "Tree":
        return cls([(0,) + a for a in left.addresses] + [(1,) + a for a in right.addresses])

    @property
    def is_leaf(self) -> bool:
        return self.addresses == ((),)

    @property
    def nleaves(self) -> int:
        return len(self.addresses)

    def intervals(self) -> list:
        return [_interval_of_bits(a) for a in self.addresses]

    def union(self, other: "Tree") -> "Tree":
        """Smallest common refinement (union of the two partitions' breakpoints)."""
        out, i, j = [], 0, 0
        a, b = self.addresses, other.addresses
        while i < len(a) and j < len(b):
            p, q = a[i], b[j]
            if p == q:
                out.append(p)
                i += 1
                j += 1
            elif len(p) < len(q) and q[: len(p)] == p:
                while j < len(b) and b[j][: len(p)] == p:
                    out.append(b[j])
                    j += 1
                i += 1
            elif len(q) < len(p) and p[: len(q)] == q:
                while i < len(a) and a[i][: len(q)] == q:
                    out.append(a[i])
                    i += 1
                j += 1
            else:  # unreachable for valid trees
                raise AssertionError("incomparable leaves in tree union")
        return Tree(out)

    def to_string(self) -> str:
        """Preorder serialization: 'c' for caret, 'l' for leaf (e.g. f0 domain = "clcll")."""
        out = []

        def walk(addrs):
            if addrs == [()]:
                out.append("l")
                return
            out.append("c")
            walk([a[1:] for a in addrs if a[0] == 0])
            walk([a[1:] for a in addrs if a[0] == 1])

        walk(list(self.addresses))
        return "".join(out)

    @classmethod
    def from_string(cls, text: str) -> "Tree":
        pos = 0

        def parse() -> list:
            nonlocal pos
            if pos >= len(text):
                raise ValueError(f"truncated tree string {text!r}")
            c = text[pos]
            pos += 1
            if c == "l":
                return [()]
            if c == "c":
                l = parse()
                r = parse()
                return [(0,) + a for a in l] + [(1,) + a for a in r]
            raise ValueError(f"bad character {c!r} in tree string")

        addrs = parse()
        if pos != len(text):
            raise ValueError(f"trailing garbage in tree string {text!r}")
        return cls(addrs)

    @classmethod
    def from_partition(cls, points) -> "Tree":
        """Tree whose leaves are the standard dyadic intervals [x_i, x_{i+1}].

        Raises NotStandardPartition if some piece is not standard dyadic.
        """
        from .dyadic import address_of_interval
        from .errors import NotStandard

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
        addrs = []
        for lo, hi in zip(pts, pts[1:]):
            try:
                s = address_of_interval(DyadicInterval(lo, hi))
            except NotStandard as exc:
                raise NotStandardPartition(str(exc)) from exc
            addrs.append(tuple(0 if c == "L" else 1 for c in s))
        return cls(addrs)

    def __eq__(self, other):
        return isinstance(other, Tree) and self.addresses == other.addresses

    def __hash__(self):
        return hash(self.addresses)

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
        object.__setattr__(self, "pieces", tuple(norm))
        # piece lower endpoints as integers at a common power-of-2 scale (for bisect)
        scale = max(p[0].exp for p in norm)
        keys = [p[0].num << (scale - p[0].exp) for p in norm]
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

    def __setattr__(self, name, value):
        raise AttributeError("TreePair is immutable")

    @classmethod
    def identity(cls) -> "TreePair":
        return cls(Tree.leaf(), Tree.leaf(), (0,))

    @property
    def nleaves(self) -> int:
        return self.domain.nleaves

    def is_identity(self) -> bool:
        return self.reduce() == TreePair.identity()

    # -- reduction --

    def reduce(self) -> "TreePair":
        """Unique reduced representative: cancel exposed caret pairs until none remain.

        A caret pair cancels when domain leaves (i, i+1) are siblings matched in
        order onto range leaves (j, j+1) that are also siblings.  Cancelling the
        smallest i first makes the procedure deterministic; confluence is
        property-tested, not proven here.
        """
        dom = list(self.domain.addresses)
        ran = list(self.range.addresses)
        perm = list(self.perm)
        changed = True
        while changed and len(dom) > 1:
            changed = False
            for i in range(len(dom) - 1):
                a, b = dom[i], dom[i + 1]
                if a[:-1] != b[:-1] or a[-1] != 0 or b[-1] != 1:
                    continue
                j = perm[i]
                if perm[i + 1] != j + 1:
                    continue
                p, q = ran[j], ran[j + 1]
                if p[:-1] != q[:-1] or p[-1] != 0 or q[-1] != 1:
                    continue
                dom[i] = a[:-1]
                del dom[i + 1]
                ran[j] = p[:-1]
                del ran[j + 1]
                del perm[i + 1]
                perm = [k - 1 if k > j else k for k in perm]
                changed = True
                break
        return TreePair(Tree(dom), Tree(ran), perm)

    # -- expansion and composition --

    def _expand_range_to(self, target: Tree) -> "TreePair":
        """Equivalent pair whose range tree is `target` (a refinement of self.range)."""
        ran = self.range.addresses
        tgt = target.addresses
        blocks = []  # per range leaf: list of suffixes below it in target
        t = 0
        for leaf in ran:
            suf = []
            while t < len(tgt) and tgt[t][: len(leaf)] == leaf:
                suf.append(tgt[t][len(leaf):])
                t += 1
            if not suf:
                raise ValueError("target is not a refinement of the range tree")
            blocks.append(suf)
        starts = [0]
        for suf in blocks:
            starts.append(starts[-1] + len(suf))
        new_dom, new_perm = [], []
        for i, leaf in enumerate(self.domain.addresses):
            j = self.perm[i]
            for k, suffix in enumerate(blocks[j]):
                new_dom.append(leaf + suffix)
                new_perm.append(starts[j] + k)
        return TreePair(Tree(new_dom), target, new_perm)

    def _expand_domain_to(self, target: Tree) -> "TreePair":
        return self.inverse_unreduced()._expand_range_to(target).inverse_unreduced()

    def inverse_unreduced(self) -> "TreePair":
        inv = [0] * len(self.perm)
        for i, j in enumerate(self.perm):
            inv[j] = i
        return TreePair(self.range, self.domain, inv)

    def inverse(self) -> "TreePair":
        return self.inverse_unreduced().reduce()

    def compose_unreduced(self, other: "TreePair") -> "TreePair":
        """self ∘ other over the common refinement of other.range and self.domain, not reduced."""
        middle = other.range.union(self.domain)
        b = other._expand_range_to(middle)
        a = self._expand_domain_to(middle)
        perm = [a.perm[b.perm[i]] for i in range(middle.nleaves)]
        return TreePair(b.domain, a.range, perm)

    def compose(self, other: "TreePair") -> "TreePair":
        """self ∘ other: apply `other` first, then `self`.  Result is reduced."""
        return self.compose_unreduced(other).reduce()

    def __mul__(self, other):
        return self.compose(other)

    def __pow__(self, k: int):
        if k == 0:
            return TreePair.identity()
        base = self if k > 0 else self.inverse()
        out = base
        for _ in range(abs(k) - 1):
            out = out.compose(base)
        return out

    # -- classification and PL form --

    def classify(self) -> str:
        """Smallest containing class of the reduced pair: "F", "T" or "V"."""
        return perm_class(self.reduce().perm)

    def to_pl_map(self) -> PLMap:
        """Piece i maps domain leaf interval i affinely onto range leaf interval perm[i]."""
        dom = self.domain.intervals()
        ran = self.range.intervals()
        pieces = []
        for i, src in enumerate(dom):
            dst = ran[self.perm[i]]
            m = len(self.domain.addresses[i]) - len(self.range.addresses[self.perm[i]])
            slope = 1 << m if m >= 0 else Fraction(1, 1 << -m)
            offset = dst.lo - PLMap._apply(m, ZERO, src.lo)
            pieces.append((src.lo, src.hi, slope, offset))
        return PLMap(pieces)

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
    src_addr, img_pairs = [], []
    for lo, hi, slope_m, o in m.pieces:
        n_min = max(0, slope_m + o.exp)
        x = lo
        while x < hi:
            n = max(n_min, x.exp)
            while x + Dyadic(1, n) > hi:
                n += 1
            cell = DyadicInterval(x, x + Dyadic(1, n))
            img_lo = PLMap._apply(slope_m, o, cell.lo)
            img_hi = PLMap._apply(slope_m, o, cell.hi)
            src_addr.append(cell)
            img_pairs.append(DyadicInterval(img_lo, img_hi))
            x = cell.hi
    order = sorted(range(len(img_pairs)), key=lambda i: img_pairs[i].lo.as_fraction())
    rank = [0] * len(order)
    for pos, i in enumerate(order):
        rank[i] = pos
    from .dyadic import address_of_interval

    dom = Tree([tuple(0 if c == "L" else 1 for c in address_of_interval(iv)) for iv in src_addr])
    ran = Tree(
        [tuple(0 if c == "L" else 1 for c in address_of_interval(img_pairs[i])) for i in order]
    )
    return TreePair(dom, ran, rank).reduce()


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


def generator(name: str) -> TreePair:
    return from_pl_map(generator_pl_map(name))


_WORD_TOKEN = re.compile(r"^f([0-3])(?:\^(-?\d+))?$")


def parse_word(text: str) -> list:
    """Parse e.g. "f0 f1^-1 f2^2" into [(name, exponent), ...]."""
    word = []
    for token in text.split():
        m = _WORD_TOKEN.match(token)
        if not m:
            raise ValueError(f"bad word token {token!r} (expected f[0-3] or f[0-3]^k)")
        word.append((f"f{m.group(1)}", int(m.group(2)) if m.group(2) else 1))
    return word


def word_eval(word) -> TreePair:
    """Left-to-right composition g1^e1 ∘ g2^e2 ∘ ... (rightmost applied first), reduced."""
    out = TreePair.identity()
    for name, exponent in word:
        out = out.compose(generator(name) ** exponent)
    return out.reduce()
