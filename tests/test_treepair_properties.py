"""The integer-coded algebra against the slow oracles in `_oracles.py`, and its edge cases."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cantorthompson.dyadic import Dyadic
from cantorthompson.errors import WordTooLong
from cantorthompson.treepair import (
    MAX_WORD_SIZE,
    Tree,
    TreePair,
    generator,
    parse_word,
    word_eval,
)

from _helpers import random_pair, random_tree
from _oracles import reduce_oracle, word_eval_oracle

LETTERS = {"F": ("f0", "f1"), "T": ("f0", "f1", "f2"), "V": ("f0", "f1", "f2", "f3")}


@st.composite
def words(draw, max_letters=10, max_exponent=2):
    letters = LETTERS[draw(st.sampled_from(sorted(LETTERS)))]
    exponents = st.integers(-max_exponent, max_exponent).filter(bool)
    return draw(st.lists(st.tuples(st.sampled_from(letters), exponents), max_size=max_letters))


def refine(tree: Tree, rng: random.Random) -> Tree:
    """Replace some leaves of `tree` by small random subtrees."""
    codes = []
    for d, k in tree.codes:
        below = random_tree(rng, rng.randint(2, 4)) if rng.random() < 0.4 else Tree.leaf()
        codes.extend((d + e, (k << e) | m) for e, m in below.codes)
    return Tree(codes=codes)


def unreduced(pair: TreePair, rng: random.Random) -> TreePair:
    """An equivalent pair padded with random caret pairs on both sides."""
    pair = pair._expand_range_to(refine(pair.range, rng))
    return pair._expand_domain_to(refine(pair.domain, rng))


def cancel_in_random_order(pair: TreePair, rng: random.Random) -> TreePair:
    """Cancel a randomly chosen exposed caret pair, over bit addresses, until none is left."""
    dom, ran, perm = list(pair.domain.addresses), list(pair.range.addresses), list(pair.perm)

    def siblings(a, b):
        return a[:-1] == b[:-1] and a[-1:] == (0,) and b[-1:] == (1,)

    while True:
        exposed = [
            i for i in range(len(dom) - 1)
            if siblings(dom[i], dom[i + 1]) and perm[i + 1] == perm[i] + 1
            and siblings(ran[perm[i]], ran[perm[i] + 1])
        ]
        if not exposed:
            return TreePair(Tree(dom), Tree(ran), perm)
        i = rng.choice(exposed)
        j = perm[i]
        dom[i : i + 2] = [dom[i][:-1]]
        ran[j : j + 2] = [ran[j][:-1]]
        del perm[i + 1]
        perm = [k - 1 if k > j else k for k in perm]


@given(words(), st.randoms(use_true_random=False))
@settings(deadline=None, max_examples=150)
def test_reduce_matches_oracle_on_padded_words(word, rng):
    g = word_eval(word)
    padded = unreduced(g, rng)
    assert padded.reduce() == reduce_oracle(padded) == g


@given(st.randoms(use_true_random=False))
@settings(deadline=None, max_examples=150)
def test_reduce_matches_oracle_on_random_pairs(rng):
    n = rng.randint(1, 14)
    kind = rng.choice("FTV")
    perm = list(range(n))
    if kind == "T":
        c = rng.randrange(n)
        perm = [(i + c) % n for i in range(n)]
    elif kind == "V":
        rng.shuffle(perm)
    pair = TreePair(random_tree(rng, n), random_tree(rng, n), perm)
    assert pair.reduce() == reduce_oracle(pair)


@given(words(), st.randoms(use_true_random=False))
@settings(deadline=None, max_examples=150)
def test_reduction_is_confluent(word, rng):
    padded = unreduced(word_eval(word), rng)
    assert cancel_in_random_order(padded, rng) == padded.reduce()


@given(words(max_letters=14, max_exponent=3))
@settings(deadline=None, max_examples=100)
def test_balanced_word_eval_matches_left_fold(word):
    assert word_eval(word) == word_eval_oracle(word)


@given(st.sampled_from(("f0", "f1", "f2", "f3")), st.integers(-40, 40))
@settings(deadline=None, max_examples=60)
def test_power_by_squaring_matches_left_fold(name, k):
    assert generator(name) ** k == word_eval_oracle([(name, k)])


@given(st.randoms(use_true_random=False))
@settings(deadline=None, max_examples=100)
def test_tree_round_trips(rng):
    t = random_tree(rng, rng.randint(1, 40))
    assert Tree(t.addresses) == t
    assert Tree(codes=t.codes) == t
    assert Tree.from_string(t.to_string()) == t


def comb(depth: int, side: int) -> Tree:
    """The depth-`depth` comb whose spine turns away from `side` (0 = left) at every level."""
    if side == 0:  # leaves hang off a spine running down the left edge
        codes = [(depth, 0)] + [(d, 1) for d in range(depth, 0, -1)]
    else:
        codes = [(d, (1 << d) - 2) for d in range(1, depth + 1)] + [(depth, (1 << depth) - 1)]
    return Tree(codes=codes)


@pytest.mark.parametrize("side", [0, 1])
def test_deep_tree_round_trips(side):
    t = comb(3000, side)
    assert t.nleaves == 3001
    assert max(len(a) for a in t.addresses) == 3000
    assert Tree(t.addresses) == t
    text = t.to_string()
    assert len(text) == 2 * 3001 - 1
    assert Tree.from_string(text) == t


def test_tree_rejects_non_tilings():
    for codes in ([], [(1, 0)], [(1, 0), (1, 0)], [(1, 1), (1, 0)], [(0, 0), (1, 1)], [(1, 0), (2, 3)]):
        with pytest.raises(ValueError):
            Tree(codes=codes)
    for addresses in ([(0,), (2,)], [(0, 0), (0, 1)], [(0,), (1,), ()]):
        with pytest.raises(ValueError):
            Tree(addresses)
    with pytest.raises(TypeError):
        Tree()
    with pytest.raises(TypeError):
        Tree([()], codes=[(0, 0)])
    for text in ("", "c", "cl", "lc", "lx", "cll l"):
        with pytest.raises(ValueError):
            Tree.from_string(text)


def test_pair_validates_at_the_public_boundary():
    t = Tree.from_string("clcll")
    with pytest.raises(ValueError):
        TreePair(t, t, (0, 0, 1))
    with pytest.raises(ValueError):
        TreePair(t, Tree.leaf(), (0,))
    with pytest.raises(ValueError):
        TreePair.from_json({"domain": "clcll", "range": "cll", "perm": [1, 2, 3]})


def test_generators_are_built_once():
    assert generator("f1") is generator("f1")


def test_word_size_limit():
    assert parse_word(f"f0^{MAX_WORD_SIZE}") == [("f0", MAX_WORD_SIZE)]
    with pytest.raises(WordTooLong):
        parse_word(f"f0^{MAX_WORD_SIZE // 2} f1^-{MAX_WORD_SIZE // 2 + 1}")
    with pytest.raises(WordTooLong):
        parse_word("f0^99999999999")
    with pytest.raises(WordTooLong):
        word_eval([("f1", -(MAX_WORD_SIZE + 1))])
    assert word_eval([("f2", MAX_WORD_SIZE)]) == generator("f2") ** (MAX_WORD_SIZE % 3)


def test_deep_powers_reduce_to_one_leaf_per_letter():
    rng = random.Random(8)
    for k in (1200, -3000):
        g = word_eval(parse_word(f"f0^{k}"))
        assert g.nleaves == abs(k) + 2
        step = (generator("f0") if k > 0 else generator("f0").inverse()).to_pl_map()
        x = y = Dyadic(rng.randrange(1 << 20), 20)
        for _ in range(abs(k)):
            y = step.eval(y)
        assert g.eval(x) == y


@given(st.integers(-(2**70), 2**70), st.integers(0, 80))
@settings(deadline=None)
def test_dyadic_canonical_form(num, exp):
    x = Dyadic(num, exp)
    assert x.as_fraction() == Fraction(num, 1 << exp)
    assert x.exp == 0 or x.num % 2 == 1


def test_compose_on_random_pairs_matches_oracle_reduction():
    rng = random.Random(12)
    for _ in range(100):
        a, b = random_pair(rng, 10), random_pair(rng, 10)
        assert a * b == reduce_oracle(a.compose_unreduced(b))
