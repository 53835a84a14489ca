"""Slow reference implementations of the tree-pair algebra, kept as test oracles.

`reduce_oracle` is the restart-from-leaf-0 reduction over bit-tuple leaf
addresses that `TreePair.reduce` used before its one-pass stack;
`word_eval_oracle` is the letter-by-letter left fold that `word_eval` used
before its balanced product.  Both build their results through the public,
validating constructors.
"""

from cantorthompson.treepair import Tree, TreePair, generator


def reduce_oracle(pair: TreePair) -> TreePair:
    """Cancel the leftmost exposed caret pair, restart from leaf 0, until none remains."""
    dom = list(pair.domain.addresses)
    ran = list(pair.range.addresses)
    perm = list(pair.perm)
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


def word_eval_oracle(word) -> TreePair:
    """g1^e1 ∘ g2^e2 ∘ ..., composed one letter at a time and reduced by the oracle."""
    out = TreePair.identity()
    for name, exponent in word:
        g = generator(name)
        step = g if exponent > 0 else reduce_oracle(g.inverse_unreduced())
        for _ in range(abs(exponent)):
            out = reduce_oracle(out.compose_unreduced(step))
    return out
