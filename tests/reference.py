"""Reference constructions that the library no longer builds, kept for
the tests to compare its shortcuts against."""
from opdual.chain import ChainMap
from opdual.koszul import dual_precooperad
from opdual.operads import dualize
from opdual.trees import enumerate_trees


def double_dual_map(eq):
    """The evaluation map from the extension eq of a cooperad q into the
    dual pre-cooperad ddq of its dual operad, per tree up to the max
    arity of q: (x_1, ..., x_k) -> (("dual", ("dual", x_1)), ...,
    ("dual", ("dual", x_k))). Returns (ddq, family)."""
    ddq = dual_precooperad(dualize(eq.q))

    def rule(d, lab):
        return [(tuple(("dual", ("dual", x)) for x in lab), 1)]

    return ddq, {t: ChainMap.from_rule(eq.term(t), ddq.term(t), rule)
                 for n in range(1, eq.N + 1) for t in enumerate_trees(n)}
