"""The boundary table: every entry point that takes a poset and a
decomposition reads its decomposition argument by one rule.

Each entry point runs on five inputs for the same poset p: p's own MHCD, its
label family, the MHCD of an equal but distinct Poset object, the MHCD of
the copy of p with its labels listed in reverse order, and the MHCD of a
different poset.  The first four stand for the same decomposition of p, so
they must give identical results; the last must raise
InvalidDecompositionError (the predicate `is_chain_decomposition` answers
False instead).  Chain indices passed in (orders, heights, cuts) are those
of p's own MHCD, which every rule-read input returns in the same order.
"""

import itertools

import pytest

import posetdecomp
from posetdecomp import (
    ChainGraph,
    Cut,
    CutFrame,
    InvalidDecompositionError,
    Poset,
    acyclic_orientation,
    attachment_tree,
    chain_comparability,
    chain_concatenation,
    chain_graph,
    crossing_witness,
    d_matrix,
    enumerate_admissible_cuts,
    enumerate_proper_cuts,
    induced_chain_permutation,
    is_chain_decomposition,
    is_homogeneous,
    is_noncrossing,
    j_matrix,
    make_cut,
    mhcd,
    sample_admissible_cuts,
    wrap_relation,
)
from posetdecomp.generate import two_chain_fan, wrap_forest
from posetdecomp.nccd import TreeNode, tree_to_text
from posetdecomp.poset import automorphism_group

import populations


def _key(value):
    """A value comparable across decompositions of equal posets: chains and
    cuts by their labels, arrays and trees by their contents."""
    if isinstance(value, ChainGraph):
        return value.decomposition.chains_as_labels(), value.rows, value.directed
    if isinstance(value, CutFrame):
        return value.decomposition.chains_as_labels(), value.j.tolist(), value.d_whole.tolist()
    if isinstance(value, Cut):
        return value.to_dict()
    if isinstance(value, TreeNode):
        return tree_to_text(value)
    if hasattr(value, "tolist"):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_key(v) for v in value]
    return value


class _Context:
    """What the entry points take besides p and the decomposition, read off
    p's own MHCD: a chain order, heights, a cut and element permutations."""

    def __init__(self, p: Poset) -> None:
        own = mhcd(p)
        self.order = list(range(own.k))[::-1]
        self.heights = [len(c) // 2 for c in own.chains]
        self.cut = make_cut(p, own, self.heights)
        self.maps = [tuple(range(p.n)), *automorphism_group(p.rows).generators]


ENTRY_POINTS = {
    "is_chain_decomposition": lambda p, d, c: is_chain_decomposition(p, d),
    "is_homogeneous": lambda p, d, c: is_homogeneous(p, d),
    "chain_comparability": lambda p, d, c: chain_comparability(p, d),
    "chain_graph": lambda p, d, c: chain_graph(p, d),
    "acyclic_orientation": lambda p, d, c: acyclic_orientation(p, d),
    "induced_chain_permutation": lambda p, d, c: [
        induced_chain_permutation(p, d, g) for g in c.maps
    ],
    "crossing_witness": lambda p, d, c: crossing_witness(p, d),
    "is_noncrossing": lambda p, d, c: is_noncrossing(p, d),
    "wrap_relation": lambda p, d, c: wrap_relation(p, d),
    "chain_concatenation": lambda p, d, c: chain_concatenation(p, d, c.order),
    "attachment_tree": lambda p, d, c: attachment_tree(p, d, c.order),
    "CutFrame": lambda p, d, c: CutFrame(p, d),
    "j_matrix": lambda p, d, c: j_matrix(p, d),
    "d_matrix": lambda p, d, c: [
        d_matrix(p, d),
        d_matrix(p, d, "lower", c.cut),
        d_matrix(p, d, "upper", c.cut),
    ],
    "make_cut": lambda p, d, c: make_cut(p, d, c.heights),
    "enumerate_proper_cuts": lambda p, d, c: list(
        itertools.islice(enumerate_proper_cuts(p, d), 64)
    ),
    "enumerate_admissible_cuts": lambda p, d, c: enumerate_admissible_cuts(p, d),
    "sample_admissible_cuts": lambda p, d, c: sample_admissible_cuts(p, d, 3, seed=1),
}

# the module each entry point lives in
HOMES = {name: getattr(posetdecomp, name).__module__.rsplit(".", 1)[-1] for name in ENTRY_POINTS}


def reversed_copy(p: Poset) -> Poset:
    """p with its labels listed in reverse order."""
    return p.induced(p.labels[::-1])


def _different(p: Poset) -> Poset:
    """A poset whose MHCD is no decomposition of p: the total order on p's
    labels when p is not a chain (a part that is not a chain of p), else the
    antichain on p's labels and one more (an unknown label)."""
    ranked = sorted(p.labels, key=lambda x: p.rows[1][p.idx(x)].bit_count())
    if any(not p.comparable(a, b) for a, b in itertools.combinations(p.labels, 2)):
        return Poset.from_cover_relations(ranked, zip(ranked, ranked[1:]))
    return Poset.from_cover_relations(p.labels + ("fresh",), [])


def inputs(p: Poset) -> dict:
    own = mhcd(p)
    return {
        "own": own,
        "labels": own.chains_as_labels(),
        "equal": mhcd(Poset(p.labels, p.lt)),
        "reversed": mhcd(reversed_copy(p)),
    }


def _outcome(fn, *args):
    try:
        return "ok", _key(fn(*args))
    except Exception as exc:  # the outcome is compared, whatever it is
        return "raises", type(exc).__name__, str(exc)


def boundary_faults(p: Poset) -> list[tuple[str, str]]:
    """(entry point, input) for every cell of p's row of the table that
    breaks the rule: a result other than the own MHCD's on the first four
    inputs, or no InvalidDecompositionError on the different poset's MHCD."""
    context = _Context(p)
    other = mhcd(_different(p))
    faults = []
    for name, fn in ENTRY_POINTS.items():
        results = {kind: _outcome(fn, p, d, context) for kind, d in inputs(p).items()}
        faults += [(name, kind) for kind, got in results.items() if got != results["own"]]
        got = _outcome(fn, p, other, context)
        if name == "is_chain_decomposition":
            if got != ("ok", False):
                faults.append((name, "different"))
        elif got[:2] != ("raises", "InvalidDecompositionError"):
            faults.append((name, "different"))
    return faults


POPULATIONS = {
    "wrap_forest(12, 3)": lambda: [wrap_forest(12, 3)],
    "wrap_forest(20)": lambda: populations.wrapforest_n20(10),
    "n<=4 and reversed": lambda: [q for p in populations.up_to(4) for q in (p, reversed_copy(p))],
}


@pytest.mark.parametrize("population", POPULATIONS)
def test_boundary_table(population):
    faults = {}
    for p in POPULATIONS[population]():
        for cell in boundary_faults(p):
            faults.setdefault(cell, p)
    assert faults == {}


@pytest.mark.parametrize("order", [[0, 0], [1], [-1, 0, 1, 2, 3], [0, 9], [0, 0, 1], [0, 1, 2, 3, 4, 4]])
@pytest.mark.parametrize("fn", [chain_concatenation, attachment_tree])
def test_chain_order_must_list_every_chain_once(fn, order):
    # the MHCD of two_chain_fan(2) has five singleton chains: a repeat, a
    # missing chain, a negative index and an index past k are all refused
    p = two_chain_fan(2)
    d = mhcd(p)
    assert d.k == 5
    with pytest.raises(ValueError, match="not a permutation of the chains"):
        fn(p, d, order)
    fn(p, d, [4, 3, 2, 1, 0])


def test_table_covers_every_module_of_the_chain_layer():
    assert set(HOMES.values()) == {"chains", "hcd", "nccd", "cut"}


def test_reversed_copy_is_another_poset():
    p = wrap_forest(12, 3)
    r = reversed_copy(p)
    assert r != p and sorted(r.labels) == sorted(p.labels)
    assert mhcd(r).chains != mhcd(p).chains
    assert mhcd(r).chains_as_labels() != mhcd(p).chains_as_labels()
