"""Generated-poset properties of the signed counts and the cut identity."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from posetdecomp import (  # noqa: E402
    Poset,
    enumerate_admissible_cuts,
    mhcd,
    mobius_matrix,
    signed_chain_count_matrix,
    verify_cut_identity,
)
from posetdecomp.generate import wrap_forest  # noqa: E402
from posetdecomp.poset import transitive_closure  # noqa: E402


@st.composite
def relabeled_posets(draw, max_n=8):
    """A poset and the same poset with its elements reordered.

    Half the draws close a random relation that only rises in index; the
    other half take a wrap forest, whose MHCD admits cuts.
    """
    n = draw(st.integers(0, max_n))
    if draw(st.booleans()):
        p = wrap_forest(n + 4, seed=draw(st.integers(0, 2**16)))
    else:
        rel = np.zeros((n, n), dtype=bool)
        for i in range(n):
            for j in range(i + 1, n):
                rel[i, j] = draw(st.booleans())
        p = Poset([f"e{i}" for i in range(n)], transitive_closure(rel))
    perm = draw(st.permutations(range(p.n)))
    q = Poset([p.labels[i] for i in perm], p.lt[np.ix_(perm, perm)])
    return p, q


def _verdicts(p: Poset) -> dict:
    """Each admissible cut's lower side (as labels) -> its identity verdict and det J."""
    out = {}
    for cut in enumerate_admissible_cuts(p, mhcd(p)):
        rep = verify_cut_identity(p, cut)
        lower = frozenset(p.labels[x] for part in cut.lower_parts for x in part)
        out[lower] = (rep.equal, rep.j_determinant)
    return out


@settings(max_examples=80, deadline=None, derandomize=True)
@given(relabeled_posets())
def test_signed_counts_equal_mobius(pair):
    for p in pair:
        assert signed_chain_count_matrix(p) == mobius_matrix(p)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(relabeled_posets())
def test_identity_verdicts_invariant_under_relabeling(pair):
    p, q = pair
    verdicts = _verdicts(p)
    assert verdicts == _verdicts(q)
    assert all(equal for equal, _ in verdicts.values())
