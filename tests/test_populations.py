"""The shared populations are the ones the tests used to build inline."""

import itertools

import pytest

from posetdecomp.generate import random_poset, wrap_forest
from posetdecomp.poset import enumerate_posets

import populations

FRESH = {
    "n<=5": lambda: [p for n in range(6) for p in enumerate_posets(n)],
    "every-65th-n6": lambda: list(itertools.islice(enumerate_posets(6, cap=6), 0, None, 65)),
    "random-n8": lambda: [random_poset(8, 0.3, seed=s) for s in range(400)],
    "wrapforest-n20": lambda: [wrap_forest(20, seed=s) for s in range(200)],
}
SIZES = {"n<=5": 4474, "every-65th-n6": 2001, "random-n8": 400, "wrapforest-n20": 200}


@pytest.mark.parametrize("name", populations.STANDARD)
def test_population_is_a_fresh_build(name):
    shared = populations.STANDARD[name]()
    assert len(shared) == SIZES[name]
    assert [(p.labels, p.rows) for p in shared] == [(p.labels, p.rows) for p in FRESH[name]()]


def test_parts_are_slices_of_the_populations():
    assert populations.up_to(5) == [p for n in range(6) for p in populations.of_size(n)]
    assert populations.up_to(4) == populations.up_to()[:4474 - 4231]
    assert populations.random_n8(50) == populations.random_n8()[:50]
    assert populations.wrapforest_n20(4) == populations.wrapforest_n20()[:4]
    assert len(populations.standard()) == sum(SIZES.values())
    with pytest.raises(ValueError):
        populations.random_n8(401)


def test_each_call_hands_out_new_posets():
    for make in populations.STANDARD.values():
        first, second = make(), make()
        assert first == second
        assert all(p is not q and p.rows[0] is not q.rows[0] for p, q in zip(first, second))
