"""The four standard test populations, built once when first imported.

- every labeled poset with n <= 5 (4,474 posets, in `enumerate_posets` order);
- every 65th labeled poset with n = 6 (2,001 posets);
- `random_poset(8, 0.3)` with seeds 0..399;
- `wrap_forest(20)` with seeds 0..199.

Only their labels and bit rows are kept.  Each call hands out fresh `Poset`
objects over them, so a cached `lt`, cover row or index, or a rewrite that a
mutant made, never passes from one test to the next.  This is a module, not
a fixture, so that parametrize tables and the mutant table can read it when
they are imported.  Tests of the enumerator and the generators themselves
call the library instead.
"""

import itertools

from posetdecomp.generate import random_poset, wrap_forest
from posetdecomp.poset import Poset, enumerate_posets


def _rows(posets) -> list[tuple]:
    return [(p.labels, tuple(p.rows[0]), tuple(p.rows[1])) for p in posets]


_BY_SIZE = [_rows(enumerate_posets(n)) for n in range(6)]
_EVERY_65TH_N6 = _rows(itertools.islice(enumerate_posets(6, cap=6), 0, None, 65))
_RANDOM_N8 = _rows(random_poset(8, 0.3, seed=s) for s in range(400))
_WRAPFOREST_N20 = _rows(wrap_forest(20, seed=s) for s in range(200))


def _fresh(rows, count: int | None = None) -> list[Poset]:
    if count is not None and not 0 <= count <= len(rows):
        raise ValueError(f"the population holds {len(rows)} posets, not {count}")
    return [Poset._from_rows(labels, list(up), list(down)) for labels, up, down in rows[:count]]


def of_size(n: int) -> list[Poset]:
    """Every labeled poset with n <= 5 elements, in `enumerate_posets(n)` order."""
    return _fresh(_BY_SIZE[n])


def up_to(nmax: int = 5) -> list[Poset]:
    """Every labeled poset with at most nmax <= 5 elements, smallest first."""
    return [p for n in range(nmax + 1) for p in of_size(n)]


def every_65th_n6() -> list[Poset]:
    """Every 65th labeled poset with 6 elements, from the first."""
    return _fresh(_EVERY_65TH_N6)


def random_n8(count: int = 400) -> list[Poset]:
    """`random_poset(8, 0.3, seed=s)` for s in range(count), count <= 400."""
    return _fresh(_RANDOM_N8, count)


def wrapforest_n20(count: int = 200) -> list[Poset]:
    """`wrap_forest(20, seed=s)` for s in range(count), count <= 200."""
    return _fresh(_WRAPFOREST_N20, count)


STANDARD = {
    "n<=5": up_to,
    "every-65th-n6": every_65th_n6,
    "random-n8": random_n8,
    "wrapforest-n20": wrapforest_n20,
}
"""The four populations by the names the tests give them, each a call."""


def standard() -> list[Poset]:
    """The four populations one after another, in the order above."""
    return [p for make in STANDARD.values() for p in make()]
