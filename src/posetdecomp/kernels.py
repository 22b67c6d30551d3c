"""The permutation-scan kernels, one implementation each.

`min_descents` is the width-bounded bitset branch and bound of `_reference`.
Its only bound is the Dilworth width of the unused elements, which every
ascending-run decomposition obeys.  It is not seeded from the minimal
homogeneous chain count or the noncrossing minimum, because
`verify_chain_bounds` compares the scan against exactly those quantities and
a seed would assume the inequalities it tests.

`permutations_avoiding` is the bitset walk of `_reference` that lists every
pattern avoider in lexicographic order.  Both read `Poset.rows`.  `BACKEND`
names the implementation ("pure": both kernels are plain Python).
"""

from __future__ import annotations

from ._reference import min_descents, permutations_avoiding

BACKEND = "pure"
