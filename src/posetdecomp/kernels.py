"""The permutation-scan kernels, one implementation each.

`min_descents` is the width-bounded bitset branch and bound of `_reference`,
a loop over a stack of frames, as is its width memo, so neither recurses.
Its only bound is the Dilworth width of the unused elements, which every
ascending-run decomposition obeys, and its floor is the width of everything,
read off its own width memo.  It is not seeded from the minimal homogeneous
chain count, the noncrossing minimum or the Dilworth decomposition, because
`verify_chain_bounds` compares the scan against exactly those quantities and
a seed would assume the inequalities it tests.  Its caller passes the memo,
`antichain_widths` over the comparability rows of lt: for a poset's own
order, `nccd._widths`, which the two scans of `verify_chain_bounds` share.

`permutations_avoiding` is the bitset walk of `_reference` that lists every
pattern avoider in lexicographic order.  Both read `Poset.rows`.  `BACKEND`
names the implementation ("pure": both kernels are plain Python).
"""

from __future__ import annotations

from ._reference import antichain_widths, min_descents, permutations_avoiding

BACKEND = "pure"
