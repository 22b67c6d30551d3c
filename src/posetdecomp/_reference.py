"""Pure-Python permutation-scan kernels.

`min_descents`, a width-bounded bitset branch and bound, is the only
implementation of its kernel on every backend; `permutations_avoiding` is
the pure twin of the compiled enumerator, with the same output.

Both kernels walk the permutation tree of 0..n-1 and prune any prefix that
already realizes the forbidden pattern: appending v at position i3 completes a
pattern exactly when some earlier pair i1 < i2 has perm[i1] below v and v
below perm[i2] under the supplied comparison matrix, so checking only the
freshly appended element is complete.

`pattern` and `lt` are row-major n*n 0/1 bytes; pattern[x*n+y] means x is
pattern-below y (the strict order itself for plain pattern avoidance, or
"earlier in a reference extension" for the extension-relative variant), and lt
is always the strict order, used for descent counting.  An adjacency that is
not a strict ascent counts as a descent, and one extra descent is charged at
the final position, so a nonempty permutation has between 1 and n descents.
"""

from __future__ import annotations


def min_descents(pattern: bytes, lt: bytes, n: int) -> int:
    """Minimum descent count over all pattern-avoiding permutations.

    Bitset branch and bound over prefixes.  A node holds the unused set, the
    last element, and `above`, the elements pattern-above some prefix
    element.  Appending v forbids every element of `above` pattern-below v
    (v would be the "3" of a pattern whose "2" comes later), then adds v's
    pattern-up set to `above`.  A forbidden element can never be appended,
    so a node that forbids an unused element is dead and the forbidden set
    itself is never stored.

    The bound is the Dilworth width w(S) of the unused set S, taken in the
    comparability graph of the transitive closure of lt, so it holds for any
    lt: every ascending run is a chain there and only one run of a
    completion reaches back into the prefix, so a prefix with d internal
    descents ends with at least d + w(S).  For the same reason no
    permutation has fewer than w(everything) descents, and the search stops
    as soon as the incumbent reaches it.  Ascents are tried before descents
    so that good incumbents come early.
    """
    if n == 0:
        return 0
    if len(pattern) != n * n or len(lt) != n * n:
        raise ValueError("matrix size mismatch")
    up = [0] * n
    down = [0] * n
    succ = [0] * n
    for x in range(n):
        row = x * n
        for y in range(n):
            if pattern[row + y]:
                up[x] |= 1 << y
                down[y] |= 1 << x
            if lt[row + y]:
                succ[x] |= 1 << y
    reach = succ[:]
    for k in range(n):
        for x in range(n):
            if reach[x] >> k & 1:
                reach[x] |= reach[k]
    comparable = reach[:]
    for x in range(n):
        for y in range(n):
            if reach[x] >> y & 1:
                comparable[y] |= 1 << x

    widths = {0: 0}

    def width(s: int) -> int:
        # the largest antichain in s either skips its lowest element x, or
        # holds x and nothing comparable to x
        w = widths.get(s)
        if w is None:
            low = s & -s
            rest = s ^ low
            w = max(width(rest), 1 + width(rest & ~comparable[low.bit_length() - 1]))
            widths[s] = w
        return w

    full = (1 << n) - 1
    floor = width(full)
    best = n + 1

    def scan(unused: int, last: int, above: int, d: int) -> None:
        # returns with best == floor once the search is over
        nonlocal best
        ascents = unused & succ[last]
        for group, nd in ((ascents, d), (unused ^ ascents, d + 1)):
            while group:
                low = group & -group
                group ^= low
                rest = unused ^ low
                if not rest:
                    if nd + 1 < best:
                        best = nd + 1
                        if best == floor:
                            return
                    continue
                v = low.bit_length() - 1
                if down[v] & above & rest or nd + width(rest) >= best:
                    continue
                scan(rest, v, above | up[v], nd)
                if best == floor:
                    return

    # the first element ascends from a virtual start below everything
    succ.append(full)
    scan(full, n, 0, 0)
    return best


def permutations_avoiding(pattern: bytes, n: int) -> list[tuple[int, ...]]:
    """All pattern-avoiding permutations of 0..n-1, in lexicographic order."""
    if n == 0:
        return [()]
    if len(pattern) != n * n:
        raise ValueError("matrix size mismatch")
    out: list[tuple[int, ...]] = []
    perm = [0] * n
    used = [False] * n

    def scan(depth: int) -> None:
        if depth == n:
            out.append(tuple(perm))
            return
        for v in range(n):
            if used[v]:
                continue
            seen_small = False
            bad = False
            vrow = v * n
            for j in range(depth):
                pj = perm[j]
                if seen_small and pattern[vrow + pj]:
                    bad = True
                    break
                if pattern[pj * n + v]:
                    seen_small = True
            if bad:
                continue
            perm[depth] = v
            used[v] = True
            scan(depth + 1)
            used[v] = False

    scan(0)
    return out
