"""The permutation-scan kernels, as bitset walks in pure Python.

`min_descents` is a width-bounded branch and bound; `permutations_avoiding`
lists every avoider.  Both walk the permutation tree of 0..n-1 over bit rows
and prune a prefix as soon as it forces the forbidden pattern: a node carries
its unused set and `above`, the elements pattern-above some prefix element,
and v is not appended when an unused element lies in `above` and
pattern-below v.  That element must come later, where it would be the "2" of
a pattern whose "1" is in the prefix and whose "3" is v; conversely every
pattern occurrence is caught when its "3" is appended, so no avoider is lost.

The rows are laid out as `Poset.rows`, with n = len(up): bit y of up[x] and
bit x of down[y] mean x is pattern-below y (the strict order itself for plain
pattern avoidance, or "earlier in a reference extension" for the
extension-relative variant), and bit y of lt[x] means x < y in the strict
order, used for descent counting.  An adjacency that is not a strict ascent
counts as a descent, and one extra descent is charged at the final position,
so a nonempty permutation has between 1 and n descents.
"""

from __future__ import annotations

from .poset import _closure_rows


def min_descents(up: list[int], down: list[int], lt: list[int]) -> int:
    """Minimum descent count over all pattern-avoiding permutations.

    Bitset branch and bound over prefixes; a node also holds its last
    element and its descent count so far.

    The bound is the Dilworth width w(S) of the unused set S, taken in the
    comparability graph of the transitive closure of lt, so it holds for any
    lt: every ascending run is a chain there and only one run of a
    completion reaches back into the prefix, so a prefix with d internal
    descents ends with at least d + w(S).  For the same reason no
    permutation has fewer than w(everything) descents, and the search stops
    as soon as the incumbent reaches it.  Ascents are tried before descents
    so that good incumbents come early.
    """
    n = len(up)
    if len(down) != n or len(lt) != n:
        raise ValueError("row count mismatch")
    if n == 0:
        return 0
    reach = _closure_rows(lt)
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
    succ = [*lt, full]
    scan(full, n, 0, 0)
    return best


def permutations_avoiding(up: list[int], down: list[int]) -> list[tuple[int, ...]]:
    """All pattern-avoiding permutations of 0..n-1, in lexicographic order.

    Candidates are tried lowest bit first, so avoiders come out in order.  A
    node with one unused element left completes without a check: with
    nothing after it, the last element is the "3" of no pattern.
    """
    n = len(up)
    if len(down) != n:
        raise ValueError("row count mismatch")
    if n == 0:
        return [()]
    if n == 1:
        return [(0,)]
    out: list[tuple[int, ...]] = []

    def walk(prefix: tuple[int, ...], unused: int, above: int) -> None:
        group = unused
        while group:
            low = group & -group
            group ^= low
            rest = unused ^ low
            v = low.bit_length() - 1
            if down[v] & above & rest:
                continue
            if rest & (rest - 1):
                walk(prefix + (v,), rest, above | up[v])
            else:
                out.append(prefix + (v, rest.bit_length() - 1))

    walk((), (1 << n) - 1, 0)
    return out
