"""The permutation-scan kernels, as bitset walks in pure Python.

`min_descents` is a width-bounded branch and bound; `permutations_avoiding`
lists every avoider.  Both walk the permutation tree of 0..n-1 over bit rows
and prune a prefix as soon as it forces the forbidden pattern: a node carries
its unused set and `above`, the elements pattern-above some prefix element,
and v is not appended when an unused element lies in `above` and
pattern-below v.  That element must come later, where it would be the "2" of
a pattern whose "1" is in the prefix and whose "3" is v; conversely every
pattern occurrence is caught when its "3" is appended, so no avoider is lost.
`min_descents` and its width memo are loops over explicit stacks, so they run
at any depth; `permutations_avoiding` lists up to n! avoiders, so it never
runs deep, and recurses.

The rows are laid out as `Poset.rows`, with n = len(up): bit y of up[x] and
bit x of down[y] mean x is pattern-below y (the strict order itself for plain
pattern avoidance, or "earlier in a reference extension" for the
extension-relative variant), and bit y of lt[x] means x < y in the strict
order, used for descent counting.  An adjacency that is not a strict ascent
counts as a descent, and one extra descent is charged at the final position,
so a nonempty permutation has between 1 and n descents.
"""

from __future__ import annotations

from typing import Callable


def min_descents(up: list[int], down: list[int], lt: list[int], width: Callable[[int], int]) -> int:
    """Minimum descent count over all pattern-avoiding permutations.

    Bitset branch and bound over prefixes, one loop over a stack of frames,
    one frame per prefix: its unused set, `above`, its descent count so far
    and the candidates it has yet to try, ascents (lowest bit first) before
    the others.  A frame leaves the stack when it has none left.

    The bound is the Dilworth width w(S) of the unused set S, taken in the
    comparability graph of the transitive closure of lt, so it holds for any
    lt: every ascending run is a chain there and only one run of a
    completion reaches back into the prefix, so a prefix with d internal
    descents ends with at least d + w(S).  For the same reason no
    permutation has fewer than w(everything) descents, and the search stops
    as soon as the incumbent reaches it.  Ascents are tried before descents
    so that good incumbents come early.

    `width` is that memoised width, `antichain_widths` over the bit rows of
    the comparability graph; the floor and every bound are read off it, so
    it must be this lt's.  Scans that read the same lt can share one.
    """
    n = len(up)
    if len(down) != n or len(lt) != n:
        raise ValueError("row count mismatch")
    if n == 0:
        return 0
    full = (1 << n) - 1
    floor = width(full)
    best = n + 1
    # a frame: unused, above, descents so far, untried ascents, untried
    # others; the first element ascends from a virtual start below everything
    stack = [[full, 0, 0, full, 0]]
    while stack:
        frame = stack[-1]
        unused, above, d, ascents, others = frame
        if ascents:
            low = ascents & -ascents
            frame[3] = ascents ^ low
        elif others:
            low = others & -others
            frame[4] = others ^ low
            d += 1
        else:
            stack.pop()
            continue
        rest = unused ^ low
        if not rest:
            if d + 1 < best:
                best = d + 1
                if best == floor:
                    break
            continue
        v = low.bit_length() - 1
        if down[v] & above & rest or d + width(rest) >= best:
            continue
        ascents = rest & lt[v]
        stack.append([rest, above | up[v], d, ascents, rest ^ ascents])
    return best


def antichain_widths(comparable: list[int]) -> Callable[[int], int]:
    """The width of a set of indices given as a bit mask: the size of its
    largest antichain, that is of its largest set with no two members
    adjacent in the graph of bit rows `comparable`, memoised over sets."""
    widths = {0: 0}

    def width(s: int) -> int:
        # the largest antichain in a set t either skips its lowest element x,
        # or holds x and nothing comparable to x: t waits on the stack until
        # the widths of both subsets are known
        w = widths.get(s)
        if w is not None:
            return w
        stack = [s]
        while stack:
            t = stack[-1]
            low = t & -t
            skip = t ^ low
            a = widths.get(skip)
            if a is None:
                stack.append(skip)
                continue
            take = skip & ~comparable[low.bit_length() - 1]
            b = widths.get(take)
            if b is None:
                stack.append(take)
                continue
            # take is a subset of skip, so a >= b
            widths[t] = a if a > b else b + 1
            stack.pop()
        return widths[s]

    return width


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
