"""Plain-text poset files.

Grammar (one declaration per line, '#' starts a comment, blanks ignored):

    elements: a b c d
    a < b
    b < c

The element line must come first and lists every label once, whitespace
separated.  Every following line is one strict relation; the reader accepts
any acyclic relation set (redundant pairs included), the writer emits only the
cover relations, in element input order.

The reader makes one pass over the lines.  The element line gives a
label-to-index dict, and each relation line is checked against it and filed
as an index pair into the successor sets in the same step; a line that is
not a relation between two distinct elements is then re-read once for its
error.  `Poset._from_successors` closes the sets, or raises CycleError.
Files and stdin are decoded by one rule: UTF-8, a leading byte-order mark
skipped, and a byte that is not UTF-8 a FormatError at its line.
"""

from __future__ import annotations

from .errors import FormatError
from .poset import Poset


def loads(text: str) -> Poset:
    """Parse poset text; FormatError carries the 1-based line number."""
    numbered = enumerate(text.splitlines(), start=1)
    for lineno, raw in numbered:
        line = raw.split("#", 1)[0].strip()
        if line:
            break
    else:
        raise FormatError("missing 'elements:' line", None)
    if not line.startswith("elements:"):
        raise FormatError("expected an 'elements:' line first", lineno)
    labels = line[len("elements:"):].split()
    # split() leaves no whitespace and the comment is gone, so only a '<' or
    # a leading 'elements:' can make a label unwritable: one scan of the
    # line rules both out for most files
    if "<" in line or "elements:" in line[len("elements:"):]:
        for x in labels:
            _check_label(x, lineno)
    index = dict(zip(labels, range(len(labels))))
    if len(index) != len(labels):
        seen: set[str] = set()
        for x in labels:
            if x in seen:
                raise FormatError(f"duplicate element {x!r}", lineno)
            seen.add(x)
    succ: list[set[int]] = [set() for _ in labels]
    for lineno, raw in numbered:
        if "#" in raw:
            raw = raw[:raw.index("#")]
        parts = raw.split("<")
        if len(parts) == 2:
            i = index.get(parts[0].strip())
            j = index.get(parts[1].strip())
            # no label starts with 'elements:', so this is a relation line
            if i is not None and j is not None and i != j:
                succ[i].add(j)
                continue
        line = raw.strip()
        if line:
            raise _relation_error(line, index, lineno)
    return Poset._from_successors(tuple(labels), succ)


def _relation_error(line: str, index: dict, lineno: int) -> FormatError:
    """The FormatError of a nonblank line after the element line, its
    comment cut off, that names no relation between two distinct elements.
    The first rule the line breaks is reported, in this order: a second
    element line, a line that is not 'x < y', an unknown element (the left
    side first), a self relation."""
    if line.startswith("elements:"):
        return FormatError("second 'elements:' line", lineno)
    parts = line.split("<")
    x, y = (parts[0].strip(), parts[1].strip()) if len(parts) == 2 else ("", "")
    if not x or not y:
        return FormatError(f"expected 'x < y', got {line!r}", lineno)
    for side in (x, y):
        if side not in index:
            return FormatError(f"unknown element {side!r}", lineno)
    return FormatError(f"element {x!r} related to itself", lineno)


def _decode(data: bytes) -> str:
    """Poset text from the bytes of a file or of stdin: UTF-8, skipping a
    leading byte-order mark; a byte that is not UTF-8 raises FormatError at
    its line."""
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.object is the data after a byte-order mark, if there is one;
        # the valid prefix is numbered by the line breaks `loads` splits at,
        # and the character after it stands in for the bad byte
        line = len((exc.object[:exc.start].decode("utf-8") + "x").splitlines())
        raise FormatError(f"bytes that are not UTF-8 ({exc.reason})", line) from None


def load(path) -> Poset:
    """Read a poset file by the byte rule of `_decode`."""
    with open(path, "rb") as fh:
        return loads(_decode(fh.read()))


def _check_label(name: str, line: int | None = None) -> None:
    """Raise FormatError, at `line` when given, unless the text format can
    hold `name`: a relation line can name it, and it cannot be taken for
    whitespace, a relation sign, a comment or an element line."""
    # split() != [name] catches the empty label and any whitespace, the
    # separators that splitlines() breaks lines at included
    if name.split() != [name] or "<" in name or "#" in name or name.startswith("elements:"):
        raise FormatError(f"label {name!r} is not allowed in the text format", line)


def dumps(p: Poset) -> str:
    """Serialize as an element line plus the Hasse diagram.

    Raises FormatError for labels that `loads` could not read back: empty
    ones, ones holding whitespace, '<' or '#', ones starting with
    'elements:', and distinct labels with the same string form.
    """
    names = [str(x) for x in p.labels]
    for name in names:
        _check_label(name)
    if len(set(names)) != len(names):
        raise FormatError("two labels have the same string form")
    lines = [f"# poset, n={p.n}", "elements: " + " ".join(names)]
    lines.extend(f"{x} < {y}" for x, y in p.covers())
    return "\n".join(lines) + "\n"


def dump(p: Poset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(p))
