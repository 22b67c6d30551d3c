"""Plain-text poset files.

Grammar (one declaration per line, '#' starts a comment, blanks ignored):

    elements: a b c d
    a < b
    b < c

The element line must come first and lists every label once, whitespace
separated.  Every following line is one strict relation; the reader accepts
any acyclic relation set (redundant pairs included), the writer emits only the
cover relations, in element input order.
"""

from __future__ import annotations

from .errors import FormatError
from .poset import Poset


def loads(text: str) -> Poset:
    """Parse poset text; FormatError carries the 1-based line number."""
    labels: list[str] | None = None
    covers: list[tuple[str, str]] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if labels is None:
            if not line.startswith("elements:"):
                raise FormatError("expected an 'elements:' line first", lineno)
            labels = line[len("elements:"):].split()
            # split() leaves no whitespace and the comment is gone, so only a
            # '<' or a leading 'elements:' can make a label unwritable: one
            # scan of the line rules both out for most files
            if "<" in line or "elements:" in line[len("elements:"):]:
                for x in labels:
                    _check_label(x, lineno)
            for x in labels:
                if x in seen:
                    raise FormatError(f"duplicate element {x!r}", lineno)
                seen.add(x)
            continue
        if line.startswith("elements:"):
            raise FormatError("second 'elements:' line", lineno)
        parts = line.split("<")
        if len(parts) != 2:
            raise FormatError(f"expected 'x < y', got {line!r}", lineno)
        x, y = parts[0].strip(), parts[1].strip()
        if not x or not y:
            raise FormatError(f"expected 'x < y', got {line!r}", lineno)
        for side in (x, y):
            if side not in seen:
                raise FormatError(f"unknown element {side!r}", lineno)
        if x == y:
            raise FormatError(f"element {x!r} related to itself", lineno)
        covers.append((x, y))
    if labels is None:
        raise FormatError("missing 'elements:' line", None)
    return Poset.from_cover_relations(labels, covers)


def load(path) -> Poset:
    """Read a poset file as UTF-8, skipping a leading byte-order mark; a byte
    that is not UTF-8 raises FormatError at its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.object is the data after a byte-order mark, if there is one
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"bytes that are not UTF-8 ({exc.reason})", line) from None
    return loads(text)


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
