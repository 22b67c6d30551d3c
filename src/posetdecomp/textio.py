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
            for x in labels:
                if "<" in x:
                    raise FormatError(f"label {x!r} may not contain '<'", lineno)
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
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def _check_label(name: str) -> None:
    # split() != [name] catches the empty label and any whitespace, the
    # separators that splitlines() breaks lines at included
    if name.split() != [name] or "<" in name or "#" in name or name.startswith("elements:"):
        raise FormatError(f"label {name!r} cannot be read back from the text format")


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
