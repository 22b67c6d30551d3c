"""Text format: parsing, serialization, and error positions."""

import random

import pytest

from posetdecomp import CycleError, FormatError, Poset, dumps, load, loads, textio
from posetdecomp.generate import antichain, boolean_lattice, chain, random_poset, two_chain_fan, wrap_forest

import oracles
import populations


def test_parse_simple():
    p = loads("elements: a b c\na < b\nb < c\n")
    assert p.less("a", "c")
    assert p.labels == ("a", "b", "c")


def test_comments_and_blanks_ignored():
    text = "# header\n\nelements: x y   # trailing\n\n# mid\nx < y\n"
    p = loads(text)
    assert p.less("x", "y")


def test_round_trip_families():
    for p in (antichain(4), boolean_lattice(3), two_chain_fan(3), random_poset(7, seed=5)):
        text = dumps(p)
        q = loads(text)
        assert q == p
        assert dumps(q) == text


def test_missing_elements_line():
    with pytest.raises(FormatError):
        loads("a < b\n")


def test_unknown_element_reports_line():
    with pytest.raises(FormatError) as exc:
        loads("elements: a b\n\na < z\n")
    assert exc.value.line == 3


def test_self_relation_rejected():
    with pytest.raises(FormatError):
        loads("elements: a\na < a\n")


@pytest.mark.parametrize("line", ["elements: a elements:b", "elements: a<b c"])
def test_unwritable_label_rejected_on_its_line(line):
    # a label that starts with 'elements:' could never stand left of '<'
    with pytest.raises(FormatError) as exc:
        loads("# header\n" + line + "\n")
    assert exc.value.line == 2


def test_duplicate_elements_rejected():
    with pytest.raises(FormatError):
        loads("elements: a a\n")


def test_cycle_propagates():
    with pytest.raises(CycleError):
        loads("elements: a b\na < b\nb < a\n")


def test_malformed_relation_line():
    with pytest.raises(FormatError) as exc:
        loads("elements: a b\na b\n")
    assert exc.value.line == 2


@pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"], ids=["plain", "byte-order-mark"])
def test_load_rejects_bytes_that_are_not_utf8(tmp_path, mark):
    path = tmp_path / "p.txt"
    path.write_bytes(mark + b"elements: a b\na < b\n\xff\xfe\x00bad\n")
    with pytest.raises(FormatError) as exc:
        load(path)
    assert exc.value.line == 3
    assert "not UTF-8" in str(exc.value)


# the line ends `str.splitlines` breaks at beyond LF, as `loads` numbers them
LINE_ENDS = {"cr": "\r", "crlf": "\r\n", "line-separator": "\u2028"}


@pytest.mark.parametrize("end", LINE_ENDS.values(), ids=LINE_ENDS)
def test_bad_byte_numbered_as_loads_numbers_lines(tmp_path, end):
    # a bad byte is reported at the line that an unknown element in its place is
    head = end.join(["elements: a b", "a < b", "b < "]).encode()
    path = tmp_path / "p.txt"
    path.write_bytes(head + b"\xff\n")
    with pytest.raises(FormatError) as bad:
        load(path)
    with pytest.raises(FormatError) as unknown:
        loads((head + b"c\n").decode())
    assert bad.value.line == unknown.value.line == 3
    assert "not UTF-8" in str(bad.value) and "unknown element 'c'" in str(unknown.value)


def test_load_skips_a_byte_order_mark(tmp_path):
    text = "elements: a b c\na < b\n"
    path = tmp_path / "p.txt"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert load(path) == loads(text)


def test_empty_poset_round_trip():
    p = loads("elements:\n")
    assert p.n == 0
    assert loads(dumps(p)) == p


def test_round_trip_unusual_labels():
    labels = ["a:b", "x-1", "é", "(p)", "q>r", "elements", "v\"w", "back\\slash"]
    p = Poset.from_cover_relations(labels, [("a:b", "x-1"), ("x-1", "é"), ("q>r", "v\"w")])
    q = loads(dumps(p))
    assert q == p
    assert q.labels == tuple(labels)


@pytest.mark.parametrize(
    "bad", ["", "a b", " a", "a\tb", "line\nbreak", "a\u2028b", "a<b", "a#b", "elements:x"]
)
def test_dumps_rejects_unreadable_label(bad):
    p = Poset.from_cover_relations(["ok", bad], [("ok", bad)])
    with pytest.raises(FormatError):
        dumps(p)


def test_dumps_rejects_labels_with_equal_text():
    p = Poset.from_cover_relations([1, "1"], [])
    with pytest.raises(FormatError):
        dumps(p)


# one case for each message of the reader, and for the order in which a line
# that breaks several rules reports them
MALFORMED = {
    "empty-text": "",
    "comments-only": "# nothing\n\n   # here\n",
    "relation-first": "# header\na < b\nelements: a b\n",
    "second-elements": "elements: a b\na < b\nelements: c\n",
    "second-elements-with-sign": "elements: a b\nelements:a < b\n",
    "duplicate": "elements: a b c b a\n",
    "unwritable-label": "elements: a elements:b\n",
    "label-before-duplicate": "elements: a a x<y\n",
    "no-sign": "elements: a b\na b\n",
    "two-signs": "elements: a b c\na < b < c\n",
    "empty-left": "elements: a b\n < b\n",
    "empty-right": "elements: a b\na <   # b\n",
    "empty-before-unknown": "elements: a\nz <\n",
    "unknown-left": "elements: a b\nz < b\n",
    "unknown-right": "elements: a b\na < z\n",
    "unknown-both": "elements: a\ny < z\n",
    "self": "elements: a b\na < b\nb < b\n",
    "self-unknown": "elements: a\nz < z\n",
    "comment-hides-sign": "elements: a b\na # < b\n",
}
SHAPES = {
    "cycle": "elements: a b c d\na < b\nb < c\nc < a\nc < d\n",
    "cycle-in-redundant-pairs": "elements: a b c d\na < c\na < b\nb < c\nc < d\nd < b\n",
    "comments-mid-line": "elements: a b c # the elements\na < b # first\n# whole line\nb < c#tight\n",
    "blank-lines": "\n\n  \nelements: a b\n\n\t\na < b\n\n",
    "no-spaces": "elements: a b c\na<b\nb<c\n",
    "repeated-pairs": "elements: a b c\na < b\na < b\nb < c\na < c\n",
    "crlf": "elements: a b\r\na < b\r\n",
    "line-separator": "elements: a b c\na < b\u2028b < c\n",
    "reversed-labels": "elements: d c b a\na < b\nc < d\nb < d\n",
    "empty-poset": "elements:\n# no relations\n",
}


def _fuzz(count: int, seed: int) -> list[str]:
    """Short seeded texts of element, relation and comment pieces: mostly
    readable, often not, sometimes cyclic."""
    rng = random.Random(seed)
    words = ["a", "b", "c", "d", "<", " ", "  ", "#", "\t", "elements:", "a<b", "b < a", "z"]
    texts = []
    for _ in range(count):
        head = "elements: " + " ".join(rng.sample("abcd", rng.randint(2, 4)))
        if rng.random() < 0.1:
            head = "".join(rng.choices(words, k=3))
        body = []
        for _ in range(rng.randint(0, 8)):
            if rng.random() < 0.8:
                x, y = rng.choice("abcdz" if rng.random() < 0.2 else "abcd"), rng.choice("abcd")
                body.append(f"{x}{rng.choice(['<', ' < ', '  <'])}{y}{rng.choice(['', ' # c', '#<'])}")
            else:
                body.append("".join(rng.choices(words, k=rng.randint(0, 4))))
        texts.append("\n".join([head, *body]) + rng.choice(["", "\n"]))
    return texts


# the texts on which the reader must return what the two-pass oracle
# returns, by group; analyze-large holds perfbench's three inputs
READER_CORPUS = {
    "posets-n5": lambda: [dumps(p) for p in populations.up_to()],
    "analyze-large": lambda: [dumps(wrap_forest(600, seed=0)), dumps(random_poset(300, density=0.3, seed=0)),
                              dumps(chain(1000))],
    "scale": lambda: [dumps(chain(2000)), dumps(random_poset(1000, 0.3))],
    "malformed": lambda: list(MALFORMED.values()),
    "shapes": lambda: list(SHAPES.values()),
    "fuzz": lambda: _fuzz(3000, seed=43),
}


def reader_outcome(text: str) -> tuple:
    """`loads(text)` in the form of `oracles.read_poset_text`, read at the
    module attribute, where a rewritten reader is bound."""
    try:
        p = textio.loads(text)
    except FormatError as exc:
        return ("FormatError", str(exc), exc.line)
    except CycleError as exc:
        return ("CycleError", str(exc), exc.cycle)
    return ("poset", p.labels, p.rows[0])


def reader_faults(texts) -> list[str]:
    """The texts on which the reader and the two-pass oracle differ."""
    return [text for text in texts if reader_outcome(text) != oracles.read_poset_text(text)]


@pytest.mark.parametrize("group", READER_CORPUS)
def test_reader_matches_two_pass_oracle(group):
    texts = READER_CORPUS[group]()
    assert reader_faults(texts) == []
    kinds = {oracles.read_poset_text(text)[0] for text in texts}
    if group in ("malformed", "fuzz"):
        assert "FormatError" in kinds
    if group in ("shapes", "fuzz"):
        assert "CycleError" in kinds and "poset" in kinds


def test_malformed_corpus_names_every_message():
    messages = [oracles.read_poset_text(text)[1] for text in MALFORMED.values()]
    starts = ["missing 'elements:' line", "line 2: expected an 'elements:' line first",
              "line 3: second 'elements:' line", "line 1: duplicate element", "line 1: label",
              "line 2: expected 'x < y'", "line 2: unknown element", "line 3: element"]
    assert all(any(m.startswith(start) for m in messages) for start in starts)
