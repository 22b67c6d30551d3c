"""Text format: parsing, serialization, and error positions."""

import pytest

from posetdecomp import CycleError, FormatError, Poset, dumps, loads
from posetdecomp.generate import antichain, boolean_lattice, random_poset, two_chain_fan


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
