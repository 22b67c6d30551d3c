"""Size caps: one refusal rule, and the exact text of every refusal."""

import numpy as np
import pytest

from posetdecomp import chains, hcd, nccd, poset, verify
from posetdecomp.cli import main
from posetdecomp.errors import ScopeExceededError, refuse_above
from posetdecomp.generate import antichain, chain
from posetdecomp.textio import dumps


def test_refuse_above_boundary():
    refuse_above("search", 4, 4)
    refuse_above("search", None, 10**9)
    with pytest.raises(ScopeExceededError) as exc:
        refuse_above("search", 4, 5)
    assert str(exc.value) == "search capped at n <= 4 (got n = 5)"
    with pytest.raises(ScopeExceededError) as exc:
        refuse_above("search", 4, 5, unit="k")
    assert str(exc.value) == "search capped at k <= 4 (got k = 5)"


# each capped public function just above its default cap, and its refusal
REFUSALS = [
    (
        "linear_extensions",
        lambda: poset.linear_extensions(chain(11)),
        "linear extension enumeration capped at n <= 10 (got n = 11)",
    ),
    (
        "automorphisms",
        lambda: poset.automorphisms(antichain(10)),
        "automorphism search capped at n <= 9 (got n = 10)",
    ),
    (
        "isomorphic",
        lambda: poset.isomorphic(chain(10), chain(10)),
        "isomorphism search capped at n <= 9 (got n = 10)",
    ),
    (
        "enumerate_posets",
        lambda: next(poset.enumerate_posets(6)),
        "labeled poset enumeration capped at n <= 5 (got n = 6)",
    ),
    (
        "enumerate_chain_decompositions",
        lambda: chains.enumerate_chain_decompositions(antichain(11)),
        "decomposition enumeration capped at n <= 10 (got n = 11)",
    ),
    (
        "graph_automorphisms",
        lambda: hcd.graph_automorphisms(np.zeros((11, 11), dtype=bool)),
        "graph automorphism search capped at k <= 10 (got k = 11)",
    ),
    (
        "minimum_noncrossing_decomposition",
        lambda: nccd.minimum_noncrossing_decomposition(antichain(11)),
        "noncrossing minimum capped at n <= 10 (got n = 11)",
    ),
    (
        "count_noncrossing_decompositions",
        lambda: nccd.count_noncrossing_decompositions(antichain(11)),
        "noncrossing count capped at n <= 10 (got n = 11)",
    ),
    (
        "all_132_avoiding",
        lambda: nccd.all_132_avoiding(antichain(9)),
        "permutation sweep capped at n <= 8 (got n = 9)",
    ),
    (
        "min_descents_over_avoiders",
        lambda: nccd.min_descents_over_avoiders(antichain(9)),
        "descent scan capped at n <= 8 (got n = 9)",
    ),
    (
        "min_descents_over_extension_avoiders",
        lambda: nccd.min_descents_over_extension_avoiders(chain(9), chain(9).labels),
        "descent scan capped at n <= 8 (got n = 9)",
    ),
    (
        "verify_chain_bounds, noncrossing cap",
        lambda: nccd.verify_chain_bounds(antichain(11)),
        "noncrossing minimum capped at n <= 10 (got n = 11)",
    ),
    (
        "verify_chain_bounds, scan cap",
        lambda: nccd.verify_chain_bounds(antichain(9)),
        "descent scan capped at n <= 8 (got n = 9)",
    ),
    (
        "verify_exhaustive",
        lambda: verify.verify_exhaustive(6),
        "exhaustive sweep capped at nmax <= 5 (got nmax = 6)",
    ),
]


@pytest.mark.parametrize("call, message", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_refusal_text(call, message):
    with pytest.raises(ScopeExceededError) as exc:
        call()
    assert str(exc.value) == message


def test_chain_bounds_scan_cap_refuses_before_the_noncrossing_search(monkeypatch):
    def searched(p, lower_bound):
        raise AssertionError("noncrossing search ran above the scan cap")

    monkeypatch.setattr(nccd, "_noncrossing_minimum", searched)
    with pytest.raises(ScopeExceededError):
        nccd.verify_chain_bounds(chain(10))


@pytest.mark.parametrize(
    "section, n, message",
    [
        ("--embedding", 10, "automorphism search capped at n <= 9 (got n = 10)"),
        ("--inequalities", 11, "noncrossing minimum capped at n <= 10 (got n = 11)"),
        ("--inequalities", 9, "descent scan capped at n <= 8 (got n = 9)"),
    ],
)
def test_analyze_section_refusal_text(section, n, message, tmp_path, capsys):
    path = tmp_path / "p.txt"
    path.write_text(dumps(chain(n)))
    assert main(["analyze", str(path), section]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"scope: {message}",
        "pass --unsafe-scope to lift the cap",
    ]
    assert main(["analyze", str(path), section, "--unsafe-scope", "--json"]) == 0
