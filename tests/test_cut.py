"""Cuts of homogeneous decompositions and the signed-count matrix identity."""

import sys

import numpy as np
import pytest

from posetdecomp import (
    ChainDecomposition,
    NotHomogeneousError,
    Poset,
    ScopeExceededError,
    d_matrix,
    enumerate_admissible_cuts,
    enumerate_proper_cuts,
    integer_determinant,
    is_admissible,
    is_proper,
    j_matrix,
    make_cut,
    mhcd,
    minimum_chain_decomposition,
    mobius_matrix,
    sample_admissible_cuts,
    signed_chain_count_matrix,
    verify_cut_identity,
)
from posetdecomp import cut as cut_module
from posetdecomp import hcd, poset, verify
from posetdecomp.generate import boolean_lattice, chain, random_poset, wrap_forest
from posetdecomp.poset import enumerate_posets

import oracles


def theta():
    return Poset.from_cover_relations(
        ["u1", "w1", "w2", "u2", "x1", "x2"],
        [("u1", "w1"), ("w1", "w2"), ("w2", "u2"), ("u1", "x1"), ("x1", "x2"), ("x2", "u2")],
    )


# hand-computed matrices for theta with chains (u1<u2), (w1<w2), (x1<x2):
# D counts signed increasing chains between chain pairs, J adds comparability
# to the identity, and heights (1,1,1) give the unique admissible cut.
THETA_D = [[3, -1, -1], [-1, 1, 0], [-1, 0, 1]]
THETA_J = [[1, 1, 1], [1, 1, 0], [1, 0, 1]]
THETA_D_LOWER = [[1, -1, -1], [0, 1, 0], [0, 0, 1]]
THETA_D_UPPER = [[1, 0, 0], [-1, 1, 0], [-1, 0, 1]]
THETA_LHS = [[1, 2, 2], [0, 0, -1], [0, -1, 0]]


def test_d_and_j_frozen_values():
    p = theta()
    d = mhcd(p)
    assert d_matrix(p, d) == THETA_D
    assert j_matrix(p, d) == THETA_J


def test_scoped_d_frozen_values():
    p = theta()
    d = mhcd(p)
    cut = make_cut(p, d, (1, 1, 1))
    assert d_matrix(p, d, scope="lower", cut=cut) == THETA_D_LOWER
    assert d_matrix(p, d, scope="upper", cut=cut) == THETA_D_UPPER


def test_identity_frozen_values():
    p = theta()
    d = mhcd(p)
    cut = make_cut(p, d, (1, 1, 1))
    rep = verify_cut_identity(p, cut)
    assert rep.lhs == THETA_LHS
    assert rep.rhs == THETA_LHS
    assert rep.equal and rep.ok
    assert rep.max_abs_discrepancy == 0
    assert rep.j_determinant == -1


def test_theta_admissible_cuts_unique():
    p = theta()
    d = mhcd(p)
    proper = list(enumerate_proper_cuts(p, d))
    assert [c.heights for c in proper] == [(1, 1, 1)]
    assert [c.heights for c in enumerate_admissible_cuts(p, d)] == [(1, 1, 1)]


def test_cut_validation():
    p = theta()
    d = mhcd(p)
    with pytest.raises(ValueError):
        make_cut(p, d, (1, 1))
    with pytest.raises(ValueError):
        make_cut(p, d, (3, 1, 1))
    with pytest.raises(NotHomogeneousError):
        make_cut(p, minimum_chain_decomposition(p), (1, 1))


def test_proper_and_admissible_flags():
    p = theta()
    d = mhcd(p)
    full = make_cut(p, d, (2, 0, 1))
    assert not is_proper(full)
    assert not is_admissible(full)
    good = make_cut(p, d, (1, 1, 1))
    assert is_proper(good) and is_admissible(good)


def test_lower_upper_posets_partition():
    p = theta()
    cut = make_cut(p, mhcd(p), (1, 1, 1))
    lower = cut.lower_poset()
    upper = cut.upper_poset()
    assert sorted(lower.labels) == ["u1", "w1", "x1"]
    assert sorted(upper.labels) == ["u2", "w2", "x2"]


def test_single_chain_cut():
    p = chain(4)
    d = mhcd(p)
    for cut in enumerate_proper_cuts(p, d):
        rep = verify_cut_identity(p, cut)
        assert rep.equal
        assert rep.lhs == [[1]]


def test_identity_exhaustive_small():
    for n in range(6):
        for p in enumerate_posets(n, cap=5):
            d = mhcd(p)
            for cut in enumerate_admissible_cuts(p, d):
                rep = verify_cut_identity(p, cut)
                assert rep.equal, (p.covers(), cut.heights)


def test_identity_on_wrap_forests():
    for seed in range(20):
        p = wrap_forest(10, seed=seed)
        d = mhcd(p)
        cuts = sample_admissible_cuts(p, d, count=25, seed=seed)
        assert cuts, "wrap forests must admit cuts"
        for cut in cuts:
            assert verify_cut_identity(p, cut).equal


def test_improper_cut_reported_not_asserted():
    p = boolean_lattice(2)
    d = mhcd(p)
    # every cut of the diamond decomposition leaves a singleton side empty
    cut = make_cut(p, d, (1, 0, 1))
    rep = verify_cut_identity(p, cut)
    assert not rep.admissible
    assert rep.ok  # hypothesis unmet, so no claim is made
    assert any(f["kind"] == "cut-hypothesis-unmet" for f in rep.findings)


def test_d_matches_mobius_aggregation():
    for n in range(5):
        for p in enumerate_posets(n):
            d = mhcd(p)
            mob = mobius_matrix(p)
            agg = [[0] * d.k for _ in range(d.k)]
            for i, ci in enumerate(d.chains):
                for j, cj in enumerate(d.chains):
                    agg[i][j] = sum(
                        mob[x][y]
                        for x in ci
                        for y in cj
                        if x == y or p.lt[x, y]
                    )
            assert d_matrix(p, d) == agg


def test_integer_determinant_known():
    assert integer_determinant([]) == 1
    assert integer_determinant([[7]]) == 7
    assert integer_determinant([[1, 2], [3, 4]]) == -2
    assert integer_determinant([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert integer_determinant(THETA_J) == -1


def test_j_can_be_singular():
    # J = I + A is not always invertible over the rationals; smallest witness
    # found by exhaustive sweep: five points with covers 0<4, 1<3, 2<3, 2<4
    p = Poset.from_cover_relations(
        "01234", [("0", "4"), ("1", "3"), ("2", "3"), ("2", "4")]
    )
    assert integer_determinant(j_matrix(p, mhcd(p))) == 0


def test_signed_counts_equal_mobius_n6_sample():
    # the exhaustive n <= 6 sweep lives in the acceptance suite; spot-check here
    for p in enumerate_posets(4):
        assert signed_chain_count_matrix(p) == mobius_matrix(p)


def test_signed_counts_match_power_sum_oracle():
    posets = [p for n in range(6) for p in enumerate_posets(n)]
    posets += [wrap_forest(20, seed=s) for s in range(50)]
    posets += [random_poset(14, 0.3, seed=s) for s in range(50)]
    for p in posets:
        assert signed_chain_count_matrix(p) == oracles.power_sum_signed_counts(p.lt)


def test_signed_counts_exact_past_int64():
    # the chain's binomial power entries exceed 2**63, so this runs on
    # Python integers; the Mobius recursion is the independent check.  (int64
    # would wrap here, and wrapping is exact modulo 2**64, so only a final
    # count beyond 2**63 could tell the two dtypes apart.)
    p = chain(70)
    counts = signed_chain_count_matrix(p)
    assert counts == mobius_matrix(p)
    assert all(type(v) is int for row in counts for v in row)


@pytest.mark.parametrize("n", [53, 54, 60, 63])
def test_signed_counts_exact_across_float_tier(n):
    # the whole-poset series runs on float64 BLAS up to n = 54 and on int64
    # from n = 55; the chain's binomial power entries pass 2**53 by n = 60,
    # where float64 would round them
    p = chain(n)
    counts = signed_chain_count_matrix(p)
    assert counts == mobius_matrix(p) == oracles.power_sum_signed_counts(p.lt)
    assert all(type(v) is int for row in counts for v in row)


def test_side_series_float_tier_matches_int64(monkeypatch):
    # on wrap forests of 40 to 53 elements the side series runs on float64;
    # with every bound raised to the float tier's limit it runs on int64, and
    # the batches must agree in value and dtype.  The random heights include
    # improper and inadmissible cuts, which the kernel evaluates too.
    rng = np.random.default_rng(3)
    cases = []
    for n in range(40, 54):
        for s in range(3):
            p = wrap_forest(n, seed=s)
            d = mhcd(p)
            sizes = np.array([len(c) for c in d.chains])
            cases.append((p, d, rng.integers(0, sizes + 1, size=(64, d.k))))
    floats = []
    for p, d, heights in cases:
        frame = cut_module.CutFrame(p, d)
        assert frame.layout[-1].dtype == np.float64
        floats.append(cut_module._cut_kernel(frame, heights))
    real = cut_module._exact_dtypes
    monkeypatch.setattr(cut_module, "_exact_dtypes", lambda bound: real(max(bound, 2**53)))
    for (p, d, heights), batch in zip(cases, floats):
        frame = cut_module.CutFrame(p, d)
        assert frame.layout[-1].dtype == np.int64
        for got, want in zip(batch, cut_module._cut_kernel(frame, heights)):
            assert got.dtype == want.dtype != np.float64
            assert np.array_equal(got, want)


def test_identity_reports_match_per_cut_oracle():
    posets = [p for n in range(6) for p in enumerate_posets(n)]
    posets += [wrap_forest(n, seed=s) for n in range(12, 31) for s in range(10)]
    for p in posets:
        d = mhcd(p)
        expected = oracles.cut_identity_reports(p, d.chains)
        proper = list(enumerate_proper_cuts(p, d))
        comp = proper[0].frame.graph.adjacency if proper else None
        assert [is_admissible(c) for c in proper] == [
            oracles.admissible_by_loop(p, d.chains, comp, c.heights) for c in proper
        ]
        cuts = enumerate_admissible_cuts(p, d)
        assert [c.heights for c in cuts] == list(expected)
        for cut in cuts:
            report = verify_cut_identity(p, cut).to_dict()
            assert report == expected[cut.heights]
            for scope in ("lower", "upper"):
                assert report[f"d_{scope}"] == oracles.side_counts_by_submatrix(
                    p, d.chains, cut.heights, scope
                )


def test_batched_pass_matches_oracle_across_blocks():
    # 1,536 admissible cuts: the pass spans several kernel blocks, and one
    # kernel call on all of them stacks more cuts than a block holds
    p = wrap_forest(28, seed=6)
    frame = cut_module.CutFrame(p, mhcd(p))
    expected = oracles.cut_identity_reports(p, frame.decomposition.chains)
    assert len(expected) > 2 * cut_module._BLOCK
    blocks = list(cut_module._admissible_identities(frame, None))
    assert len(blocks) > 2
    assert [tuple(h) for heights, _ in blocks for h in heights] == list(expected)
    assert [e for _, batch in blocks for e in batch.equal.tolist()] == [
        r["equal"] for r in expected.values()
    ]
    block = np.array(list(expected))
    assert cut_module._admissible(frame, block).all()
    batch = cut_module._cut_kernel(frame, block)
    for row, report in enumerate(expected.values()):
        assert batch.d_lower[row].tolist() == report["d_lower"]
        assert batch.d_upper[row].tolist() == report["d_upper"]
        assert batch.rhs[row].tolist() == report["rhs"]


def test_check_cut_witness_is_first_failing_cut(monkeypatch):
    # a kernel whose right-hand side is off by one on every cut with the last
    # cut's first height: the witness is the report on the first such cut,
    # which lies past the first block
    real = cut_module._cut_kernel
    p = wrap_forest(28, seed=6)
    an = verify.Analysis(p)
    heights = list(oracles.cut_identity_reports(p, an.frame.decomposition.chains))
    top = heights[-1][0]
    first = next(h for h in heights if h[0] == top)
    assert heights.index(first) > cut_module._BLOCK

    def skewed(frame, block):
        batch = real(frame, block)
        off = (block[:, 0] == top)[:, None, None]
        return batch._replace(rhs=batch.rhs + off, equal=batch.equal & ~off[:, 0, 0])

    monkeypatch.setattr(cut_module, "_cut_kernel", skewed)
    out = verify.check_cut(an)
    assert not out["passed"]
    assert out["details"]["admissible_cuts"] == len(heights)
    assert out["witness"]["heights"] == list(first)
    assert out["witness"]["equal"] is False
    assert out["witness"]["max_abs_discrepancy"] == 1


def test_check_cut_compares_first_sides_with_mobius(monkeypatch):
    # a kernel whose upper side is off by one in every entry while its
    # verdicts stand: only the comparison with the side's Mobius recursion,
    # made on the first admissible cut, can see it
    real = cut_module._cut_kernel

    def skewed(frame, block):
        batch = real(frame, block)
        return batch._replace(d_upper=batch.d_upper + 1)

    an = verify.Analysis(theta())
    assert verify.check_cut(an) == {
        "name": "cut",
        "passed": True,
        "details": {"admissible_cuts": 1, "signed_counts_match_mobius": True},
    }
    monkeypatch.setattr(cut_module, "_cut_kernel", skewed)
    assert verify.check_cut(an) == {
        "name": "cut",
        "passed": False,
        "details": {"admissible_cuts": 1, "signed_counts_match_mobius": True},
        "witness": {
            "heights": [1, 1, 1],
            "side": "upper",
            "kernel": [[v + 1 for v in row] for row in THETA_D_UPPER],
            "mobius": THETA_D_UPPER,
        },
    }


def test_check_cut_evaluates_each_block_once(monkeypatch):
    # admissibility once per block of proper cuts, the identity once per
    # block with an admissible cut: no cut reaches the kernel twice
    p = wrap_forest(28, seed=6)
    an = verify.Analysis(p)
    proper = [c.heights for c in enumerate_proper_cuts(p, an.frame.decomposition)]
    admissible = set(oracles.cut_identity_reports(p, an.frame.decomposition.chains))
    size = cut_module._BLOCK
    blocks = [proper[i:i + size] for i in range(0, len(proper), size)]
    filled = sum(not admissible.isdisjoint(block) for block in blocks)
    assert len(blocks) >= filled > 2
    kernel = _count_calls(monkeypatch, "_cut_kernel", [cut_module])
    assert verify.check_cut(an)["passed"]
    assert len(kernel) == filled
    kernel.clear()
    tested = _count_calls(monkeypatch, "_admissible", [cut_module])
    assert verify.check_cut(an)["passed"]
    assert (len(tested), len(kernel)) == (len(blocks), filled)


def test_mobius_matches_loop_oracle():
    posets = [p for n in range(6) for p in enumerate_posets(n)]
    posets += [wrap_forest(n, seed=s) for n in range(12, 31) for s in range(3)]
    for p in posets + [chain(70)]:
        assert mobius_matrix(p) == oracles.mobius_by_loop(p)
    assert all(type(v) is int for row in mobius_matrix(chain(70)) for v in row)


def _count_calls(monkeypatch, name, modules):
    calls = []
    real = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted, raising=False)
    return calls


def _check_cut_family():
    posets = [theta(), chain(4), boolean_lattice(2)]
    return posets + [wrap_forest(n, seed=s) for n in (10, 16) for s in range(5)]


def test_check_cut_builds_one_frame(monkeypatch):
    comparability = _count_calls(monkeypatch, "_comparable_pairs", [hcd])
    counts = _count_calls(monkeypatch, "_signed_counts", [poset, cut_module, verify])
    for p in _check_cut_family():
        comparability.clear()
        counts.clear()
        out = verify.check_cut(verify.Analysis(p))
        assert out["passed"]
        assert len(comparability) == 1
        assert len(counts) == 1


def test_check_cut_builds_no_poset(monkeypatch):
    # the cut sides are submatrices of the strict order, never validated posets
    analyses = [verify.Analysis(p) for p in _check_cut_family()]
    for an in analyses:
        an.frame  # the MHCD and its frame are the analysis', built before the check
    built = []
    real = Poset.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(Poset, "__init__", counted)
    outs = [verify.check_cut(an) for an in analyses]
    assert all(out["passed"] for out in outs)
    assert sum(out["details"]["admissible_cuts"] for out in outs) > 100
    assert built == []


def test_identity_reports_match_oracle_past_int64():
    # a 70-chain wrapping two 3-chains in its gap c65 < c66: the whole poset
    # and the lower side of each of its 4 admissible cuts (68 to 70 elements)
    # have more than 64 elements, so their signed counts run on Python integers
    outer = [f"c{i}" for i in range(70)]
    covers = list(zip(outer, outer[1:]))
    inner = []
    for name in "xy":
        kids = [f"{name}{i}" for i in range(3)]
        inner += kids
        covers += [("c65", kids[0]), *zip(kids, kids[1:]), (kids[-1], "c66")]
    p = Poset.from_cover_relations(outer + inner, covers)
    d = mhcd(p)
    expected = oracles.cut_identity_reports(p, d.chains)
    cuts = enumerate_admissible_cuts(p, d)
    assert [c.heights for c in cuts] == list(expected) == [
        (66, 1, 1), (66, 1, 2), (66, 2, 1), (66, 2, 2)
    ]
    for cut in cuts:
        assert sum(map(len, cut.lower_parts)) > 64
        assert verify_cut_identity(p, cut).to_dict() == expected[cut.heights]


def test_not_homogeneous_raised_only_with_a_proper_cut():
    p = theta()
    # chains (u1 w1 w2 u2) and (x1 x2): x1 meets u1 but not w1, and both
    # chains can be cut
    mixed = ChainDecomposition.from_parts(p, [["u1", "w1", "w2", "u2"], ["x1", "x2"]])
    with pytest.raises(NotHomogeneousError):
        next(enumerate_proper_cuts(p, mixed))
    with pytest.raises(NotHomogeneousError):
        enumerate_admissible_cuts(p, mixed)
    # the same mix with x1 and x2 as points: no proper cut, so nothing to raise
    pointed = ChainDecomposition.from_parts(p, [["u1", "w1", "w2", "u2"], ["x1"], ["x2"]])
    assert list(enumerate_proper_cuts(p, pointed)) == []
    assert enumerate_admissible_cuts(p, pointed) == []


def test_cut_cap_refusal_never_formats_the_product():
    # 2**2500 proper cuts has 753 digits, past the lowered int-to-str limit
    labels = list(range(7500))
    p = Poset.from_cover_relations(labels, [(x, x + 1) for x in labels if x % 3 != 2])
    chains = [labels[i : i + 3] for i in range(0, 7500, 3)]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(ScopeExceededError, match=r"\(got more than 10\)$"):
            enumerate_admissible_cuts(p, chains, cap=10)
    finally:
        sys.set_int_max_str_digits(limit)


def test_cut_cap_counts_proper_cuts():
    # the cap bounds the proper cuts walked, not the admissible ones found
    for s in range(5):
        p = wrap_forest(16, seed=s)
        d = mhcd(p)
        proper = len(list(enumerate_proper_cuts(p, d)))
        assert proper > 0
        full = [c.heights for c in enumerate_admissible_cuts(p, d)]
        assert [c.heights for c in enumerate_admissible_cuts(p, d, cap=proper)] == full
        with pytest.raises(ScopeExceededError):
            enumerate_admissible_cuts(p, d, cap=proper - 1)
