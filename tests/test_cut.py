"""Cuts of homogeneous decompositions and the signed-count matrix identity."""

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


def test_identity_reports_match_per_cut_oracle():
    for n in range(12, 21):
        for seed in range(10):
            p = wrap_forest(n, seed=seed)
            d = mhcd(p)
            expected = oracles.cut_identity_reports(p, d.chains)
            cuts = enumerate_admissible_cuts(p, d)
            assert [c.heights for c in cuts] == list(expected)
            for cut in cuts:
                assert verify_cut_identity(p, cut).to_dict() == expected[cut.heights]


def _count_calls(monkeypatch, name, modules):
    calls = []
    real = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted, raising=False)
    return calls


def test_check_cut_builds_one_frame(monkeypatch):
    comparability = _count_calls(monkeypatch, "chain_comparability", [hcd, cut_module, verify])
    counts = _count_calls(monkeypatch, "signed_chain_count_matrix", [poset, cut_module, verify])
    posets = [theta(), chain(4), boolean_lattice(2)]
    posets += [wrap_forest(n, seed=s) for n in (10, 16) for s in range(5)]
    for p in posets:
        comparability.clear()
        counts.clear()
        out = verify.check_cut(verify.Analysis(p))
        assert out["passed"]
        assert len(comparability) == 1
        assert len(counts) == 2 * out["details"]["admissible_cuts"] + 1


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
