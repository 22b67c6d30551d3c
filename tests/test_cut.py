"""Cuts of homogeneous decompositions and the signed-count matrix identity."""

import itertools
import math
import sys
import time

import numpy as np
import pytest

from posetdecomp import (
    ChainDecomposition,
    InvalidDecompositionError,
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
    mobius,
    mobius_matrix,
    sample_admissible_cuts,
    signed_chain_count,
    signed_chain_count_matrix,
    verify_cut_identity,
)
from posetdecomp import cut as cut_module
from posetdecomp import hcd, poset, verify
from posetdecomp.generate import boolean_lattice, chain, random_poset, wrap_forest

import oracles
import populations


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


def test_scoped_d_and_identity_refuse_a_cut_of_another_poset():
    # wrap_forest(14, 5)'s MHCD has 3 chains and p's has 4: the cut's own
    # 3 x 3 sides must not pass for p's
    p = wrap_forest(12, seed=3)
    q = wrap_forest(14, seed=5)
    cut = enumerate_admissible_cuts(q, mhcd(q))[0]
    for scope in ("lower", "upper"):
        with pytest.raises(ValueError, match="another poset"):
            d_matrix(p, mhcd(p), scope, cut)
    with pytest.raises(ValueError, match="another poset"):
        verify_cut_identity(p, cut)
    # a cut of an equal but distinct poset object is one of p
    twin = Poset(p.labels, p.lt)
    cut = enumerate_admissible_cuts(twin, mhcd(twin))[0]
    assert d_matrix(p, mhcd(p), "lower", cut) == d_matrix(twin, mhcd(twin), "lower", cut)
    assert verify_cut_identity(p, cut).to_dict() == verify_cut_identity(twin, cut).to_dict()


def test_scoped_d_refuses_a_cut_of_another_decomposition():
    # the singletons are homogeneous too, and their cut is not one of the MHCD
    p = theta()
    points = ChainDecomposition.from_parts(p, [[x] for x in p.labels])
    cut = make_cut(p, points, [1] * p.n)
    with pytest.raises(ValueError, match="another decomposition"):
        d_matrix(p, mhcd(p), "lower", cut)
    assert d_matrix(p, [[x] for x in p.labels], "lower", cut) == d_matrix(p, points, "lower", cut)


def test_frame_rebuilds_a_chain_graph_of_another_poset():
    p = wrap_forest(12, seed=3)
    own = cut_module.CutFrame(p, mhcd(p))
    # the same labels listed in reverse order: other chain indices
    graph = hcd.acyclic_orientation(p.induced(p.labels[::-1]))
    frame = cut_module.CutFrame(p, graph)
    assert frame.graph is not graph and frame.decomposition == own.decomposition
    assert frame.j.tolist() == own.j.tolist()
    assert frame.d_whole.tolist() == own.d_whole.tolist()
    # a graph of an equal poset is used as it stands
    twin = hcd.acyclic_orientation(Poset(p.labels, p.lt))
    assert cut_module.CutFrame(p, twin).graph is twin
    with pytest.raises(InvalidDecompositionError):
        cut_module.CutFrame(p, hcd.acyclic_orientation(wrap_forest(12, seed=4)))


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


def test_sample_refuses_a_negative_count(monkeypatch):
    # a negative count sampled no cut and returned []
    def enumerate_cuts(p, d):
        raise AssertionError("cuts were enumerated")

    monkeypatch.setattr(cut_module, "enumerate_admissible_cuts", enumerate_cuts)
    p = theta()
    with pytest.raises(ValueError, match="count must be >= 0 \\(got -2\\)"):
        sample_admissible_cuts(p, mhcd(p), -2)


def test_sample_refuses_past_the_cut_cap(monkeypatch):
    # the pool was built with no cap: wrap_forest(200), with about 6.5e15
    # proper cuts, never returned; the refusal comes before the first block,
    # whose frame is never built
    def frame(p, d):
        raise AssertionError("a block of cuts was built")

    p = wrap_forest(200, seed=0)
    d = mhcd(p)
    monkeypatch.setattr(cut_module, "CutFrame", frame)
    with pytest.raises(ScopeExceededError, match="capped at 10000 proper cuts"):
        sample_admissible_cuts(p, d, 1)


def test_cut_heights_must_be_integers():
    # a height was truncated by int(): [1.7] * 4 made the cut (1, 1, 1, 1)
    p = wrap_forest(12, seed=3)
    d = mhcd(p)
    with pytest.raises(TypeError):
        make_cut(p, d, [1.7] * d.k)
    assert make_cut(p, d, np.ones(d.k, dtype=np.int64)).heights == (1,) * d.k


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
    for p in populations.up_to():
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
    for p in populations.up_to(4):
        d = mhcd(p)
        mob = mobius_matrix(p)
        agg = [[0] * d.k for _ in range(d.k)]
        for i, ci in enumerate(d.chains):
            for j, cj in enumerate(d.chains):
                agg[i][j] = sum(mob[x][y] for x in ci for y in cj if x == y or p.lt[x, y])
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
    for p in populations.of_size(4):
        assert signed_chain_count_matrix(p) == mobius_matrix(p)


def test_signed_counts_match_power_sum_oracle():
    posets = populations.up_to() + populations.wrapforest_n20(50)
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
    # a chain of n elements holds 2**n - 1 chains inside its bottom's up-set,
    # so its series runs on float64 BLAS up to n = 53 and on int64 from
    # n = 54; the binomial power entries pass 2**53 by n = 60, where float64
    # would round them
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
    posets = populations.up_to()
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


def kernel_blocks(posets):
    """A block of 40 random in-range heights per poset, improper and
    inadmissible cuts included, on its MHCD's frame, and the block's first
    `_KEYED - 1` cuts: one block on each side of the kernel's size rule."""
    rng = np.random.default_rng(39)
    small = cut_module._KEYED - 1
    assert 40 >= cut_module._KEYED > small
    for p in posets:
        frame = cut_module.CutFrame(p, mhcd(p))
        sizes = np.array([len(c) for c in frame.decomposition.chains], dtype=np.int64)
        heights = rng.integers(0, sizes + 1, size=(40, len(sizes)))
        yield frame, heights
        yield frame, heights[:small]


def kernel_faults(posets) -> int:
    """The blocks of `kernel_blocks(posets)` on which `_cut_kernel` and the
    one-row-per-(cut, side, chain) oracle differ in value or dtype."""
    faults = 0
    for frame, heights in kernel_blocks(posets):
        pairs = zip(cut_module._cut_kernel(frame, heights), oracles.cut_kernel_by_rows(frame, heights))
        faults += not all(got.dtype == want.dtype and np.array_equal(got, want) for got, want in pairs)
    return faults


def test_kernel_matches_row_oracle():
    posets = populations.up_to()
    posets += [wrap_forest(n, seed=s) for n in range(12, 31) for s in range(5)]
    posets += [random_poset(9, 0.3, seed=s) for s in range(30)]
    assert kernel_faults(posets) == 0


def tier_faults(posets) -> list:
    """The posets on which the exact arithmetic sized by the chain-count
    bound differs from the oracles.  The bound must be at least the exact
    largest number of chains inside one principal up-set, and in the tier
    that number calls for (the second candidate is exact); the layout, the
    Mobius array, D_whole and the signed counts must take that tier's
    dtypes.  Values are compared with the paths that never use float64:
    D_whole with the Mobius matrix summed pair by pair in Python integers,
    the signed counts with the Mobius recursion and, up to 63 elements, with
    the tier that n alone allows (signed counts are skipped past 100
    elements, where the power series on Python integers takes a minute),
    and the kernel's batch on the first block of admissible cuts with the
    row oracle on int64 (or Python integers past 2**63 chains), on at most
    16 cuts, enough for the keyed rows."""
    faults = []
    for p in posets:
        frame = cut_module.CutFrame(p, mhcd(p))
        exact = oracles.chains_in_up_sets(p)
        work, whole = cut_module._exact_dtypes(exact)
        ok = frame.count_bound >= exact
        ok &= cut_module._exact_dtypes(frame.count_bound) == (work, whole)
        ok &= frame.layout[-1].dtype == work
        ok &= frame.mobius.dtype == frame.d_whole.dtype == whole
        mu = mobius_matrix(p)
        ok &= frame.d_whole.tolist() == oracles.chain_sums(frame.decomposition, mu, (1 << p.n) - 1).tolist()
        if p.n <= 100:
            counts = poset._signed_counts(p.lt, frame.count_bound)
            ok &= counts.dtype == whole and counts.tolist() == mu
            ok &= p.n > 63 or counts.tolist() == oracles.signed_counts_by_n(p.lt).tolist()
        reference = np.int64 if exact < 2**63 else object
        for heights, _ in itertools.islice(cut_module._admissible_identities(frame, None), 1):
            heights = np.array(heights[:16])
            pairs = zip(cut_module._cut_kernel(frame, heights),
                        oracles.cut_kernel_by_rows(frame, heights, reference))
            ok &= all(np.array_equal(got, want) for got, want in pairs)
        if not ok:
            faults.append(p)
    return faults


def under_cut_cap(p) -> bool:
    return math.prod(len(c) - 1 for c in mhcd(p).chains) <= cut_module.CUT_ENUMERATION_CAP


# posets whose largest principal up-set holds u >= 54 elements, so that the
# first candidate, 2**u - 1, leaves float64; all are under the cut cap.  The
# exact count keeps wrap_forest(64, seed=2) (u = 57) on float64, and puts the
# others between 2**53 and 2**54 chains, on int64
PAST_53 = [wrap_forest(64, seed=2), wrap_forest(72, seed=2), wrap_forest(80, seed=2), chain(54)]


def test_tiers_sized_by_the_chain_count_bound():
    posets = populations.up_to()
    posets += [q for n in range(20, 81) for s in range(3) if under_cut_cap(q := wrap_forest(n, seed=s))]
    posets += PAST_53 + [random_poset(300, 0.3, seed=0)]
    assert tier_faults(posets) == []
    assert all(max(row.bit_count() for row in p.rows[0]) >= 53 for p in PAST_53)
    bounds = [cut_module.CutFrame(p, mhcd(p)).count_bound for p in PAST_53]
    assert bounds[0] < 2**53 <= min(bounds[1:]) <= max(bounds[1:]) < 2**54
    # random_poset(300, 0.3) counts past 2**139 chains: Python integers
    assert cut_module.CutFrame(posets[-1], mhcd(posets[-1])).count_bound > 2**139


def test_single_entries_match_the_matrices_in_every_tier():
    # one poset per tier of the chain-count bound: float64, int64 and
    # Python integers; each function computes one row, here at the entry of
    # largest magnitude in every seventh row
    tiers = [PAST_53[0], PAST_53[1], chain(70)]
    dtypes = [poset._exact_dtypes(poset._chain_count_bound(p))[0] for p in tiers]
    assert dtypes == [np.float64, np.int64, object]
    for p in tiers:
        counts, mu = signed_chain_count_matrix(p), mobius_matrix(p)
        for x in range(0, p.n, 7):
            y = max(range(p.n), key=lambda y: abs(mu[x][y]))
            a, b = p.labels[x], p.labels[y]
            assert signed_chain_count(p, a, b) == counts[x][y]
            assert mobius(p, a, b) == mu[x][y]


def test_kernel_runs_one_series_row_per_key(monkeypatch):
    # wrap_forest(28, seed=6) has 7 chains and six blocks of 256 admissible
    # cuts; a row per (cut, side, chain) would be 2 * 256 * 7 = 3,584 per block
    p = wrap_forest(28, seed=6)
    frame = cut_module.CutFrame(p, mhcd(p))
    rows = []
    real = cut_module._alternating_series

    def counted(power, strict, inside=1):
        rows.append(len(power))
        return real(power, strict, inside)

    monkeypatch.setattr(cut_module, "_alternating_series", counted)
    sizes = [len(heights) for heights, _ in cut_module._admissible_identities(frame, None)]
    k = frame.decomposition.k
    assert [2 * c * k for c in sizes] == [3584] * 6
    assert rows == [36] * 6


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
    # verdicts stand: only the comparison with the Mobius matrix summed over
    # the side, made on the first admissible cut, can see it
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
    posets = populations.up_to()
    posets += [wrap_forest(n, seed=s) for n in range(12, 31) for s in range(3)]
    for p in posets + [chain(70)]:
        assert mobius_matrix(p) == oracles.mobius_by_loop(p)
    assert all(type(v) is int for row in mobius_matrix(chain(70)) for v in row)


def test_lhs_is_the_exact_object_product():
    # D_whole J in the dtype its bound allows, k times D_whole's largest entry
    posets = populations.up_to()
    for p in posets + [wrap_forest(600, seed=0), chain(70)]:
        frame = verify.Analysis(p).frame
        assert frame.lhs.dtype == np.int64
        assert frame.lhs.tolist() == (frame.d_whole.astype(object) @ frame.j).tolist()
    # chain(70)'s chain-count bound is past 2**63, the product's is not
    assert frame.d_whole.dtype == object


def _frame_family():
    posets = populations.up_to() + populations.random_n8()
    return posets + [wrap_forest(n, seed=s) for n in range(12, 31) for s in range(10)]


def test_side_mobius_is_the_restricted_mobius():
    # an admissible cut's lower side is a down-set and its upper side an
    # up-set, so each side's own Mobius recursion is the poset's Mobius
    # matrix restricted to the side: the lemma the cut check's side
    # comparison relies on
    cuts = 0
    for p in _frame_family():
        mu = mobius_matrix(p)
        for cut in enumerate_admissible_cuts(p, mhcd(p)):
            lower = sum(1 << x for part in cut.lower_parts for x in part)
            for keep in (lower, ((1 << p.n) - 1) & ~lower):
                inside = [keep >> x & 1 for x in range(p.n)]
                restricted = [
                    [v if inside[x] and inside[y] else 0 for y, v in enumerate(row)]
                    for x, row in enumerate(mu)
                ]
                assert oracles.sub_order_mobius(p, keep) == restricted
            cuts += 1
    assert cuts == 10_975


def test_d_whole_is_the_membership_product():
    # D_whole sums the Mobius matrix over chain pairs; M S M^T sums the
    # power series' signed counts.  chain(70)'s chain-count bound reaches
    # the Python-integer tier; wrap_forest(56..64, seed=0) stay on int64
    posets = _frame_family() + [chain(70)] + [wrap_forest(n, seed=0) for n in range(56, 65)]
    for p in posets:
        frame = cut_module.CutFrame(p, mhcd(p))
        members = frame.members.astype(object)
        counts = np.array(signed_chain_count_matrix(p), dtype=object)
        assert frame.d_whole.tolist() == (members @ counts @ members.T).tolist()
        assert frame.d_whole.dtype == (object if p == chain(70) else np.int64)


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
    # one Mobius recursion per poset, read by D_whole and by both
    # cross-checks, and one power series, the Hall comparison's other side
    comparability = _count_calls(monkeypatch, "_comparable_pairs", [hcd])
    mobius = _count_calls(monkeypatch, "mobius_matrix", [poset, cut_module])
    counts = _count_calls(monkeypatch, "_signed_counts", [poset, verify])
    for p in _check_cut_family():
        comparability.clear()
        mobius.clear()
        counts.clear()
        out = verify.check_cut(verify.Analysis(p))
        assert out["passed"]
        assert len(comparability) == 1
        assert len(mobius) == 1
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


def test_cut_enumerators_refuse_by_default():
    # wrap_forest(200, seed=0) has about 6.5e15 proper cuts: both
    # enumerators refuse them before the first block unless cap=None
    p = wrap_forest(200, seed=0)
    d = mhcd(p)
    start = time.perf_counter()
    with pytest.raises(ScopeExceededError):
        enumerate_admissible_cuts(p, d)
    with pytest.raises(ScopeExceededError):
        next(enumerate_proper_cuts(p, d))
    assert time.perf_counter() - start < 0.1
    assert len(next(enumerate_proper_cuts(p, d, cap=None)).heights) == d.k


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
