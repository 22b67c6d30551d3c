"""Acceptance gate: one test per criterion, exact integer checks throughout.

Each test prints one `ACCEPTANCE <k> (<label>): PASS/FAIL` line to the live
terminal stream (capture suspended) so the gate's verdict is always visible,
then asserts.  All equality checks are exact; no tolerances anywhere.
"""

import subprocess
import sys
import time

import pytest

import posetdecomp.cut
from posetdecomp import (
    deletion_bounds,
    enumerate_admissible_cuts,
    is_132_avoiding,
    is_132_avoiding_in_extension,
    is_chain,
    is_chain_decomposition,
    is_homogeneous,
    is_linear_extension,
    is_noncrossing,
    maximum_antichain,
    mhcd,
    min_homogeneous,
    minimum_chain_decomposition,
    minimum_noncrossing_decomposition,
    mobius_matrix,
    sample_admissible_cuts,
    signed_chain_count_matrix,
    verify_chain_bounds,
    verify_cut_identity,
    verify_embedding,
)
from posetdecomp.cli import main
from posetdecomp.generate import antichain, chain, random_poset, two_chain_fan, wrap_forest
from posetdecomp.nccd import (
    all_132_avoiding,
    ascending_runs_decomposition,
    count_noncrossing_decompositions,
    descent_profile,
)
from posetdecomp.poset import enumerate_posets

import oracles

DENSITIES = (0.15, 0.3, 0.5, 0.7)


@pytest.fixture
def report(capsys):
    def _report(num: int, label: str, ok: bool, elapsed: float) -> None:
        line = f"ACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'} [{elapsed:.1f}s]"
        with capsys.disabled():
            print(f"\n{line}", flush=True)
        print(line)

    return _report


@pytest.fixture(scope="module")
def posets_by_size():
    return {n: list(enumerate_posets(n, cap=5)) for n in range(6)}


def test_criterion_1_dilworth_exactness(posets_by_size, report):
    t0 = time.perf_counter()
    ok = True
    detail = None
    for n in range(5):
        for p in posets_by_size[n]:
            d = minimum_chain_decomposition(p)
            a = maximum_antichain(p)
            brute = oracles.brute_min_chain_partition(p)
            if d.k != len(a) or d.k != brute or not is_chain_decomposition(p, d):
                ok = False
                detail = ("exhaustive", p.covers(), d.k, len(a), brute)
                break
    for i in range(500):
        if not ok:
            break
        n = 5 + i % 6
        p = random_poset(n, density=DENSITIES[i % 4], seed=i)
        d = minimum_chain_decomposition(p)
        a = maximum_antichain(p)
        if d.k != len(a) or not is_chain_decomposition(p, d):
            ok = False
            detail = ("random", i, p.covers(), d.k, len(a))
            break
        if n <= 6 and d.k != oracles.brute_min_chain_partition(p):
            ok = False
            detail = ("random-brute", i, p.covers())
            break
    report(1, "dilworth exactness", ok, time.perf_counter() - t0)
    assert ok, detail


def test_criterion_2_mhcd_unique_minimum(posets_by_size, report):
    t0 = time.perf_counter()
    ok = True
    detail = None
    for n in range(6):
        for p in posets_by_size[n]:
            d = mhcd(p)
            if not (is_chain_decomposition(p, d) and is_homogeneous(p, d)):
                ok, detail = False, ("invalid", p.covers())
                break
            base = frozenset(d.chains)
            if any(oracles.merge_fixpoint(p, shuffle_seed=s) != base for s in range(20)):
                ok, detail = False, ("order-dependent", p.covers())
                break
            minima = oracles.brute_minimal_homogeneous(p)
            if len(minima) != 1 or minima[0] != base:
                ok, detail = False, ("not-unique-minimum", p.covers(), len(minima))
                break
        if not ok:
            break
    report(2, "minimal homogeneous decomposition", ok, time.perf_counter() - t0)
    assert ok, detail


def test_criterion_3_deletion_bounds(posets_by_size, report):
    t0 = time.perf_counter()
    ok = True
    detail = None
    for n in range(1, 6):
        for p in posets_by_size[n]:
            rep = deletion_bounds(p)
            if not rep.ok:
                ok, detail = False, (p.covers(), rep.entries)
                break
        if not ok:
            break
    for k in range(1, 6):
        if not ok:
            break
        p = two_chain_fan(k)
        if min_homogeneous(p) != 2 * k + 1 or min_homogeneous(p.without("z")) != k:
            ok, detail = False, ("sharpness", k)
    report(3, "one-point deletion bounds", ok, time.perf_counter() - t0)
    assert ok, detail


def test_criterion_4_cut_identity(posets_by_size, report):
    t0 = time.perf_counter()
    ok = True
    detail = None
    cuts_checked = 0
    for n in range(6):
        for p in posets_by_size[n]:
            d = mhcd(p)
            for cut in enumerate_admissible_cuts(p, d):
                rep = verify_cut_identity(p, cut)
                cuts_checked += 1
                if not rep.equal:
                    ok, detail = False, ("exhaustive", p.covers(), cut.heights)
                    break
            if not ok:
                break
        if not ok:
            break
    # uniform random posets almost never admit proper cuts (their minimal
    # decompositions are all singletons), so the random stage nests chains
    # inside chain gaps to keep the admissibility hypothesis non-vacuous
    for i in range(50):
        if not ok:
            break
        p = wrap_forest(8 + i % 5, seed=i)
        d = mhcd(p)
        cuts = sample_admissible_cuts(p, d, count=100, seed=i)
        if not cuts:
            ok, detail = False, ("no-admissible-cuts", i)
            break
        for cut in cuts:
            rep = verify_cut_identity(p, cut)
            cuts_checked += 1
            if not rep.equal:
                ok, detail = False, ("random", i, cut.heights)
                break
    if ok:
        # signed chain counts against the alternating-sum-free recursion,
        # exhaustively through six elements
        for n in range(7):
            source = posets_by_size[n] if n <= 5 else enumerate_posets(6, cap=6)
            for p in source:
                if signed_chain_count_matrix(p) != mobius_matrix(p):
                    ok, detail = False, ("mobius", p.covers())
                    break
            if not ok:
                break
    report(4, "cut identity and signed counts", ok, time.perf_counter() - t0)
    assert ok, (detail, cuts_checked)


def test_criterion_5_automorphism_embedding(posets_by_size, report):
    t0 = time.perf_counter()
    ok = True
    detail = None
    for n in range(6):
        for p in posets_by_size[n]:
            rep = verify_embedding(p)
            if not (rep.well_defined and rep.injective and rep.homomorphism):
                ok, detail = False, ("exhaustive", p.covers(), rep.witness)
                break
        if not ok:
            break
    for i in range(200):
        if not ok:
            break
        p = random_poset(6 + i % 2, density=DENSITIES[i % 4], seed=1000 + i)
        rep = verify_embedding(p, seed=i)
        if not (rep.well_defined and rep.injective and rep.homomorphism):
            ok, detail = False, ("random", i, rep.witness)
            break
    if ok:
        # wrap_forest(20, 174) has nine interchangeable 2-element chains
        big = verify_embedding(wrap_forest(20, seed=174))
        anchors = (
            verify_embedding(antichain(4)).aut_poset_order == 24
            and verify_embedding(antichain(5)).aut_poset_order == 120
            and verify_embedding(chain(7)).aut_poset_order == 1
            and verify_embedding(antichain(8)).aut_poset_order == 40_320
            and big.aut_poset_order == 362_880
            and big.ok
        )
        if not anchors:
            ok, detail = False, ("anchors",)
    report(5, "automorphism embedding", ok, time.perf_counter() - t0)
    assert ok, detail


def test_criterion_6_five_minima_chain(posets_by_size, report):
    t0 = time.perf_counter()
    ok = True
    detail = None
    for n in range(6):
        for p in posets_by_size[n]:
            rep = verify_chain_bounds(p)
            monotone = (
                rep.min_chains
                <= rep.min_noncrossing
                <= rep.min_descents
                <= rep.min_descents_ext
                <= rep.min_homogeneous
            )
            witness_good = (
                is_linear_extension(p, rep.extension)
                and descent_profile(p, rep.permutation).count == rep.min_homogeneous
                and is_132_avoiding(p, rep.permutation)
                and is_132_avoiding_in_extension(p, rep.permutation, rep.extension)
            )
            if not (rep.ok and monotone and witness_good):
                ok, detail = False, (p.covers(), rep.to_dict())
                break
        if not ok:
            break
    report(6, "five-minimum inequality chain", ok, time.perf_counter() - t0)
    assert ok, detail


def test_criterion_7_descent_segments(posets_by_size, report):
    t0 = time.perf_counter()
    ok = True
    detail = None
    for n in range(6):
        for p in posets_by_size[n]:
            for perm in all_132_avoiding(p):
                d = ascending_runs_decomposition(p, perm)
                if not (
                    is_chain_decomposition(p, d)
                    and is_noncrossing(p, d)
                    and d.k == descent_profile(p, perm).count
                ):
                    ok, detail = False, (p.covers(), perm)
                    break
            if not ok:
                break
        if not ok:
            break
    report(7, "descent segments are noncrossing", ok, time.perf_counter() - t0)
    assert ok, detail


def test_criterion_8_catalan_anchor(posets_by_size, report):
    t0 = time.perf_counter()
    ok = True
    detail = None
    # independent convolution recurrence, not a hardcoded table
    cat = [1]
    for m in range(8):
        cat.append(sum(cat[i] * cat[m - i] for i in range(m + 1)))
    for n in range(1, 9):
        if count_noncrossing_decompositions(chain(n)) != cat[n]:
            ok, detail = False, ("catalan", n)
            break
    if ok:
        for n in range(6):
            for p in posets_by_size[n]:
                nc, _ = minimum_noncrossing_decomposition(p)
                total = is_chain(p, p.labels)
                if p.n == 0:
                    good = nc == 0
                else:
                    good = (nc == 1) == total
                if not good:
                    ok, detail = False, ("iff", p.covers(), nc, total)
                    break
            if not ok:
                break
    report(8, "noncrossing Catalan anchor", ok, time.perf_counter() - t0)
    assert ok, detail


def test_criterion_9_cli_contract(monkeypatch, capsys, report):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "posetdecomp.cli", "verify", "exhaustive", "--nmax", "4"],
        capture_output=True,
        text=True,
    )
    clean_ok = proc.returncode == 0

    real = posetdecomp.cut.CutFrame.j.func

    def crooked(frame):
        j = real(frame)
        if len(j) >= 2:
            j[0, 1] = 1 - j[0, 1]
        return j

    monkeypatch.setattr(posetdecomp.cut.CutFrame, "j", property(crooked))
    code = main(["verify", "exhaustive", "--nmax", "4"])
    captured = capsys.readouterr()
    mutated_ok = code == 1 and "witness" in captured.err
    ok = clean_ok and mutated_ok
    report(9, "CLI verify contract", ok, time.perf_counter() - t0)
    assert ok, (proc.returncode, code, captured.err[:500])
