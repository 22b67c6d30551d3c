"""The permutation kernels: the descent search against its oracle, and the
compiled and pure avoider enumerators against each other."""

import os
import random
import subprocess
import sys

import pytest

from posetdecomp import _reference, kernels
from posetdecomp.generate import antichain, chain, random_poset, two_chain_fan
from posetdecomp.nccd import derived_extension
from posetdecomp.poset import enumerate_posets

import oracles

try:
    from posetdecomp import _fast
except ImportError:
    _fast = None

needs_compiled = pytest.mark.skipif(_fast is None, reason="compiled kernel not built")


def test_reference_trivial_sizes():
    assert _reference.min_descents(b"", b"", 0) == 0
    assert _reference.permutations_avoiding(b"", 0) == [()]
    assert _reference.min_descents(b"\x00", b"\x00", 1) == 1


def test_reference_matches_naive_oracle():
    for n in range(5):
        for p in enumerate_posets(n):
            got = _reference.min_descents(p.lt_bytes, p.lt_bytes, p.n)
            assert got == oracles.naive_min_descents(p)
            assert _reference.permutations_avoiding(p.lt_bytes, p.n) == sorted(
                oracles.naive_avoiders(p)
            )


def _extension_pattern(p, e) -> bytes:
    """pattern[x*n+y] = 1 when x comes before y in the linear extension e."""
    rank = {label: i for i, label in enumerate(e)}
    r = [rank[label] for label in p.labels]
    return bytes(int(r[x] < r[y]) for x in range(p.n) for y in range(p.n))


def _assert_min_descents_match(p):
    for pattern in (p.lt_bytes, _extension_pattern(p, derived_extension(p))):
        assert kernels.min_descents(pattern, p.lt_bytes, p.n) == oracles.scan_min_descents(
            pattern, p.lt_bytes, p.n
        )


def test_min_descents_is_one_kernel():
    assert kernels.min_descents is _reference.min_descents


def test_min_descents_rejects_size_mismatch():
    with pytest.raises(ValueError):
        kernels.min_descents(b"\x00", b"\x00", 2)
    with pytest.raises(ValueError):
        kernels.min_descents(bytes(4), bytes(3), 2)


def test_min_descents_matches_scan_oracle_exhaustive():
    for n in range(6):
        for p in enumerate_posets(n):
            _assert_min_descents_match(p)


def test_min_descents_matches_scan_oracle_random_n8():
    for s in range(200):
        _assert_min_descents_match(random_poset(8, density=0.3, seed=s))


def test_min_descents_matches_scan_oracle_large():
    # the oracle takes about a second on antichain(9) and on each of these
    # random posets; the width bound settles them in microseconds
    _assert_min_descents_match(antichain(9))
    for s in range(4):
        _assert_min_descents_match(random_poset(10, density=0.15, seed=s))


def test_min_descents_matches_scan_oracle_on_arbitrary_relations():
    # neither matrix need be an order: the width bound closes lt transitively
    rng = random.Random(20231)
    for _ in range(1500):
        n = rng.randint(1, 6)
        dp, dl = rng.random(), rng.random()
        pattern = bytes(int(rng.random() < dp) for _ in range(n * n))
        lt = bytes(int(rng.random() < dl) for _ in range(n * n))
        assert kernels.min_descents(pattern, lt, n) == oracles.scan_min_descents(pattern, lt, n)


@needs_compiled
def test_compiled_matches_reference_exhaustive():
    for n in range(5):
        for p in enumerate_posets(n):
            assert _fast.min_descents(p.lt_bytes, p.lt_bytes, p.n) == _reference.min_descents(
                p.lt_bytes, p.lt_bytes, p.n
            )
            assert _fast.permutations_avoiding(p.lt_bytes, p.n) == _reference.permutations_avoiding(
                p.lt_bytes, p.n
            )


@needs_compiled
def test_compiled_matches_reference_families():
    cases = [antichain(7), chain(8), two_chain_fan(3), *(random_poset(8, seed=s) for s in range(6))]
    for p in cases:
        assert _fast.min_descents(p.lt_bytes, p.lt_bytes, p.n) == _reference.min_descents(
            p.lt_bytes, p.lt_bytes, p.n
        )
        assert _fast.permutations_avoiding(p.lt_bytes, p.n) == _reference.permutations_avoiding(
            p.lt_bytes, p.n
        )


@needs_compiled
def test_compiled_rejects_oversized_input():
    n = 17
    blob = bytes(n * n)
    with pytest.raises(ValueError):
        _fast.min_descents(blob, blob, n)


@needs_compiled
def test_compiled_rejects_short_buffer():
    with pytest.raises(ValueError):
        _fast.min_descents(b"\x00", b"\x00", 2)


def test_extension_relative_pattern_buffer():
    # pattern and order matrices may differ; the antichain under a listing
    # order has avoiders counted by the Catalan numbers
    p = antichain(5)
    import numpy as np

    rank = np.arange(5)
    pattern = (rank[:, None] < rank[None, :]).astype(np.uint8).tobytes()
    avoiders = kernels.permutations_avoiding(pattern, 5)
    assert len(avoiders) == oracles.catalan_closed_form(5)


def _selector_env(value: str) -> tuple[str, int]:
    env = dict(os.environ, POSET_DECOMP_KERNEL=value)
    out = subprocess.run(
        [sys.executable, "-c", "import posetdecomp.kernels as k; print(k.BACKEND)"],
        capture_output=True,
        text=True,
        env=env,
    )
    return out.stdout.strip(), out.returncode


def test_env_selector_pure():
    backend, code = _selector_env("pure")
    assert code == 0
    assert backend == "pure"


@needs_compiled
def test_env_selector_compiled():
    backend, code = _selector_env("compiled")
    assert code == 0
    assert backend == "compiled"


def test_env_selector_rejects_unknown():
    _, code = _selector_env("turbo")
    assert code != 0
