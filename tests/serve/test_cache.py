"""Tests for operator fingerprinting and the byte-budgeted engine cache."""

import numpy as np
import pytest

from repro.core.matvec import FFTMatvec
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.gpu.memory import OutOfMemoryError
from repro.serve import EngineCache, engine_footprint, operator_fingerprint
from repro.util.validation import ReproError


def make_matrix(nt=8, nd=3, nm=12, seed=0):
    rng = np.random.default_rng(seed)
    return BlockTriangularToeplitz.random(nt, nd, nm, rng=rng)


class TestOperatorFingerprint:
    def test_stable_across_calls_and_copies(self):
        mat = make_matrix()
        copy = BlockTriangularToeplitz(mat.blocks.copy())
        assert operator_fingerprint(mat) == operator_fingerprint(mat)
        assert operator_fingerprint(mat) == operator_fingerprint(copy)

    def test_content_sensitivity(self):
        mat = make_matrix(seed=0)
        other = make_matrix(seed=1)
        assert operator_fingerprint(mat) != operator_fingerprint(other)
        # A single-element perturbation must change the digest.
        bumped = mat.blocks.copy()
        bumped[0, 0, 0] += 1e-12
        assert operator_fingerprint(mat) != operator_fingerprint(
            BlockTriangularToeplitz(bumped)
        )

    def test_raw_array_accepted(self):
        mat = make_matrix()
        assert operator_fingerprint(mat.blocks) == operator_fingerprint(mat)


class TestEngineCacheBasics:
    def test_miss_builds_hit_returns_same(self):
        cache = EngineCache(64 * 2**20)
        mat = make_matrix()
        built = []

        def builder():
            built.append(1)
            return FFTMatvec(mat)

        a = cache.get("k1", builder)
        b = cache.get("k1", builder)
        assert a is b
        assert built == [1]
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)

    def test_missing_key_without_builder_raises(self):
        cache = EngineCache(2**20)
        with pytest.raises(ReproError):
            cache.get("nope")

    def test_invalid_budget_rejected(self):
        with pytest.raises(ReproError):
            EngineCache(0)

    def test_lru_order_and_refresh(self):
        cache = EngineCache(256 * 2**20)
        mats = [make_matrix(seed=s) for s in range(3)]
        for i, mat in enumerate(mats):
            cache.get(f"k{i}", lambda m=mat: FFTMatvec(m))
        assert cache.keys() == ("k0", "k1", "k2")
        cache.get("k0")  # hit refreshes to most-recently-used
        assert cache.keys() == ("k1", "k2", "k0")
        assert cache.evict_lru() == "k1"
        assert "k1" not in cache and len(cache) == 2


class TestFootprint:
    @staticmethod
    def distinct_bytes(arrays):
        counted = []
        for a in arrays:
            if not any(np.shares_memory(a, b) for b in counted):
                counted.append(a)
        return sum(a.nbytes for a in counted)

    def test_a_fresh_engine_is_charged_one_double_spectrum(self):
        eng = FFTMatvec(make_matrix(64, 24, 96))
        assert not eng._fhat and not eng._fhat_conj  # built on first use
        assert engine_footprint(eng) == 65 * 24 * 96 * 16 + eng.workspace.nbytes

    def test_counts_each_held_array_once(self):
        mat = make_matrix(64, 24, 96)
        eng = FFTMatvec(mat)
        M, D = np.ones((mat.nt, mat.nm, 3)), np.ones((mat.nt, mat.nd, 3))
        for config in ("ddddd", "dssdd"):
            eng.matvec(M[:, :, 0], config=config)
            eng.matmat(M, config=config)
            eng.rmatmat(D, config=config)
            held = [*eng._fhat.values(), *eng._fhat_conj.values()]
            want = self.distinct_bytes(held) + eng.workspace.nbytes
            assert engine_footprint(eng) == want
        # Both tiers and their conjugates: 16 + 16 + 8 + 8 bytes an entry.
        assert len(held) == 4
        assert self.distinct_bytes(held) == 65 * 24 * 96 * 48


class TestByteBudget:
    def test_budget_evicts_lru(self):
        mat = make_matrix()
        one = engine_footprint(FFTMatvec(mat))
        # Room for two engines but not three.
        cache = EngineCache(int(2.5 * one))
        for i in range(3):
            cache.get(f"k{i}", lambda m=mat: FFTMatvec(m))
            assert cache.stats().peak_bytes <= cache.budget_bytes
        assert "k0" not in cache  # LRU victim
        assert cache.keys() == ("k1", "k2")
        assert cache.stats().evictions == 1

    def test_engine_larger_than_budget_raises(self):
        mat = make_matrix()
        one = engine_footprint(FFTMatvec(mat))
        cache = EngineCache(max(1, one // 2))
        with pytest.raises(OutOfMemoryError):
            cache.get("big", lambda: FFTMatvec(mat))
        assert len(cache) == 0

    def test_update_footprint_tracks_lazy_growth(self):
        mat = make_matrix()
        cache = EngineCache(64 * 2**20)
        eng = cache.get("k", lambda: FFTMatvec(mat))
        before = cache.stats().in_use_bytes
        # First apply grows the arena and caches a precision spectrum.
        eng.matvec(np.ones((mat.nt, mat.nm)))
        grown = cache.update_footprint("k")
        assert grown == engine_footprint(eng)
        assert cache.stats().in_use_bytes > before
        assert cache.stats().peak_bytes <= cache.budget_bytes
        # No growth -> charge unchanged, entry stays resident.
        assert cache.update_footprint("k") == grown
        assert "k" in cache

    def test_update_footprint_growth_evicts_peers_not_itself(self):
        # The true-up path delists the growing entry before freeing its
        # old charge, so the eviction loop can only victimize peers —
        # this is the double-free regression guard.
        mat = make_matrix()
        probe = FFTMatvec(mat)
        fresh = engine_footprint(probe)
        probe.matmat(np.ones((mat.nt, mat.nm, 8)))
        grown = engine_footprint(probe)
        assert grown > fresh
        # Fits one grown engine plus change, not grown + fresh.
        cache = EngineCache(grown + fresh // 2)
        eng = cache.get("grow", lambda: FFTMatvec(mat))
        cache.get("peer", lambda: FFTMatvec(mat))
        # Grow "grow" well past its admission size: blocked apply arena.
        eng.matmat(np.ones((mat.nt, mat.nm, 8)))
        cache.update_footprint("grow")
        assert "grow" in cache
        assert "peer" not in cache  # the peer was the eviction victim
        assert cache.keys() == ("grow",)
        assert cache.stats().peak_bytes <= cache.budget_bytes

    def test_update_footprint_unknown_key_raises(self):
        cache = EngineCache(2**20)
        with pytest.raises(ReproError):
            cache.update_footprint("ghost")

    def test_clear_returns_budget(self):
        mat = make_matrix()
        cache = EngineCache(64 * 2**20)
        cache.get("k", lambda: FFTMatvec(mat))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().in_use_bytes == 0
