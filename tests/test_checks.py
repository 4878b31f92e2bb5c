"""Covariance and gradient verification harnesses."""

import numpy as np
import pytest

from pspin.simulator import DisorderSizeError, checks, covariance_check, disorder, gradient_fd_check


def exact_pairs(n):
    root = np.sqrt(float(n))
    e1 = np.zeros(n)
    e1[0] = root
    e2 = np.zeros(n)
    e2[1] = root
    half = np.zeros(n)
    half[0] = 0.5 * root
    half[1] = np.sqrt(0.75) * root
    return [(e1, e2), (e1, half), (e1, e1)]


class TestCovarianceCheck:
    def test_targets_and_zscores(self):
        rows = covariance_check(16, 3, exact_pairs(16), draws=20_000, seed=12)
        assert [round(r.r_overlap, 12) for r in rows] == [0.0, 0.5, 1.0]
        assert rows[0].target == 0.0
        assert rows[1].target == pytest.approx(2.0, rel=1e-12)
        assert rows[2].target == pytest.approx(16.0, rel=1e-12)
        for r in rows:
            assert abs(r.z) <= 4.0

    def test_deterministic_in_seed(self):
        pairs = exact_pairs(8)
        a = covariance_check(8, 3, pairs, draws=2000, seed=5)
        b = covariance_check(8, 3, pairs, draws=2000, seed=5)
        assert [r.estimate for r in a] == [r.estimate for r in b]

    def test_block_size_does_not_change_estimates(self, monkeypatch):
        # the blocks drawn are recorded, so a check that ignored its block size would fail
        shapes, make = [], np.random.Generator

        class Recording:
            def __init__(self, bits):
                self.gen = make(bits)

            def standard_normal(self, size):
                shapes.append(size)
                return self.gen.standard_normal(size)

        monkeypatch.setattr(np.random, "Generator", Recording)
        pairs = exact_pairs(8)
        monkeypatch.setattr(disorder, "_BLOCK_ENTRIES", 512 * 8**3)
        a = covariance_check(8, 3, pairs, draws=3000, seed=5)
        assert shapes == [(512, 512)] * 5 + [(440, 512)]
        shapes.clear()
        monkeypatch.setattr(disorder, "_BLOCK_ENTRIES", 3000 * 8**3)
        b = covariance_check(8, 3, pairs, draws=3000, seed=5)
        assert shapes == [(3000, 512)]
        for ra, rb in zip(a, b):
            assert ra.estimate == pytest.approx(rb.estimate, rel=1e-12)

    def test_capped_blocks_match_one_block(self, monkeypatch):
        # n^p = 4096: 2000 draws in one block would be 8.2M couplings
        pairs = exact_pairs(16)
        capped = covariance_check(16, 3, pairs, draws=2000, seed=5)
        monkeypatch.setattr(disorder, "_BLOCK_ENTRIES", 2000 * 16**3)
        whole = covariance_check(16, 3, pairs, draws=2000, seed=5)
        for rc, rw in zip(capped, whole):
            assert rc.estimate == pytest.approx(rw.estimate, rel=1e-12)
            assert rc.stderr == pytest.approx(rw.stderr, rel=1e-12)

    def test_budget_checked_before_anything_is_built(self, monkeypatch):
        # 2^32 entries: the Khatri-Rao block of the six configurations would take 192 GiB
        def built(*args):
            raise AssertionError("_kr_power called past the entry budget")

        monkeypatch.setattr(checks, "_kr_power", built)
        with pytest.raises(DisorderSizeError, match="n=2, p=32"):
            covariance_check(2, 32, exact_pairs(2), draws=1000)

    def test_rejects_tiny_draw_count(self):
        with pytest.raises(ValueError):
            covariance_check(8, 3, exact_pairs(8), draws=10)


class TestGradientCheck:
    def test_all_trials_small(self):
        rows = gradient_fd_check(trials=9, seed=3)
        assert len(rows) == 9
        assert {r.p for r in rows} == {2, 3, 4}
        for r in rows:
            assert r.rel_error <= 1e-6

    def test_deterministic(self):
        a = gradient_fd_check(trials=4, seed=8)
        b = gradient_fd_check(trials=4, seed=8)
        assert [r.rel_error for r in a] == [r.rel_error for r in b]
