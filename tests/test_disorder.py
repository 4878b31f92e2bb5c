"""Disorder sampling, energy/gradient kernels, binary persistence."""

import struct
import tracemalloc

import numpy as np
import pytest

from pspin.simulator import (
    DisorderSizeError,
    DisorderTensor,
    gradient,
    hamiltonian,
    hamiltonian_batch,
    load_disorder,
    overlap,
    project_to_sphere,
    random_configuration,
    sample_disorder,
    save_disorder,
)


class TestSampling:
    def test_deterministic_regeneration(self):
        a = sample_disorder(8, 3, seed=42)
        b = sample_disorder(8, 3, seed=42)
        assert np.array_equal(a.entries, b.entries)

    def test_seeds_differ(self):
        a = sample_disorder(8, 3, seed=1)
        b = sample_disorder(8, 3, seed=2)
        assert not np.array_equal(a.entries, b.entries)

    def test_entry_count(self):
        J = sample_disorder(5, 4, seed=0)
        assert J.entries.shape == (625,)
        assert J.tensor().shape == (5, 5, 5, 5)

    def test_moments_within_five_sigma(self):
        # n^p = 4096 samples: var of the sample variance is ~2/m
        J = sample_disorder(16, 3, seed=9)
        m = J.entries.size
        assert abs(J.entries.mean()) <= 5.0 / np.sqrt(m)
        assert 0.93 <= J.entries.var() <= 1.07

    def test_budget_error_reports_bytes(self):
        with pytest.raises(DisorderSizeError, match=str(8 * 32**4)):
            sample_disorder(32, 4, seed=0, max_entries=10**6)


class TestSphere:
    def test_random_configuration_norm(self):
        rng = np.random.default_rng(3)
        for n in (2, 17, 500):
            s = random_configuration(n, rng)
            assert s @ s == pytest.approx(n, rel=1e-12)

    def test_projection_rejects_zero(self):
        with pytest.raises(ValueError):
            project_to_sphere(np.zeros(4), 4)

    def test_overlap_normalization(self):
        rng = np.random.default_rng(4)
        s = random_configuration(32, rng)
        assert overlap(s, s) == pytest.approx(1.0, rel=1e-12)
        assert overlap(s, -s) == pytest.approx(-1.0, rel=1e-12)


class TestHamiltonian:
    def test_zero_disorder(self):
        J = DisorderTensor(4, 3, np.zeros(64), seed=None)
        s = np.array([2.0, 0.0, 0.0, 0.0])
        assert hamiltonian(J, s) == 0.0
        assert np.all(gradient(J, s) == 0.0)

    def test_single_entry_contraction(self):
        entries = np.zeros(64)
        entries[0] = 1.0  # J_{1,1,1}
        J = DisorderTensor(4, 3, entries, seed=None)
        s = np.array([2.0, 0.0, 0.0, 0.0])
        assert hamiltonian(J, s) == pytest.approx(2.0, rel=1e-15)  # 4^-1 * 2^3
        g = gradient(J, s)
        assert g[0] == pytest.approx(3.0, rel=1e-15)  # 3 * 4^-1 * 2^2
        assert np.all(g[1:] == 0.0)

    def test_p2_matrix_form(self):
        J = sample_disorder(12, 2, seed=5)
        rng = np.random.default_rng(1)
        s = random_configuration(12, rng)
        direct = s @ J.tensor() @ s / np.sqrt(12)
        assert hamiltonian(J, s) == pytest.approx(direct, rel=1e-12)

    def test_batch_matches_single(self):
        J = sample_disorder(9, 3, seed=8)
        rng = np.random.default_rng(2)
        configs = np.stack([random_configuration(9, rng) for _ in range(5)])
        hb = hamiltonian_batch(J, configs)
        for i in range(5):
            assert hb[i] == pytest.approx(hamiltonian(J, configs[i]), rel=1e-12)

    def test_kernels_match_einsum_oracle(self):
        # every kernel against the defining sum over index tuples, p = 2, 3, 4
        rng = np.random.default_rng(5)
        for p, n in ((2, 9), (3, 7), (4, 6)):
            J = sample_disorder(n, p, seed=3 + p)
            X = np.stack([random_configuration(n, rng) for _ in range(4)])
            axes = "abcd"[:p]

            def contract(free=""):
                # row r of X on every tensor axis except ``free``
                others = [c for c in axes if c != free]
                subscripts = ",".join([axes] + ["r" + c for c in others]) + "->r" + free
                return J.norm_factor * np.einsum(subscripts, J.tensor(), *[X] * len(others))

            energy = contract()
            grad = sum(contract(c) for c in axes)
            np.testing.assert_allclose(hamiltonian_batch(J, X), energy, rtol=1e-12)
            np.testing.assert_allclose(hamiltonian(J, X), energy, rtol=1e-12)
            np.testing.assert_allclose(gradient(J, X), grad, rtol=1e-12)
            for i in range(len(X)):
                assert hamiltonian(J, X[i]) == pytest.approx(energy[i], rel=1e-12)
                np.testing.assert_allclose(gradient(J, X[i]), grad[i], rtol=1e-12)

    def test_dimension_mismatch(self):
        J = sample_disorder(6, 3, seed=0)
        with pytest.raises(ValueError):
            hamiltonian(J, np.ones(5))
        with pytest.raises(ValueError):
            gradient(J, np.ones(7))
        with pytest.raises(ValueError):
            gradient(J, np.ones((2, 7)))


class TestGradient:
    def test_matches_central_differences(self):
        """20 random instances, n <= 16, p in {2,3,4}, rel error <= 1e-6."""
        rng = np.random.default_rng(11)
        for trial in range(20):
            p = (2, 3, 4)[trial % 3]
            n = int(rng.integers(4, 17))
            J = sample_disorder(n, p, seed=int(rng.integers(2**31)))
            s = random_configuration(n, rng)
            g = gradient(J, s)
            step = 1e-5
            fd = np.empty(n)
            for i in range(n):
                e = np.zeros(n)
                e[i] = step
                fd[i] = (hamiltonian(J, s + e) - hamiltonian(J, s - e)) / (2 * step)
            scale = np.max(np.abs(g))
            assert np.max(np.abs(g - fd)) / scale <= 1e-6

    def test_radial_identity(self):
        # contracting every slot against sigma makes g . sigma = p H
        J = sample_disorder(8, 4, seed=21)
        rng = np.random.default_rng(3)
        s = random_configuration(8, rng)
        assert gradient(J, s) @ s == pytest.approx(4 * hamiltonian(J, s), rel=1e-12)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        J = sample_disorder(7, 3, seed=13)
        path = tmp_path / "disorder.bin"
        save_disorder(J, str(path))
        back = load_disorder(str(path))
        assert back.n == 7 and back.p == 3 and back.seed is None
        assert np.array_equal(back.entries, J.entries)

    def test_header_layout(self, tmp_path):
        J = sample_disorder(4, 2, seed=1)
        path = tmp_path / "disorder.bin"
        save_disorder(J, str(path))
        raw = path.read_bytes()
        assert len(raw) == 16 + 8 * 16
        magic, version, n, p = struct.unpack("<4sHIH", raw[:12])
        assert magic == b"PSPN" and version == 1 and n == 4 and p == 2
        assert raw[12:16] == b"\x00" * 4
        floats = np.frombuffer(raw[16:], dtype="<f8")
        assert np.array_equal(floats, J.entries)

    def test_rejects_corrupt_files(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(ValueError, match="magic"):
            load_disorder(str(path))
        path.write_bytes(struct.pack("<4sHIH4x", b"PSPN", 1, 4, 2) + b"\x00" * 24)
        with pytest.raises(ValueError, match="expected 16 entries"):
            load_disorder(str(path))

    def test_size_checked_before_reading(self, tmp_path):
        # a header claiming 65535^16 entries must fail on the file size alone
        path = tmp_path / "huge.bin"
        path.write_bytes(struct.pack("<4sHIH4x", b"PSPN", 1, 65535, 16))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="n=65535, p=16"):
                load_disorder(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestCovarianceStructure:
    def test_pair_energy_covariance(self):
        """Empirical E[H(s)H(s')] matches n R^p at overlap 1/2 (5000 draws)."""
        n, p, draws = 10, 3, 5000
        root = np.sqrt(float(n))
        s1 = np.zeros(n)
        s1[0] = root
        s2 = np.zeros(n)
        s2[0] = 0.5 * root
        s2[1] = np.sqrt(0.75) * root
        gen = np.random.Generator(np.random.Philox(key=99))
        prods = np.empty(draws)
        for d in range(draws):
            J = DisorderTensor(n, p, gen.standard_normal(n**p), seed=None)
            prods[d] = hamiltonian(J, s1) * hamiltonian(J, s2)
        target = n * overlap(s1, s2) ** p
        z = (prods.mean() - target) / (prods.std(ddof=1) / np.sqrt(draws))
        assert abs(z) <= 4.0
