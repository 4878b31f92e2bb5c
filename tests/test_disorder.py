"""Disorder sampling, energy/gradient kernels, binary persistence."""

import copy
import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from pspin.simulator import (
    DisorderSizeError,
    DisorderTensor,
    gradient,
    hamiltonian,
    load_disorder,
    overlap,
    project_to_sphere,
    random_configuration,
    sample_disorder,
    save_disorder,
    sym_gradient,
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
        # 2^32 entries, over the budget of 2^31: raised before any draw
        with pytest.raises(DisorderSizeError, match=str(8 * 2**32)):
            sample_disorder(2**16, 2, seed=0)


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
        J = DisorderTensor(4, 3, np.zeros(64))
        s = np.array([2.0, 0.0, 0.0, 0.0])
        assert hamiltonian(J, s) == 0.0
        assert np.all(gradient(J, s) == 0.0)

    def test_single_entry_contraction(self):
        entries = np.zeros(64)
        entries[0] = 1.0  # J_{1,1,1}
        J = DisorderTensor(4, 3, entries)
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
        hb = hamiltonian(J, configs)
        for i in range(5):
            assert hb[i] == pytest.approx(hamiltonian(J, configs[i]), rel=1e-12)

    def test_row_blocks_match_one_block(self, monkeypatch):
        from pspin.simulator import disorder

        J = sample_disorder(5, 4, seed=2)
        X = np.random.default_rng(3).standard_normal((7, 5))
        kernels = (hamiltonian, sym_gradient)
        whole = [kernel(J, X) for kernel in kernels]
        monkeypatch.setattr(disorder, "_BLOCK_ENTRIES", 2 * 5**3)  # blocks of 2 rows
        for kernel, one_block in zip(kernels, whole):
            np.testing.assert_allclose(kernel(J, X), one_block, rtol=1e-13)

    def test_kernels_match_einsum_oracle(self):
        # every kernel against the defining sum over index tuples, p = 2..7,
        # odd and even n down to n = 2; sigma . g / p of the sym gradient is the energy
        rng = np.random.default_rng(5)
        for p, n in ((2, 9), (3, 7), (4, 6), (5, 5), (2, 2), (3, 2), (4, 3), (5, 2), (6, 3),
                     (7, 3)):
            J = sample_disorder(n, p, seed=3 + p)
            X = np.stack([random_configuration(n, rng) for _ in range(4)])
            stack = np.stack([random_configuration(n, rng) for _ in range(3 * 5)])  # (k * rungs, n)
            axes = "abcdefg"[:p]

            def contract(free="", X=X):
                # row r of X on every tensor axis except ``free``
                others = [c for c in axes if c != free]
                subscripts = ",".join([axes] + ["r" + c for c in others]) + "->r" + free
                return J.norm_factor * np.einsum(subscripts, J.tensor(), *[X] * len(others))

            energy = contract()
            grad = sum(contract(c) for c in axes)
            np.testing.assert_allclose(hamiltonian(J, X), energy, rtol=1e-12)
            np.testing.assert_allclose(hamiltonian(J, stack), contract(X=stack), rtol=1e-12)
            np.testing.assert_allclose(gradient(J, X), grad, rtol=1e-12)
            np.testing.assert_allclose(sym_gradient(J, X), grad, rtol=1e-12)
            sym = sym_gradient(J, stack)
            np.testing.assert_allclose(sym, sum(contract(c, X=stack) for c in axes), rtol=1e-12)
            energies = np.sum(stack * sym, axis=1) / p
            np.testing.assert_allclose(energies, hamiltonian(J, stack), rtol=1e-12)
            for i in range(len(X)):
                assert hamiltonian(J, X[i]) == pytest.approx(energy[i], rel=1e-12)
                np.testing.assert_allclose(gradient(J, X[i]), grad[i], rtol=1e-12)
                np.testing.assert_allclose(sym_gradient(J, X[i]), grad[i], rtol=1e-12)

    def test_sym_averages_the_free_slot_and_is_kept_off_the_record(self, tmp_path):
        # at p = 2 sym is (T + T^T)/2 to the bit; its build holds one n^p buffer
        # (2 MB here); built once, carried by copies, left out of equality, of
        # repr and of the file
        J = sample_disorder(5, 2, seed=2)
        assert np.array_equal(J.sym, (J.tensor() + J.tensor().T) / 2)
        big = sample_disorder(8, 6, seed=6)
        tracemalloc.start()
        try:
            big.sym
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 8 * 8**6
        for p, n in ((2, 5), (3, 4), (4, 3)):
            J = sample_disorder(n, p, seed=p)
            assert J.sym.shape == (n,) * p
            assert J.sym is J.sym
        clone = copy.deepcopy(J)
        assert "sym" in vars(clone) and clone.sym is not J.sym
        assert np.array_equal(clone.sym, J.sym)
        assert "sym" not in repr(J)
        path = tmp_path / "disorder.bin"
        save_disorder(J, str(path))
        assert path.stat().st_size == 16 + 8 * J.n**J.p
        loaded = load_disorder(str(path))
        assert "sym" not in vars(loaded)
        assert np.array_equal(loaded.entries, J.entries)

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

    def test_reads_the_couplings_in_place(self):
        # a one-row gradient holds a few n^(p-1) intermediates, never a copy of
        # the n^p couplings (2.65 MB here)
        J = sample_disorder(24, 4, seed=6)
        s = random_configuration(24, np.random.default_rng(7))
        gradient(J, s)
        tracemalloc.start()
        try:
            gradient(J, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * 24**3

    def test_prefix_replaces_the_second_read(self):
        J = sample_disorder(6, 3, seed=14)
        X = np.stack([random_configuration(6, np.random.default_rng(i)) for i in range(4)])
        prefix = X @ J.entries.reshape(6, -1)
        np.testing.assert_allclose(gradient(J, X, prefix=prefix), gradient(J, X), rtol=1e-13)
        # a zero prefix leaves slot 0's term alone, which holds H once where g holds it p times
        alone = gradient(J, X, prefix=np.zeros_like(prefix))
        np.testing.assert_allclose((alone * X).sum(axis=1), hamiltonian(J, X), rtol=1e-12)
        with pytest.raises(ValueError, match="prefix"):
            gradient(J, X, prefix=prefix[:3])

    def test_last_receives_the_last_slot_product(self):
        # the ground-state search keeps it for its Newton steps; at p = 2 the gradient's
        # slot-0 term is that product itself, so summing into it in place would change ``last``
        rng = np.random.default_rng(8)
        for p, n in ((2, 6), (3, 6), (4, 5)):
            J = sample_disorder(n, p, seed=30 + p)
            X = np.stack([random_configuration(n, rng) for _ in range(5)])
            T = J.entries.reshape(n, -1)
            last = np.full((5, n ** (p - 1)), np.nan)
            g = gradient(J, X, prefix=X @ T, last=last)
            assert np.array_equal(last, X @ T.reshape(-1, n).T)
            np.testing.assert_allclose(g, gradient(J, X), rtol=1e-13)

    def test_p2_gradient_is_the_two_matrix_products(self):
        # slot 0's term is X @ T.T and slot 1's X @ T, summed in that order: the p = 2
        # search's arithmetic, bit for bit
        J = sample_disorder(7, 2, seed=4)
        X = np.stack([random_configuration(7, np.random.default_rng(i)) for i in range(3)])
        T = J.tensor()
        assert np.array_equal(gradient(J, X), J.norm_factor * (X @ T.T + X @ T))

    def test_radial_identity(self):
        # contracting every slot against sigma makes g . sigma = p H
        J = sample_disorder(8, 4, seed=21)
        rng = np.random.default_rng(3)
        s = random_configuration(8, rng)
        assert gradient(J, s) @ s == pytest.approx(4 * hamiltonian(J, s), rel=1e-12)


class TestRowBlocks:
    def test_one_patch_splits_every_loop(self, monkeypatch):
        # the kernels, the search's chunks and the covariance draws all take their blocks
        # from disorder._BLOCK_ENTRIES; each split run matches its one-block run
        from pspin.simulator import covariance_check, disorder, ground_state, ground_state_search

        J = sample_disorder(8, 3, seed=9)  # 64 entries a row in the kernels and the search
        X = np.random.default_rng(4).standard_normal((7, 8))
        root = np.sqrt(4.0)
        pairs = [(root * np.eye(4)[0], root * np.eye(4)[1]), (root * np.eye(4)[0],) * 2]

        def run():
            return ([kernel(J, X) for kernel in (hamiltonian, sym_gradient)],
                    ground_state_search(J, restarts=7, tol=1e-9, seed=3),
                    covariance_check(4, 3, pairs, draws=1000, seed=5))  # 64 couplings a draw

        kernels_whole, search_whole, cov_whole = run()
        tails, chunks, draws = [], [], []
        contract_tail, ascend = disorder._contract_tail, ground_state._ascend
        make = np.random.Generator

        def tail(t, x, slots):
            tails.append(len(x))
            return contract_tail(t, x, slots)

        def counted(J, sigma, *args):
            chunks.append(len(sigma))
            return ascend(J, sigma, *args)

        class Recording:
            def __init__(self, bits):
                self.gen = make(bits)

            def standard_normal(self, size):
                draws.append(size[0])
                return self.gen.standard_normal(size)

        monkeypatch.setattr(disorder, "_contract_tail", tail)
        monkeypatch.setattr(ground_state, "_ascend", counted)
        monkeypatch.setattr(np.random, "Generator", Recording)
        monkeypatch.setattr(disorder, "_BLOCK_ENTRIES", 4 * 64)  # the one patch
        kernels_split, search_split, cov_split = run()

        assert tails[:4] == [4, 3, 4, 3]  # hamiltonian, sym_gradient; the search's gradients follow
        assert chunks == [4, 3]
        assert draws == [4] * 250
        for split, whole in zip(kernels_split, kernels_whole):
            np.testing.assert_allclose(split, whole, rtol=1e-13)
        assert search_split.restart_stop_reasons == search_whole.restart_stop_reasons
        np.testing.assert_allclose(search_split.restart_energies, search_whole.restart_energies,
                                   rtol=0, atol=1e-12)
        for rs, rw in zip(cov_split, cov_whole):
            assert rs.estimate == pytest.approx(rw.estimate, rel=1e-12)
            assert rs.stderr == pytest.approx(rw.stderr, rel=1e-12)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        J = sample_disorder(7, 3, seed=13)
        path = tmp_path / "disorder.bin"
        save_disorder(J, str(path))
        back = load_disorder(str(path))
        assert back.n == 7 and back.p == 3
        assert np.array_equal(back.entries, J.entries)
        assert back.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()

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

    @pytest.mark.parametrize("n, p", [(1, 3), (5, 0), (0, 2), (4, 1)])
    def test_rejects_degenerate_header(self, tmp_path, n, p):
        # a one-spin file once loaded, and a p=0 file loaded and failed in hamiltonian
        path = tmp_path / "small.bin"
        path.write_bytes(struct.pack("<4sHIH4x", b"PSPN", 1, n, p) + b"\x00" * (8 * n**p))
        with pytest.raises(ValueError, match=f"n={n}, p={p}; both must be >= 2"):
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

    def test_header_over_the_budget_fails_before_the_size_check(self, tmp_path):
        # (2^32 - 1)^65535 would take 0.27 s to build and overflow int-to-str conversion
        path = tmp_path / "vast.bin"
        path.write_bytes(struct.pack("<4sHIH4x", b"PSPN", 1, 2**32 - 1, 65535) + bytes(64))
        with pytest.raises(DisorderSizeError, match="n=4294967295, p=65535") as err:
            load_disorder(str(path))
        assert str(err.value).startswith(f"{path}: ") and len(str(err.value)) < 300

    def test_one_copy_of_the_couplings(self, tmp_path):
        J = sample_disorder(32, 4, seed=6)  # 8 MiB of couplings, held before tracing
        path = str(tmp_path / "J.bin")
        tracemalloc.start()
        try:
            save_disorder(J, path)
            save_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            loaded = load_disorder(path)
            load_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.entries, J.entries)
        assert save_peak <= 2**20  # beyond the couplings already held
        assert load_peak <= 1.1 * J.entries.nbytes


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
            J = DisorderTensor(n, p, gen.standard_normal(n**p))
            prods[d] = hamiltonian(J, s1) * hamiltonian(J, s2)
        target = n * overlap(s1, s2) ** p
        z = (prods.mean() - target) / (prods.std(ddof=1) / np.sqrt(draws))
        assert abs(z) <= 4.0
