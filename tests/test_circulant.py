"""Tests of the compressed-matrix module.

The load-bearing checks pair each implementation route with an independent
oracle: the real transform against a direct O(n^2) DFT, and the spectral
matvec against plain dense multiplication over a loop-expanded matrix and
against the per-block route over full complex spectra (``spectral_oracle``).
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circgnn import (
    BlockCirculantMatrix,
    InternalConsistencyError,
    SchemaError,
    bc_matvec,
    compression_stats,
    fft,
    new_random,
    op_counts,
    precompute_spectral,
    project_to_block_circulant,
    reset_op_counts,
    to_dense,
)
from circgnn.circulant import require_power_of_two
from spectral_oracle import bc_matvec_per_block

# --- oracles ----------------------------------------------------------------


def dft_oracle(x, inverse=False):
    """Direct O(n^2) discrete Fourier transform."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.size
    k = np.arange(n)
    sign = 2j if inverse else -2j
    mat = np.exp(sign * np.pi * np.outer(k, k) / n)
    y = mat @ x
    return y / n if inverse else y


def dense_oracle(vectors, rows, cols, n):
    """Expand defining vectors to a dense matrix with explicit loops."""
    p, q = vectors.shape[0], vectors.shape[1]
    full = np.zeros((p * n, q * n))
    for i in range(p):
        for j in range(q):
            for a in range(n):
                for b in range(n):
                    full[i * n + a, j * n + b] = vectors[i, j, (a - b) % n]
    return full[:rows, :cols]


# --- transforms ---------------------------------------------------------------


class TestFft:
    def test_unit_impulse_is_flat(self):
        assert np.allclose(fft([1, 0, 0, 0]), np.ones(3))

    def test_frozen_four_point_example(self):
        got = fft([1, 2, 3, 4])
        assert np.allclose(got, [10, -2 + 2j, -2], atol=1e-12)
        assert np.allclose(got, dft_oracle([1, 2, 3, 4])[:3], atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 64, 128, 256])
    def test_matches_direct_dft(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n)
        assert np.max(np.abs(fft(x) - dft_oracle(x)[: n // 2 + 1])) < 1e-9
        # a half spectrum, and the conjugate-symmetric full spectrum it stands for
        half = rng.normal(size=n // 2 + 1) + 1j * rng.normal(size=n // 2 + 1)
        half[[0, -1]] = half[[0, -1]].real
        full = np.concatenate([half, np.conj(half[1 : (n + 1) // 2][::-1])])
        assert np.max(np.abs(fft(half, inverse=True) - dft_oracle(full, inverse=True))) < 1e-9

    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=64)
        assert np.max(np.abs(fft(fft(x), inverse=True) - x)) < 1e-12

    def test_batched_axes(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 5, 16))
        got = fft(x)
        for i in range(3):
            for j in range(5):
                assert np.allclose(got[i, j], dft_oracle(x[i, j])[:9], atol=1e-9)

    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("n", [2, 16, 128])
    @pytest.mark.parametrize("lead", [(1,), (7,), (4001,), (3, 7), (2, 2003)])
    def test_rows_bit_identical_batched_and_alone(self, lead, n, inverse):
        rng = np.random.default_rng(n)
        bins = n // 2 + 1
        if inverse:
            x = rng.normal(size=lead + (bins,)) + 1j * rng.normal(size=lead + (bins,))
        else:
            x = rng.normal(size=lead + (n,))
        got = fft(x, inverse=inverse).reshape(-1, n if inverse else bins)
        for row, alone in zip(x.reshape(-1, x.shape[-1]), got):
            assert np.array_equal(fft(row, inverse=inverse), alone)

    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 16, 128])
    @pytest.mark.parametrize("shape", [(), (5,), (2, 3)])
    def test_counts_charge_the_radix2_model(self, shape, n, inverse):
        # complex multiplies per row: an n/2-point radix-2 complex transform,
        # (n/4) log2(n/2), plus n/4 split twiddles
        per_row = {1: 0, 2: 0, 16: 16, 128: 224}[n]
        rows = int(np.prod(shape))
        reset_op_counts()
        fft(np.ones(shape + (n // 2 + 1 if inverse else n,)), inverse=inverse)
        counts = op_counts()
        assert (counts.fft_calls, counts.ifft_calls) == ((0, rows) if inverse else (rows, 0))
        assert counts.multiplies == rows * per_row

    def test_rejects_non_power_of_two(self):
        with pytest.raises(SchemaError):
            fft([1.0, 2.0, 3.0])
        with pytest.raises(SchemaError):  # 4 bins are the half spectrum of n = 6
            fft(np.ones(4), inverse=True)

    def test_real_input_spectrum_is_conjugate_symmetric(self):
        # the half spectrum and its conjugates make up the full transform
        rng = np.random.default_rng(5)
        x = rng.normal(size=32)
        spec = fft(x)
        full = np.concatenate([spec, np.conj(spec[1:16][::-1])])
        assert np.allclose(full, dft_oracle(x), atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(6)
        a, b = rng.normal(size=16), rng.normal(size=16)
        assert np.allclose(fft(2.5 * a - b), 2.5 * fft(a) - fft(b), atol=1e-12)


# --- expansion, construction, projection -------------------------------------


class TestDenseExpansion:
    def test_two_by_two_block(self):
        w = BlockCirculantMatrix(2, 2, 2, np.array([[[1.0, 2.0]]]))
        assert np.array_equal(to_dense(w), [[1.0, 2.0], [2.0, 1.0]])

    def test_four_point_first_column_convention(self):
        vec = np.array([[[1.0, 2.0, 3.0, 4.0]]])
        w = BlockCirculantMatrix(4, 4, 4, vec)
        dense = to_dense(w)
        # column 0 is the defining vector, column 1 its downward rotation
        assert np.array_equal(dense[:, 0], [1, 2, 3, 4])
        assert np.array_equal(dense[:, 1], [4, 1, 2, 3])

    def test_matches_loop_oracle_with_padding(self):
        w = new_random(10, 7, 4, seed=0)
        assert np.array_equal(to_dense(w), dense_oracle(w.defining_vectors, 10, 7, 4))

    def test_block_grid_shape(self):
        w = new_random(512, 512, 128, seed=1)
        assert (w.p, w.q) == (4, 4)
        assert w.defining_vectors.size == 2048
        w2 = new_random(100, 70, 32, seed=1)
        assert (w2.p, w2.q) == (4, 3)

    def test_identity_defining_vector(self):
        vecs = np.zeros((1, 1, 8))
        vecs[0, 0, 0] = 1.0
        w = BlockCirculantMatrix(8, 8, 8, vecs)
        assert np.array_equal(to_dense(w), np.eye(8))

    def test_bad_defining_shape_rejected(self):
        with pytest.raises(SchemaError):
            BlockCirculantMatrix(8, 8, 4, np.zeros((1, 1, 4)))

    def test_non_power_of_two_block_rejected(self):
        with pytest.raises(SchemaError):
            BlockCirculantMatrix(6, 6, 3, np.zeros((2, 2, 3)))


@pytest.mark.parametrize(
    "value,least,ok",
    [(1, 1, True), (64, 2, True), (1, 2, False), (0, 1, False), (-8, 1, False), (6, 1, False)],
)
def test_require_power_of_two(value, least, ok):
    if ok:
        require_power_of_two(value, least)
    else:
        with pytest.raises(SchemaError, match=f"block size must be a power of two >= {least}"):
            require_power_of_two(value, least)


class TestNewRandom:
    def test_bounds_scale_with_input_dim(self):
        w = new_random(64, 64, 8, seed=9)
        assert np.max(np.abs(w.defining_vectors)) <= 1 / np.sqrt(64)

    def test_deterministic(self):
        a = new_random(16, 16, 4, seed=5)
        b = new_random(16, 16, 4, seed=5)
        assert np.array_equal(a.defining_vectors, b.defining_vectors)


class TestProjection:
    def test_frozen_two_by_two_example(self):
        got = project_to_block_circulant(np.array([[1.0, 2.0], [4.0, 1.0]]), 2)
        assert np.allclose(got.defining_vectors, [[[1.0, 3.0]]])

    def test_diagonal_means_oracle(self):
        rng = np.random.default_rng(11)
        dense = rng.normal(size=(8, 8))
        got = project_to_block_circulant(dense, 4)
        for i in range(2):
            for j in range(2):
                block = dense[i * 4 : (i + 1) * 4, j * 4 : (j + 1) * 4]
                for k in range(4):
                    members = [block[a, b] for a in range(4) for b in range(4)
                               if (a - b) % 4 == k]
                    assert got.defining_vectors[i, j, k] == pytest.approx(
                        np.mean(members), abs=1e-12
                    )

    def test_idempotent_on_circulant_input(self):
        w = new_random(16, 16, 8, seed=2)
        again = project_to_block_circulant(to_dense(w), 8)
        assert np.max(np.abs(again.defining_vectors - w.defining_vectors)) < 1e-12

    def test_least_squares_optimality(self):
        # the projection must beat every perturbed candidate in Frobenius norm
        rng = np.random.default_rng(12)
        dense = rng.normal(size=(8, 8))
        proj = project_to_block_circulant(dense, 8)
        base = np.linalg.norm(to_dense(proj) - dense)
        for trial in range(200):
            bumped = proj.defining_vectors + rng.normal(scale=1e-3, size=(1, 1, 8))
            candidate = to_dense(BlockCirculantMatrix(8, 8, 8, bumped))
            assert np.linalg.norm(candidate - dense) >= base

    def test_padded_region_excluded_from_means(self):
        # 3x3 matrix, block 2: ragged blocks average only real entries
        dense = np.arange(9, dtype=float).reshape(3, 3)
        got = project_to_block_circulant(dense, 2)
        # top-right block holds only column [2, 5]; diagonal class 0 is {2},
        # class 1 is {5}, no padded zeros mixed in
        assert got.defining_vectors[0, 1, 0] == pytest.approx(2.0)
        assert got.defining_vectors[0, 1, 1] == pytest.approx(5.0)
        # bottom-right block has the lone valid entry 8 in class 0
        assert got.defining_vectors[1, 1, 0] == pytest.approx(8.0)
        assert got.defining_vectors[1, 1, 1] == 0.0

    @pytest.mark.parametrize("shape, n", [((5, 7), 4), ((13, 6), 8), ((3, 17), 2), ((9, 9), 16)])
    def test_ragged_shapes_match_brute_force_diagonal_means(self, shape, n):
        rng = np.random.default_rng(sum(shape) + n)
        dense = rng.normal(size=shape)
        got = project_to_block_circulant(dense, n).defining_vectors
        want = np.zeros_like(got)
        for i, j, k in np.ndindex(*want.shape):
            members = [dense[r, c] for r in range(i * n, min((i + 1) * n, shape[0]))
                       for c in range(j * n, min((j + 1) * n, shape[1])) if (r - c) % n == k]
            want[i, j, k] = np.mean(members) if members else 0.0
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_cost_does_not_grow_with_the_cube_of_the_block_size(self):
        dense = np.random.default_rng(3).normal(size=(4, 4))
        started = time.perf_counter()
        got = project_to_block_circulant(dense, 1024).defining_vectors[0, 0]
        assert time.perf_counter() - started < 0.5
        # classes 0..3 are the diagonal and subdiagonals, 1021..1023 the superdiagonals
        for k in range(-3, 4):
            assert got[k % 1024] == pytest.approx(np.mean(np.diagonal(dense, -k)), abs=1e-15)
        assert not got[4:1021].any()


# --- the spectral matvec path -------------------------------------------------


class TestBcMatvec:
    def test_frozen_two_by_two_example(self):
        w = BlockCirculantMatrix(2, 2, 2, np.array([[[1.0, 2.0]]]))
        assert np.allclose(bc_matvec(w, [3.0, 4.0]), [11.0, 10.0])

    def test_identity_weight_is_identity(self):
        vecs = np.zeros((2, 2, 4))
        vecs[0, 0, 0] = 1.0
        vecs[1, 1, 0] = 1.0
        w = BlockCirculantMatrix(8, 8, 4, vecs)
        x = np.arange(8, dtype=float)
        assert np.max(np.abs(bc_matvec(w, x) - x)) < 1e-12

    def test_large_divisible_case_vs_dense(self):
        rng = np.random.default_rng(21)
        w = new_random(512, 512, 128, seed=21)
        h = rng.normal(size=512)
        ref = dense_oracle(w.defining_vectors, 512, 512, 128) @ h
        assert np.max(np.abs(bc_matvec(w, h) - ref)) < 1e-9

    @pytest.mark.parametrize(
        "rows,cols,n", [(100, 70, 32), (5, 3, 8), (33, 47, 4), (4, 512, 2), (7, 7, 16)]
    )
    def test_ragged_cases_vs_dense(self, rows, cols, n):
        rng = np.random.default_rng(rows * cols + n)
        w = new_random(rows, cols, n, seed=rows + n)
        h = rng.normal(size=cols)
        ref = dense_oracle(w.defining_vectors, rows, cols, n) @ h
        assert np.max(np.abs(bc_matvec(w, h) - ref)) < 1e-9

    @given(
        rows=st.integers(1, 40),
        cols=st.integers(1, 40),
        log_n=st.integers(1, 4),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60)
    def test_property_matches_dense(self, rows, cols, log_n, seed):
        n = 1 << log_n
        w = new_random(rows, cols, n, seed=seed)
        rng = np.random.default_rng(seed + 1)
        h = rng.normal(size=cols)
        ref = to_dense(w) @ h
        assert np.max(np.abs(bc_matvec(w, h) - ref)) < 1e-9

    def test_linearity(self):
        w = new_random(24, 16, 8, seed=3)
        rng = np.random.default_rng(31)
        a, b = rng.normal(size=16), rng.normal(size=16)
        lhs = bc_matvec(w, 2.0 * a - 3.0 * b)
        rhs = 2.0 * bc_matvec(w, a) - 3.0 * bc_matvec(w, b)
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_wrong_input_length_rejected(self):
        w = new_random(8, 8, 4, seed=0)
        with pytest.raises(SchemaError):
            bc_matvec(w, np.zeros(9))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_trips_consistency_check(self, bad):
        w = new_random(8, 8, 4, seed=5)
        h = np.arange(8, dtype=float)
        h[3] = bad
        with pytest.raises(InternalConsistencyError):
            bc_matvec(w, h)

    def test_spectral_accumulation_equals_per_block_route(self):
        rng = np.random.default_rng(41)
        w = new_random(96, 80, 16, seed=41)
        h = rng.normal(size=80)
        a = bc_matvec(w, h)
        b = bc_matvec_per_block(w, h)
        assert np.max(np.abs(a - b)) < 1e-9

    def test_ifft_call_counts_p_vs_pq(self):
        w = new_random(96, 80, 16, seed=42)
        w.spectral()
        h = np.ones(80)
        reset_op_counts()
        bc_matvec(w, h)
        assert op_counts().ifft_calls == w.p
        reset_op_counts()
        bc_matvec_per_block(w, h)
        assert op_counts().ifft_calls == w.p * w.q

    def test_batch_of_rows_counts_and_rows(self):
        # B rows: B*q forward and B*p inverse transforms in one call, and
        # each row bit-identical to its own single-vector product
        w = new_random(96, 80, 16, seed=43)
        w.spectral()
        h = np.random.default_rng(43).normal(size=(5, 80))
        reset_op_counts()
        got = bc_matvec(w, h)
        counts = op_counts()
        assert (counts.matvec_calls, counts.fft_calls, counts.ifft_calls) == (
            1, 5 * w.q, 5 * w.p
        )
        # 16 multiplies per 16-point real transform, q*p products at each of 9 bins
        assert counts.multiplies == 5 * (w.q * 16 + 9 * w.q * w.p + w.p * 16)
        assert got.shape == (5, 96)
        assert np.max(np.abs(got - h @ to_dense(w).T)) < 1e-9
        for row, x in zip(got, h):
            assert np.array_equal(row, bc_matvec(w, x))

    def test_spectra_stored_once_frequency_major(self):
        w = new_random(24, 40, 8, seed=44)
        bins = w.spectral()
        assert bins.shape == (5, 5, 3)  # n/2 + 1 half-spectrum bins, q, p
        assert w.spectral() is bins
        assert np.array_equal(precompute_spectral(w), bins)
        assert np.allclose(bins.transpose(2, 1, 0), np.fft.rfft(w.defining_vectors), atol=1e-12)


# --- compression ratios -------------------------------------------------------


class TestCompressionStats:
    @pytest.mark.parametrize(
        "n,tcr", [(16, 4.0), (32, 6.4), (64, 10.7), (128, 18.3)]
    )
    def test_published_ratio_table(self, n, tcr):
        stats = compression_stats(512, 512, n)
        assert stats.theoretical_compute_reduction == pytest.approx(tcr, abs=0.05)
        assert stats.storage_reduction == float(n)

    def test_exact_128_value(self):
        assert compression_stats(512, 512, 128).theoretical_compute_reduction == pytest.approx(
            128 / 7, abs=1e-12
        )

    def test_block_one_is_identity_compression(self):
        stats = compression_stats(100, 60, 1)
        assert stats.theoretical_compute_reduction == 1.0
        assert stats.storage_reduction == 1.0
        assert stats.stored_reals == stats.dense_reals == 6000

    def test_storage_is_exactly_one_over_n_when_divisible(self):
        w = new_random(512, 512, 128, seed=0)
        assert w.defining_vectors.size * 128 == 512 * 512
        stats = compression_stats(512, 512, 128)
        assert stats.stored_reals * 128 == stats.dense_reals
