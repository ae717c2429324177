"""Block-circulant weight matrices with a spectral (FFT) multiply path.

A rows x cols weight matrix is partitioned into p x q square blocks of size
n (p = ceil(rows / n), q = ceil(cols / n); the ragged remainder is padded).
Each block is generated by a single length-n defining vector w, expanded as

    Block[a, b] = w[(a - b) % n]

so column 0 of the block is w itself and every later column is the previous
one rotated down one step.  Under this convention a block times a vector is
the circular convolution w (*) x, hence

    Block @ x == ifft(fft(w) * fft(x))

exactly, which is the identity the whole multiply path rests on.  Storage
drops by a factor of n; multiplies drop by roughly n / log2(n).

Weights and inputs are real, so every spectrum is conjugate symmetric and
its first n/2 + 1 bins determine it: transforms are real-input ones
(``fft`` returns half spectra and inverts them back to real rows), and the
products run over those n/2 + 1 bins only.  The matvec over the full block
matrix accumulates the per-block spectral products first and runs a single
inverse transform per block row (p inverse transforms total instead of
p * q).  ``bc_matvec`` is the one multiply; the tests keep an unoptimized
per-block route over full complex spectra as its independent oracle.

A matrix transforms its defining vectors once, on first use, and caches
the half spectra frequency-major (``BlockCirculantMatrix.spectral()``,
shape (n/2 + 1, q, p)).  ``bc_matvec`` multiplies one vector or a batch of
rows: transforms run batched, and each output row is bit-identical whatever
other rows share the batch.

Every size rule on a block size, a pack size or a transform length is
``require_power_of_two``.

Every transform goes through ``fft``, which runs numpy's pocketfft and
counts the work in the radix-2 model: ``op_counts()`` exposes transform-call
and complex-multiply counters used by the equivalence and operation-count
tests.  Counters are process-global and not thread-safe; they are
diagnostics, not results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InternalConsistencyError, SchemaError

# Largest block size to project: the diagonal counts take p * q * n entries.
MAX_BLOCK_SIZE = 2**16

@dataclass
class OpCounts:
    """Work counters: transform calls count individual length-n transforms."""

    fft_calls: int = 0
    ifft_calls: int = 0
    multiplies: int = 0  # complex multiplies: radix-2 butterflies plus spectral products
    matvec_calls: int = 0


_counts = OpCounts()


def reset_op_counts() -> None:
    global _counts
    _counts = OpCounts()


def op_counts() -> OpCounts:
    """Snapshot of the counters accumulated since the last reset."""
    return replace(_counts)


def require_power_of_two(value: int, least: int, what: str = "block size") -> None:
    """Raise SchemaError unless ``value`` is a power of two no smaller than ``least`` (>= 1)."""
    if value < least or value & (value - 1):
        raise SchemaError(f"{what} must be a power of two >= {least}, got {value}")


def fft(x, inverse: bool = False) -> np.ndarray:
    """Real-input transform along the last axis; lengths must be powers of two.

    Forward, a real row of length n gives its first n/2 + 1 bins, the half
    spectrum (``np.fft.rfft``); the other bins are their conjugates.
    inverse=True takes n/2 + 1 bins (one bin: n = 1) and returns the real
    length-n row, with the 1/n scale (``np.fft.irfft``).  Leading axes are
    treated as a batch and each batch row counts as one transform call.  The
    work runs on numpy's pocketfft, which transforms every row independently
    of the others, but the counters charge the radix-2 model of a real
    transform, one n/2-point complex transform plus n/4 split twiddles:
    (n/4) log2 n complex multiplies per row.
    """
    if inverse:
        a = np.asarray(x, dtype=np.complex128)
        n = 2 * (a.shape[-1] - 1) or 1
    else:
        a = np.asarray(x, dtype=np.float64)
        n = a.shape[-1]
    require_power_of_two(n, 1, "transform length")
    batch = a.size // a.shape[-1]
    if inverse:
        _counts.ifft_calls += batch
    else:
        _counts.fft_calls += batch
    _counts.multiplies += batch * (n // 4) * (n.bit_length() - 1)
    return np.fft.irfft(a, n) if inverse else np.fft.rfft(a)


def block_counts(rows: int, cols: int, block_size: int) -> tuple[int, int]:
    """(p, q): block rows and block columns of a rows x cols matrix, ragged edges padded."""
    return -(-rows // block_size), -(-cols // block_size)


@dataclass
class BlockCirculantMatrix:
    """Compressed rows x cols matrix: one defining vector per n x n block."""

    rows: int
    cols: int
    block_size: int
    defining_vectors: np.ndarray  # shape (p, q, block_size)
    _spectral: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise SchemaError("matrix dimensions must be positive")
        require_power_of_two(self.block_size, 2)
        self.defining_vectors = np.asarray(self.defining_vectors, dtype=np.float64)
        p, q = block_counts(self.rows, self.cols, self.block_size)
        if self.defining_vectors.shape != (p, q, self.block_size):
            raise SchemaError(
                f"defining vectors must have shape {(p, q, self.block_size)}, "
                f"got {self.defining_vectors.shape}"
            )

    @property
    def p(self) -> int:
        return self.defining_vectors.shape[0]

    @property
    def q(self) -> int:
        return self.defining_vectors.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def spectral(self) -> np.ndarray:
        """Cached half spectra, shape (n/2 + 1, q, p): [f, j, i] is block (i, j) at bin f."""
        if self._spectral is None:
            self._spectral = precompute_spectral(self)
        return self._spectral


def new_random(rows: int, cols: int, block_size: int, seed: int) -> BlockCirculantMatrix:
    """Random compressed matrix with entries uniform in [-1/sqrt(cols), 1/sqrt(cols)]."""
    p, q = block_counts(rows, cols, block_size)
    rng = np.random.default_rng(seed)
    bound = 1.0 / math.sqrt(cols)
    vecs = rng.uniform(-bound, bound, size=(p, q, block_size))
    return BlockCirculantMatrix(rows, cols, block_size, vecs)


def precompute_spectral(w: BlockCirculantMatrix) -> np.ndarray:
    """Transform every defining vector once: p*q transforms, frequency-major (n/2 + 1, q, p)."""
    return np.ascontiguousarray(fft(w.defining_vectors).transpose(2, 1, 0))


def _pad_input(w: BlockCirculantMatrix, h) -> np.ndarray:
    h = np.asarray(h, dtype=np.float64)
    if h.ndim not in (1, 2) or h.shape[-1] != w.cols:
        raise SchemaError(f"input has shape {h.shape}, weight expects ({w.cols},) or (B, {w.cols})")
    if not np.isfinite(h).all():  # before any transform turns it into a warning
        raise InternalConsistencyError("spectral matvec: non-finite input value")
    n, q = w.block_size, w.q
    padded = np.zeros(h.shape[:-1] + (q * n,))
    padded[..., : w.cols] = h
    return padded.reshape(h.shape[:-1] + (q, n))


def bc_matvec(w: BlockCirculantMatrix, h) -> np.ndarray:
    """Multiply a compressed matrix by a real vector or each row of a (B, cols) batch.

    Each input is zero-padded to q*n, transformed once per block column, and
    the per-block products with the matrix's cached half spectra are summed
    in the frequency domain over the n/2 + 1 bins, so only one inverse
    transform runs per block row: B*q forward and B*p inverse transforms in
    all.  The result is truncated back to ``rows`` entries per input.
    """
    _counts.matvec_calls += 1
    n, p = w.block_size, w.p
    spectrum = fft(_pad_input(w, h))  # (..., q, n/2 + 1)
    # one (1 x q) @ (q x p) product per (row, bin), never a gemm across rows,
    # whose rounding would depend on which rows share the batch
    by_bin = np.ascontiguousarray(np.swapaxes(spectrum, -1, -2))[..., None, :]
    acc = np.matmul(by_bin, w.spectral())[..., 0, :]  # (..., n/2 + 1, p)
    _counts.multiplies += spectrum.size * p
    out = fft(np.swapaxes(acc, -1, -2), inverse=True)  # (..., p, n)
    return out.reshape(out.shape[:-2] + (p * n,))[..., : w.rows]


def to_dense(w: BlockCirculantMatrix) -> np.ndarray:
    """Expand to the equivalent dense matrix, dropping padded rows and columns."""
    n = w.block_size
    # entry (r, c) lies in block (r // n, c // n) on wrapped diagonal (r - c) % n
    r, c = np.arange(w.rows)[:, None], np.arange(w.cols)[None, :]
    return w.defining_vectors[r // n, c // n, (r - c) % n]


def project_to_block_circulant(dense, block_size: int) -> BlockCirculantMatrix:
    """Least-squares projection of a dense matrix onto block-circulant form.

    Under the Frobenius norm the optimal defining vector averages each
    wrapped diagonal of each block.  Entries lying in the zero-padded ragged
    region do not take part in the averages; diagonal classes with no valid
    entries store zero.
    """
    dense = np.asarray(dense, dtype=np.float64)
    if dense.ndim != 2:
        raise SchemaError("projection input must be a matrix")
    rows, cols = dense.shape
    require_power_of_two(block_size, 2)
    if block_size > MAX_BLOCK_SIZE:
        raise SchemaError(f"block size must be at most {MAX_BLOCK_SIZE}, got {block_size}")
    n = block_size
    p, q = block_counts(rows, cols, n)

    # entry (r, c) lies in block (r // n, c // n) on wrapped diagonal (r - c) % n
    r, c = np.arange(rows)[:, None], np.arange(cols)[None, :]
    key = ((r // n * q + c // n) * n + (r - c) % n).ravel()
    sums = np.bincount(key, weights=dense.ravel(), minlength=p * q * n).reshape(p, q, n)
    counts = np.bincount(key, minlength=p * q * n).reshape(p, q, n)
    vectors = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    return BlockCirculantMatrix(rows, cols, n, vectors)


@dataclass(frozen=True)
class CompressionStats:
    """Theoretical compression and speedup ratios for one weight matrix."""

    theoretical_compute_reduction: float  # n / log2(n); 1 at n = 1 (uncompressed)
    storage_reduction: float  # n
    dense_reals: int
    stored_reals: int


def compression_stats(rows: int, cols: int, block_size: int) -> CompressionStats:
    """Ratios for a rows x cols matrix at the given block size (1 = uncompressed)."""
    if rows < 1 or cols < 1:
        raise SchemaError("matrix dimensions must be positive")
    require_power_of_two(block_size, 1)
    p, q = block_counts(rows, cols, block_size)
    return CompressionStats(
        theoretical_compute_reduction=block_size / max(math.log2(block_size), 1.0),
        storage_reduction=float(block_size),
        dense_reals=rows * cols,
        stored_reals=p * q * block_size,
    )
