"""The unoptimized block-circulant multiply, kept only as the tests' oracle.

``bc_matvec_per_block`` shares no spectra with ``bc_matvec``: it transforms
the defining vectors and the padded input with numpy's full complex FFT,
multiplies every block on its own over all n bins, and runs one inverse
transform per block product, p*q in all, before summing the blocks
spatially.  Those inverse transforms go through the counted ``fft`` (a
product of two conjugate-symmetric spectra is conjugate symmetric, so its
first n/2 + 1 bins carry it), which lets acceptance criterion 2 compare
p*q inverse transforms here with the p of ``bc_matvec``.
"""

import numpy as np

from circgnn import BlockCirculantMatrix, fft


def bc_matvec_per_block(w: BlockCirculantMatrix, h) -> np.ndarray:
    """W @ h for one real vector h of length w.cols, block by block."""
    n, p, q = w.block_size, w.p, w.q
    padded = np.zeros(q * n)
    padded[: w.cols] = h
    products = np.fft.fft(w.defining_vectors) * np.fft.fft(padded.reshape(q, n))  # (p, q, n)
    per_block = fft(products[..., : n // 2 + 1], inverse=True)  # p*q inverse transforms
    return per_block.sum(axis=1).reshape(p * n)[: w.rows]
