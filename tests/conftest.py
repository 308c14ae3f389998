"""Pin BLAS to one thread before numpy loads, so acceptance timings are
honest single-threaded measurements. Also holds the test-side helper that
builds a conserving unitary from ``(indices, matrix)`` pairs."""

import os

for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
            "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np  # noqa: E402  (after the thread pins)

from qflux import dynamics as dyn  # noqa: E402


def padded_unitary(pairs, window=None):
    """``ConservingUnitary`` from one ``(indices, matrix)`` pair per block:
    each s x s matrix is copied into a zero-padded (n_blocks, s_max, s_max)
    stack."""
    s_max = max(len(idx) for idx, _ in pairs)
    matrices = np.zeros((len(pairs), s_max, s_max), dtype=complex)
    for b, (idx, mat) in enumerate(pairs):
        matrices[b, :len(idx), :len(idx)] = mat
    return dyn.ConservingUnitary([idx for idx, _ in pairs], matrices, window)
