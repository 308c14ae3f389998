"""Pin BLAS to one thread before numpy loads, so acceptance timings are
honest single-threaded measurements. Also holds the test-side helper that
builds a conserving unitary from ``(indices, matrix)`` pairs, the oracles
that read such pairs back and check a unitary against its model, and the
reference sampler that draws and diagonalizes one block at a time."""

import os

for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
            "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np  # noqa: E402  (after the thread pins)

from qflux import dynamics as dyn  # noqa: E402
from qflux.errors import DimensionError  # noqa: E402

UNITARITY_TOL = 1e-12
SYMMETRY_TOL = 1e-12


def padded_unitary(pairs, window=None):
    """``ConservingUnitary`` from one ``(indices, matrix)`` pair per block:
    each s x s matrix is copied into a zero-padded (n_blocks, s_max, s_max)
    stack."""
    s_max = max(len(idx) for idx, _ in pairs)
    matrices = np.zeros((len(pairs), s_max, s_max), dtype=complex)
    for b, (idx, mat) in enumerate(pairs):
        matrices[b, :len(idx), :len(idx)] = mat
    return dyn.ConservingUnitary([idx for idx, _ in pairs], matrices, window)


def block_pairs(u):
    """The ``(indices, matrix)`` pairs of ``u`` as read-only views into its
    padded arrays, in construction order."""
    return tuple((idx[:s], mat[:s, :s])
                 for idx, mat, s in zip(u.indices, u.matrices, u.size))


def assert_valid(u, model):
    """``u`` spans the model basis, and every block is unitary and symmetric
    to 1e-12 and its indices share one energy level."""
    if u.dim != model.dim:
        raise DimensionError("unitary blocks do not partition the model basis")
    for idx, mat in block_pairs(u):
        if np.unique(model.levels[idx]).size != 1:
            raise ValueError("block mixes joint energies: it does not commute "
                             "with the joint Hamiltonian")
        if np.abs(mat.conj().T @ mat - np.eye(idx.size)).max() > UNITARITY_TOL:
            raise ValueError("block is not unitary within 1e-12")
        if np.abs(mat - mat.T).max() > SYMMETRY_TOL:
            raise ValueError("block is not symmetric within 1e-12")


def reference_block_unitary(rng, size):
    """The reference draw of one block: a random phase for a singleton,
    otherwise exp(i K) for K a symmetrized Gaussian real matrix, with its
    own ``eigh``."""
    if size == 1:
        return np.array([[np.exp(2j * np.pi * rng.random())]])
    a = rng.standard_normal((size, size))
    k = (a + a.T) / 2.0
    lam, vec = np.linalg.eigh(k)
    return (vec * np.exp(1j * lam)) @ vec.T


def reference_unitary(blocks, keys, seed, window=None):
    """The reference sampler: one draw per block, in block order from one
    stream; a block whose key came before reuses the first such block's
    matrix."""
    rng = np.random.default_rng(seed)
    pairs, first = [], {}
    for b, (idx, key) in enumerate(zip(blocks, keys)):
        at = first.setdefault(key, b)
        pairs.append((idx, reference_block_unitary(rng, idx.size) if at == b else pairs[at][1]))
    return padded_unitary(pairs, window)
