"""Joint system-battery models and energy-conserving, time-reversal-invariant dynamics.

The battery is a uniform ladder tensored with a two-level switch; the switch
selects which system Hamiltonian (initial or final frequency) is active, so a
single time-independent joint Hamiltonian realizes the frequency quench.
Energies are exact: every joint energy is an integer multiple of one rational
unit, so ``levels[k] * energy_unit`` is the energy of joint index k and
degeneracy is decided by integer equality, never by floating-point comparison.
Every Hamiltonian is diagonal and handed out as its energies: floats in
``system_mode(s).energies`` and ``battery.energies``, integers in ``levels``.

Basis layout (row-major): full index k = (n * L + w) * 2 + s for system level
n, battery ladder level w, switch sector s (0 = initial, 1 = final). The
battery's own basis index is b = 2 w + s.

A conserving unitary is block-diagonal over the degenerate eigenspaces of
the joint Hamiltonian and is stored as those blocks only, zero-padded to the
largest block. Transition reads and work distributions gather U's entries
from them. Q, for one term or a stack of terms, takes X and rho as their
system and battery factors, each battery factor a vector (the v of a
rank-one |v><v|) or a diagonal. It reads every term one way: as system-sized
reduced U's <v_i| U |w_j>, one per pair of labels, a vector's one label or
a diagonal's basis vectors, scattered from the blocks that hold both. No
d x d array is formed. A sampled unitary exponentiates each block's draw
when a read first needs that block (``ConservingUnitary``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np
# np.unique reads np.ma and default_rng needs np.random: load both now, not in the first call
import numpy.ma
import numpy.random

from .errors import (DimensionError, DomainError, IncommensurateError,
                     UndefinedRatioError, WindowError)
from .fock import DensityState, HilbertSpace, OscillatorMode, PureState

SECTOR_INITIAL = 0
SECTOR_FINAL = 1

DEFAULT_PROB_FLOOR = 1e-12

RationalLike = Union[int, float, str, Fraction]


def _rational_gcd(*values: Fraction) -> Fraction:
    """The largest rational of which every (positive) value is an integer
    multiple: gcd of the numerators over lcm of the denominators."""
    return Fraction(math.gcd(*(v.numerator for v in values)),
                    math.lcm(*(v.denominator for v in values)))


@dataclass(frozen=True)
class SwitchedBattery:
    """Uniform energy ladder (spacing delta, levels 0..ladder_dim-1) tensored
    with a degenerate two-level switch. H_B acts on the ladder alone."""

    ladder_dim: int
    spacing: Fraction

    def __post_init__(self):
        object.__setattr__(self, "spacing", Fraction(self.spacing))
        if self.ladder_dim < 2:
            raise DomainError("battery ladder needs at least 2 levels")
        if self.spacing <= 0:
            raise DomainError("battery spacing must be positive")

    @property
    def dim(self) -> int:
        return 2 * self.ladder_dim

    @property
    def space(self) -> HilbertSpace:
        return HilbertSpace(self.dim, "battery")

    @property
    def ladder_space(self) -> HilbertSpace:
        return HilbertSpace(self.ladder_dim, "battery-ladder")

    @property
    def energies(self) -> np.ndarray:
        """H_B as its diagonal in the battery basis b = 2 w + s: delta * w."""
        return np.repeat(float(self.spacing) * np.arange(self.ladder_dim, dtype=float), 2)

    def basis_index(self, level: int, sector: int) -> int:
        if not 0 <= level < self.ladder_dim:
            raise DimensionError(f"battery level {level} outside 0..{self.ladder_dim - 1}")
        if sector not in (SECTOR_INITIAL, SECTOR_FINAL):
            raise DomainError(f"sector must be 0 or 1, got {sector}")
        return 2 * level + sector


def battery_spacing_for(omega_i: RationalLike, omega_f: RationalLike) -> Fraction:
    """Half the gcd of the two frequencies: the coarsest ladder spacing that
    makes cross-sector degeneracies dense."""
    return _rational_gcd(Fraction(omega_i), Fraction(omega_f)) / 2


@dataclass(frozen=True, eq=False)
class JointModel:
    """System otimes battery with the switch-selected joint Hamiltonian.

    The Hamiltonian is diagonal; joint index k has the exact energy
    ``levels[k] * energy_unit``. ``levels`` is int64 when its largest entry
    fits, otherwise an object array of Python ints.
    """

    omega_i: Fraction
    omega_f: Fraction
    system_cutoff: int
    battery: SwitchedBattery
    energy_unit: Fraction
    levels: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.system_cutoff * self.battery.dim

    def system_mode(self, sector: int) -> OscillatorMode:
        omega = self.omega_i if sector == SECTOR_INITIAL else self.omega_f
        return OscillatorMode(omega, self.system_cutoff)


def build_joint_model(omega_i: RationalLike, omega_f: RationalLike,
                      system_cutoff: int, battery: SwitchedBattery, *,
                      min_cross_degeneracies: int = 1) -> JointModel:
    """Assemble the joint model and verify the spectrum supports dynamics.

    The diagonal reads omega_s (n + 1/2) + delta * w over (n, w, s). Every
    entry is an integer multiple of u = gcd(omega_i / 2, omega_f / 2, delta),
    the model's ``energy_unit``. If fewer than ``min_cross_degeneracies``
    pairs of equal-energy states straddle the two sectors, no population can
    ever cross and IncommensurateError is raised (the generic signature of
    irrational frequency ratios).
    """
    w_i, w_f = Fraction(omega_i), Fraction(omega_f)
    if w_i <= 0 or w_f <= 0:
        raise DomainError("frequencies must be positive")
    if system_cutoff < 2:
        raise DomainError("system cutoff must be >= 2")
    unit = _rational_gcd(w_i / 2, w_f / 2, battery.spacing)
    half_i, half_f, step = (int(v / unit) for v in (w_i / 2, w_f / 2, battery.spacing))
    top = max(half_i, half_f) * (2 * system_cutoff - 1) + step * (battery.ladder_dim - 1)
    dtype = np.int64 if top <= np.iinfo(np.int64).max else object
    odd = 2 * np.arange(system_cutoff, dtype=dtype) + 1
    shift = step * np.arange(battery.ladder_dim, dtype=dtype)
    levels = (odd[:, None, None] * np.array([half_i, half_f], dtype=dtype)
              + shift[None, :, None]).ravel()
    values, inverse = np.unique(levels, return_inverse=True)
    initial, final = (np.bincount(inverse[s::2], minlength=values.size)
                      for s in (SECTOR_INITIAL, SECTOR_FINAL))
    crossings = int(initial @ final)
    if crossings < min_cross_degeneracies:
        raise IncommensurateError(f"only {crossings} cross-sector degeneracies (need >= "
                                  f"{min_cross_degeneracies}); frequencies {w_i}/{w_f} are "
                                  "effectively incommensurate at these cutoffs")
    return JointModel(w_i, w_f, system_cutoff, battery, unit, levels)


def spectral_blocks(model: JointModel) -> Partition:
    """The basis as a ``Partition`` into degenerate blocks, one ascending
    read-only array of joint indices per eigenspace, in ascending energy;
    every unitary sampled on it shares its ``layout``. Levels are exact
    integers, so a block is a run of equal levels after a stable sort: a
    slice of the sorted order."""
    order = np.argsort(model.levels, kind="stable")
    order.flags.writeable = False
    ranked = model.levels[order]
    edges = [0, *(np.flatnonzero(ranked[1:] != ranked[:-1]) + 1).tolist(), order.size]
    return Partition(order[start:stop] for start, stop in zip(edges[:-1], edges[1:]))


class Partition(tuple):
    """Blocks of joint indices, one array each, laid out once for every unitary
    on them (``Partition(p)`` is ``p`` itself): ``layout`` is ``(size, held,
    indices, block, slot)``, read-only, built on first use. Block b has the
    joint indices ``indices[b, :size[b]]``, marked in ``held[b]``, and 0 past
    them; joint index k sits at ``slot[k]`` in block ``block[k]``. The layout
    raises DimensionError unless the blocks partition 0 ... d - 1."""

    def __new__(cls, blocks: Sequence[np.ndarray]):
        return blocks if isinstance(blocks, Partition) else super().__new__(cls, blocks)

    @cached_property
    def layout(self) -> tuple[np.ndarray, ...]:
        size = np.array([len(idx) for idx in self])
        order = np.concatenate(self)
        if not np.array_equal(np.sort(order), np.arange(order.size)):
            raise DimensionError("unitary blocks do not partition 0 ... d - 1")
        held = np.arange(size.max()) < size[:, None]
        indices = np.zeros(held.shape, dtype=np.intp)
        indices[held] = order
        block, slot = np.empty((2, order.size), dtype=np.intp)
        block[order], slot[order] = np.nonzero(held)
        for array in (size, held, indices, block, slot):
            array.flags.writeable = False
        return size, held, indices, block, slot


class ConservingUnitary:
    """Block-diagonal symmetric unitary commuting with the joint Hamiltonian.

    Built from ``blocks``, one array of joint indices per degenerate
    eigenspace, and ``matrices``, U on each block zero-padded to the largest
    block size s_max: ``matrices[b, :size[b], :size[b]]``, exact zeros past it.
    ``size``, ``indices``, ``block`` and ``slot`` are the blocks'
    ``Partition.layout``, shared read-only by every unitary on it; ``matrices``
    is kept, not copied, and made read-only. Raises DimensionError unless the
    blocks partition 0 ... d - 1, ``matrices`` is ``(len(blocks), s_max,
    s_max)`` and every entry past a block's size is exactly zero, as Q needs.

    ``window``, set by the translation-invariant sampler, is the inclusive
    battery-level range where transition probabilities depend only on level
    differences.

    A unitary from ``_sample`` keeps each block's Gaussian draw, and leaves a
    translation-invariant copy empty, until a read first needs the block:
    ``entries`` and ``q_quantity`` exponentiate the blocks they read, and
    ``matrices`` and ``matrix`` every block, so no caller sees a pending
    one. Each block comes out the same whichever read exponentiates it
    first.
    """

    def __init__(self, blocks: Sequence[np.ndarray], matrices: np.ndarray,
                 window: Optional[tuple[int, int]] = None):
        blocks = Partition(blocks)
        held = blocks.layout[1]
        if np.shape(matrices) != held.shape + held.shape[1:]:
            raise DimensionError(f"{np.shape(matrices)} matrices do not pad {held.shape[0]} "
                                 f"blocks of up to {held.shape[1]} indices")
        nonzero = matrices != 0      # reduced per row and per column, never gathered
        if (nonzero.any(axis=2) & ~held).any() or (nonzero.any(axis=1) & ~held).any():
            raise DimensionError("unitary matrices are not zero past their block's size")
        self._hold(blocks, matrices, window)

    def _hold(self, blocks: Partition, matrices: np.ndarray, window) -> None:
        """Keep ``matrices`` on the layout of ``blocks``, unchecked."""
        self.window, self._matrices = window, matrices
        self._pending = self._source = None   # set by _sample: see _read
        self.size, self._held, self.indices, self.block, self.slot = blocks.layout
        matrices.flags.writeable = False

    def _read(self, blocks=None) -> np.ndarray:
        """The padded stack once ``blocks`` (every block if None) are final.

        A pending block holds its s x s Gaussian draw A as the first s^2
        float64s of its slot, or is an empty copy of block ``_source[b]``.
        Pending draws are replaced by exp(i K), K = (A + A^T) / 2 diagonalized
        per block size in stacked chunks of at most ``_SAMPLE_CHUNK`` entries,
        into their zeroed slots; a copy is filled once its source is final."""
        if self._pending is None:
            return self._matrices
        need = np.flatnonzero(self._pending) if blocks is None else np.unique(blocks)
        need = need[self._pending[need]]
        source = self._source[need]
        draws = np.unique(source[self._pending[source]])
        stack, size = self._matrices, self.size[draws]
        stack.flags.writeable = True
        flat = stack.reshape(stack.shape[0], -1).view(np.float64)
        for s in set(size.tolist()):
            group, step = draws[size == s], max(1, _SAMPLE_CHUNK // s ** 2)
            for chunk in (group[lo:lo + step] for lo in range(0, group.size, step)):
                a = flat[chunk, :s * s].reshape(-1, s, s)
                lam, vec = np.linalg.eigh((a + a.transpose(0, 2, 1)) / 2.0)
                stack[chunk] = 0.0
                stack[chunk, :s, :s] = (vec * np.exp(1j * lam)[:, None]) @ vec.transpose(0, 2, 1)
        copy = source != need
        stack[need[copy]] = stack[source[copy]]
        stack.flags.writeable = False
        self._pending[draws] = self._pending[need] = False
        if not self._pending.any():
            self._pending = self._source = None
        return stack

    @property
    def matrices(self) -> np.ndarray:
        """The read-only padded stack, every block exponentiated."""
        return self._read()

    @property
    def dim(self) -> int:
        return int(self.size.sum())

    @property
    def matrix(self):
        """U as a ``scipy.sparse.csr_array``, assembled from the blocks on
        every access. An export for callers; qflux itself reads the padded arrays."""
        from scipy import sparse

        keep = self._held[:, :, None] & self._held[:, None, :]
        rows, cols = np.broadcast_arrays(self.indices[:, :, None], self.indices[:, None, :])
        return sparse.csr_array((self.matrices[keep], (rows[keep], cols[keep])), (self.dim,) * 2)

    def entries(self, rows, cols) -> np.ndarray:
        """U restricted to ``rows`` and ``cols`` as a dense array: one gather
        ``matrices[block[r], slot[r], slot[c]]`` from the padded blocks where
        row and column share a block, zero elsewhere; an empty ``rows`` or
        ``cols`` gives an empty array. Raises DimensionError for an index
        outside 0 ... d - 1."""
        # an empty list would be float64, which numpy refuses as an index
        rows, cols = (np.asarray(a) if np.size(a) else np.empty(0, dtype=np.intp)
                      for a in (rows, cols))
        d = self.block.size   # a negative index wraps past d as an unsigned one
        if np.concatenate((rows, cols)).astype(np.uintp).max(initial=0) >= d:
            raise DimensionError(f"unitary entries outside 0 ... {d - 1}")
        row_block = self.block[rows]
        r, c = np.nonzero(row_block[:, None] == self.block[cols][None, :])
        out = np.zeros((rows.size, cols.size), dtype=complex)
        read = row_block[r]
        out[r, c] = self._read(read)[read, self.slot[rows[r]], self.slot[cols[c]]]
        return out


#: complex entries per stacked ``eigh`` in the sampler; 2**13 peaked past 1.15x U at 16 x 96
_SAMPLE_CHUNK = 1 << 11


def _sample(blocks: Sequence[np.ndarray], source: np.ndarray, seed: int,
            window: Optional[tuple[int, int]] = None) -> ConservingUnitary:
    """A random symmetric unitary per block, drawn in block order from one
    stream straight into a zero-filled padded stack: exp(2 pi i r) for a
    singleton, at once, else exp(i K) for K a symmetrized Gaussian real
    matrix, its s^2 draws written in place as the first float64s of the
    block's own slot and left pending until a read needs the block
    (``ConservingUnitary._read``). A block b with ``source[b] != b`` is drawn
    nowhere and left pending as a copy of block ``source[b]``. The unitary
    shares the layout of ``Partition(blocks)``; the stack is not scanned."""
    blocks = Partition(blocks)
    rng = np.random.default_rng(seed)
    size, held = blocks.layout[:2]
    matrices = np.zeros(held.shape + held.shape[1:], dtype=complex)
    flat = matrices.reshape(len(blocks), -1).view(np.float64)   # each block's slot as floats
    copy = source != np.arange(source.size)
    fresh = np.flatnonzero(~copy)
    for b, s in zip(fresh.tolist(), size[fresh].tolist()):
        (rng.random if s == 1 else rng.standard_normal)(out=flat[b, :s * s])
    one = fresh[size[fresh] == 1]
    matrices[one, 0, 0] = np.exp(2j * np.pi * matrices[one, 0, 0].real)
    u = ConservingUnitary.__new__(ConservingUnitary)
    u._hold(blocks, matrices, window)
    u._pending, u._source = copy | (size > 1), source
    return u


def sample_conserving_unitary(blocks: Sequence[np.ndarray], seed: int) -> ConservingUnitary:
    """Draw an independent random symmetric unitary on every degenerate block
    (an index array from ``spectral_blocks``). Deterministic in (blocks, seed)."""
    return _sample(blocks, np.arange(len(blocks)), seed)


def _translation_source(model: JointModel, blocks: Partition) -> np.ndarray:
    """Per block, the first block it is a battery translate of: one ``np.unique``
    over the keys k - 2 w_min = (n L + w - w_min) 2 + s of each block's joint
    indices k, for w_min its lowest ladder level, and -1 past its size."""
    held, indices, ladder = *blocks.layout[1:3], model.battery.ladder_dim
    low = np.where(held, indices // 2 % ladder, ladder).min(axis=1)
    keys = np.where(held, indices - 2 * low[:, None], -1)
    _, first, at = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    return first[at.ravel()]


def translation_reach(model: JointModel) -> int:
    """Largest battery-level change any single interaction can produce:
    ceil(system spectral spread / ladder spacing), computed exactly."""
    return reach_for(model.omega_i, model.omega_f, model.system_cutoff,
                     model.battery.spacing)


def reach_for(omega_i: RationalLike, omega_f: RationalLike, system_cutoff: int,
              spacing: RationalLike) -> int:
    """``translation_reach`` of the model these would build, without building it."""
    omegas = (Fraction(omega_i), Fraction(omega_f))
    spread = max(omegas) * Fraction(2 * system_cutoff - 1, 2) - min(omegas) / 2
    return int(math.ceil(spread / Fraction(spacing)))


def sample_translation_invariant_unitary(model: JointModel, blocks: Sequence[np.ndarray],
                                         window: tuple[int, int], seed: int) -> ConservingUnitary:
    """Like sample_conserving_unitary, but blocks that are battery translates
    of one another share one draw, so interior dynamics depend only on
    battery level differences.

    ``window`` is the inclusive battery-level range the caller needs the
    shift identity on; it must stay ``translation_reach(model)`` levels away
    from both ladder edges (WindowError otherwise).
    """
    lo, hi = window
    reach = translation_reach(model)
    top = model.battery.ladder_dim - 1
    if lo > hi:
        raise WindowError(f"empty window {window}")
    if lo < reach or hi > top - reach:
        raise WindowError(f"window {window} must lie within the interior [{reach}, "
                          f"{top - reach}] (reach {reach} on a {top + 1}-level ladder)")
    blocks = Partition(blocks)
    return _sample(blocks, _translation_source(model, blocks), seed, window=(lo, hi))


# ---------------------------------------------------------------------------
# measured quantities
# ---------------------------------------------------------------------------

#: complex entries per chunk: of the label pairs' A (cutoff**2 each), and of
#: the U rows gathered from one chunk of blocks; bounds memory; of 2**12 ...
#: 2**16, 2**13 ran fastest at d = 1152 on 2 cores
_PAIR_CHUNK = 1 << 13


def _array(f) -> np.ndarray:
    """The complex array a factor stands for: a ``PureState``'s vector, an
    operator's matrix, or the array itself."""
    return np.ascontiguousarray(
        f.amplitudes if isinstance(f, PureState) else getattr(f, "matrix", f), dtype=complex)


def _battery_side(f, bdim: int, conj: bool):
    """A battery factor as (coefficients, labels, weights) over the battery
    basis: a vector v is one label of weight 1 with coefficients v (conj v
    if ``conj``); a diagonal matrix gives each nonzero entry a label of its
    own, of coefficient 1 and the entry as weight. Raises DimensionError for
    any other shape, and for a matrix with a nonzero (or NaN) entry off its
    diagonal."""
    f = _array(f)
    if f.shape == (bdim,):
        return f.conj() if conj else f, np.zeros(bdim, dtype=np.intp), np.ones(1)
    if f.shape != (bdim, bdim) or np.count_nonzero(f) != np.count_nonzero(f.diagonal()):
        raise DimensionError(f"a battery factor is a vector of {bdim} entries or a {bdim} x "
                             f"{bdim} matrix that is 0 off its diagonal, got {f.shape}")
    held = f.diagonal() != 0
    label = np.zeros(bdim, dtype=np.intp)
    label[held] = np.arange(np.count_nonzero(held))
    return held.astype(complex), label, f.diagonal()[held]


def q_quantity(x, rho, u: ConservingUnitary, model: JointModel) -> Union[float, np.ndarray]:
    """Tr[X U rho U^dag] for X = x_s (x) x_b and rho = rho_s (x) rho_b,
    clamped to zero when within -1e-14 of it: a float, or for stacks of T
    terms, the length-T array of the terms' Q.

    ``x`` and ``rho`` are the factor pairs ``(system, battery)``. A system
    factor is a (cutoff, cutoff) array or an ``OperatorMatrix``, or a
    (T, cutoff, cutoff) stack. A battery factor is the vector v of a
    rank-one |v><v| (a ``PureState`` or a 1-D array) or a diagonal matrix
    (an array or an ``OperatorMatrix``, read through its diagonal once every
    other entry is checked to be exactly 0); beside a stack it is a sequence
    of T such factors, in either form each, such as a (T, 2L) or
    (T, 2L, 2L) array. Any other battery factor raises DimensionError. The
    terms are read by ``_reduced_read`` in groups of ``_PAIR_CHUNK // 2L``
    (at least one), each group's battery sides built for its read only, so
    a long stack holds no (terms, 2L) array past one chunk. A read
    exponentiates only the blocks it visits and forms no d x d array
    (README, "How a unitary is stored")."""
    x_s, rho_s = _array(x[0]), _array(rho[0])
    single = x_s.ndim == 2
    if single:
        x_s, rho_s = x_s[None], rho_s[None]
    x_b, rho_b = ([f] if single or isinstance(f, PureState) else list(f)
                  for f in (x[1], rho[1]))
    terms, ds, bdim = len(x_s), model.system_cutoff, model.battery.dim
    if (terms == 0 or {x_s.shape, rho_s.shape} != {(terms, ds, ds)} or u.dim != model.dim
            or {len(x_b), len(rho_b)} != {terms}):
        raise DimensionError(f"system factors {x_s.shape} and {rho_s.shape}, {len(x_b)} and "
                             f"{len(rho_b)} battery factors and U of dim {u.dim} do not fit "
                             "the model")
    group = max(1, _PAIR_CHUNK // bdim)   # terms whose (terms, 2L) side arrays fit one chunk
    total = np.concatenate([
        _reduced_read(x_s[lo:lo + group], rho_s[lo:lo + group],
                      [(_battery_side(x_b[t], bdim, True), _battery_side(rho_b[t], bdim, False))
                       for t in range(lo, min(lo + group, terms))], u, ds, bdim)
        for lo in range(0, terms, group)])
    q = np.where((-1e-14 <= total) & (total < 0.0), 0.0, total)
    return float(q[0]) if single else q


def _reduced_read(x_s, rho_s, sides, u: ConservingUnitary, ds: int, bdim: int) -> np.ndarray:
    """sum_ij w_i w'_j Re Tr[x_s A_ij rho_s A_ij^dag] per term, unclamped,
    for the reduced U A_ij = <v_i| U |v'_j> between the labels i of the
    term's X side and j of its rho side (``_battery_side``): <v_i| sums
    c[b] <b| over the battery indices b labelled i, |v'_j> sums c'[b'] |b'>.

    The labels are numbered on from one term to the next. A label pair of a
    term is read if some block of U holds a row (n, b) of label i and a
    column (n', b') of label j, both of nonzero coefficient. The pairs run
    term by term in (i, j) order, in chunks of at most ``_PAIR_CHUNK``
    entries of A. Per chunk of pairs, the blocks holding a row and a column
    of one of its pairs run widest first, in chunks of at most
    ``_PAIR_CHUNK`` entries of gathered rows, each padded to its widest
    block. A block holds every row of a vector's one label, and at most one
    row of each diagonal label, at its (n, b). Each row of the chunk's
    labels with a nonzero coefficient is gathered, weighed by it and its
    columns by theirs, and the products are scattered onto (pair, n, n')
    with ``bincount``. A term rounds apart from its own call where a pair chunk
    cuts its pairs, or other terms move the block chunks two vectors sum over."""
    system = np.arange(ds)[:, None] * bdim
    n, b = np.divmod(u.indices, bdim)
    held = u._held   # the slots of each block's own indices
    by_width = np.argsort(-u.size, kind="stable")

    def side(factors):   # coefficients and labels (T, 2L), weights, terms, blocks per label
        coef, label, weight = zip(*factors)
        coef, count = np.array(coef), np.array([w.size for w in weight])
        first = np.cumsum(count) - count   # each term's first label
        label = np.array(label) + first[:, None]
        member = np.zeros((count.sum(), u.size.size), dtype=bool)
        t, b_t = np.nonzero(coef)
        member[label[t, b_t], u.block[system + b_t]] = True
        term = np.repeat(np.arange(count.size), count)
        held_by_term = np.logical_or.reduceat(member, first)
        return coef, label, np.concatenate(weight), term, member, held_by_term

    (cx, lx, wx, tx, rows, x_held), (cr, lr, wr, tr, cols, rho_held) = (
        side(f) for f in zip(*sides))
    stack = u._read(np.flatnonzero((x_held & rho_held).any(axis=0)))   # blocks of some pair
    alone = np.bincount(tx)[tx] == 1   # a label alone on its side, as a vector's

    def reduced(i_c, j_c):   # the A of the label pairs (i_c, j_c), of one term's labels each
        first, last = i_c[0], i_c[-1]   # the row labels, from first to last
        pair = np.full((last - first + 1, wr.size), -1, dtype=np.intp)
        pair[i_c - first, j_c] = np.arange(i_c.size)
        k = by_width[(rows[i_c] & cols[j_c]).any(axis=0)[by_width]]
        take, filled = (cx != 0) & (first <= lx) & (lx <= last), alone[i_c].any()
        a, at = np.zeros(i_c.size * ds * ds, dtype=complex), 0
        while at < k.size:   # sizes descend: a chunk's first block is its widest
            w = u.size[k[at]]
            per_block = w if filled else min(w, len(pair))   # rows of the labels per block
            chunk = k[at:at + max(1, _PAIR_CHUNK // (w * per_block))]
            n_c, b_c = n[chunk, :w], b[chunk, :w]
            t, blk, slot = np.nonzero(take[:, b_c] & held[chunk, :w])
            b_r, b_col, t_col = b_c[blk, slot], b_c[blk], t[:, None]
            # (cx U) cr and the (pair, n, n') index made in place: a stack gathers many rows
            weighted = stack[chunk[blk], slot, :w]
            np.multiply(cx[t, b_r][:, None], weighted, out=weighted)
            weighted *= cr[t_col, b_col]
            p = pair[lx[t, b_r][:, None] - first, lr[t_col, b_col]]
            keep = p >= 0
            p *= ds
            p += n_c[blk, slot][:, None]
            p *= ds
            p += n_c[blk]
            flat = p[keep]
            a.real += np.bincount(flat, weighted.real[keep], a.size)
            a.imag += np.bincount(flat, weighted.imag[keep], a.size)
            at += chunk.size
        return a.reshape(-1, ds, ds)

    i, j = np.nonzero((rows @ cols.T) & (tx[:, None] == tr))
    total, step = np.zeros(len(sides)), max(1, _PAIR_CHUNK // ds ** 2)
    for lo in range(0, i.size, step):
        i_c, j_c = i[lo:lo + step], j[lo:lo + step]
        a, term = reduced(i_c, j_c), tx[i_c]
        product = x_s[term] @ a @ rho_s[term]
        traces = np.einsum('pij,pij->p', product, np.conjugate(a, out=a))
        total += np.bincount(term, (wx[i_c] * wr[j_c] * traces).real, total.size)
    return total


def _system_density(system_state, model: JointModel) -> np.ndarray:
    if isinstance(system_state, PureState):
        system_state = system_state.density()
    rho = (system_state.matrix if isinstance(system_state, DensityState)
           else np.asarray(system_state, dtype=complex))
    if rho.shape != (model.system_cutoff,) * 2:
        raise DimensionError(f"system state of shape {rho.shape} does not match "
                             f"the model cutoff {model.system_cutoff}")
    return rho


def _weighted_read(sub: np.ndarray, rho: np.ndarray, weights=None) -> np.ndarray:
    """sum_a w_a (U_j rho U_j^dag)_aa per j for the (J, system, system) stack
    ``sub`` of U_j, unclamped; w_a = 1 if ``weights`` is None.

    A rho whose off-diagonal entries are all exactly zero is read from its
    diagonal: sum_n rho_nn sum_a w_a |U_j[a, n]|^2, by elementwise products and
    ``sum`` reductions, never a BLAS product, so a stack of reads gives each
    read's own bits at any BLAS thread count, and a positive diagonal gives no
    negative value. Any other rho (an off-diagonal NaN or 1e-300 too) is
    contracted whole by ``einsum``."""
    if (rho[~np.eye(rho.shape[0], dtype=bool)] == 0).all():
        square = sub.real ** 2 + sub.imag ** 2
        if weights is not None:
            square = square * weights[:, None]
        return (square.sum(axis=1) * rho.diagonal().real).sum(axis=1)
    if weights is None:
        return np.einsum('jan,nm,jam->j', sub.conj(), rho, sub).real
    return np.einsum('a,jan,nm,jam->j', weights, sub.conj(), rho, sub).real


def _transition_read(e_f_index, system_state, e_i_index,
                     u: ConservingUnitary, model: JointModel):
    """rho, the (J, system, system) stack of U on battery-out ``e_f_index`` rows and
    battery-in ``e_i_index`` columns, and the J unclamped transition probabilities
    (``_weighted_read``: from rho's diagonal when rho is diagonal).
    One index may be a 1-D array of J entries; a pair of scalars is the stack of one."""
    e_f, e_i = np.asarray(e_f_index), np.asarray(e_i_index)
    bdim = model.battery.dim
    both = np.concatenate((e_f, e_i), axis=None)
    if e_f.ndim + e_i.ndim > 1 or ((both < 0) | (both >= bdim)).any():
        raise DimensionError(f"battery indices must lie in 0 ... {bdim - 1}, at most one "
                             "of them a 1-D array")
    rho = _system_density(system_state, model)
    system, ds = np.arange(model.system_cutoff) * bdim, model.system_cutoff
    if e_i.ndim:   # one gather of every e_i's columns, (ds, J, ds) as laid out
        sub = u.entries(system + e_f, (e_i[:, None] + system).ravel())
        sub = sub.reshape(ds, e_i.size, ds).transpose(1, 0, 2)
    else:
        sub = u.entries((e_f.reshape(-1, 1) + system).ravel(), system + e_i).reshape(-1, ds, ds)
    return rho, sub, _weighted_read(sub, rho)


def transition_probability(e_f_index, system_state, e_i_index,
                           u: ConservingUnitary, model: JointModel):
    """Probability to find the battery in eigenstate ``e_f_index`` after
    preparing (system_state) tensor |e_i_index><e_i_index| and applying U,
    clamped at 0: a float, or an ndarray over whichever index is a 1-D array.

    Battery eigenstate indices are the flat (level, sector) indices
    ``2*level + sector``.
    """
    prob = _transition_read(e_f_index, system_state, e_i_index, u, model)[2]
    prob = np.where(prob < 0.0, 0.0, prob)   # as max(p, 0.0): keeps -0.0 and nan
    return prob if np.ndim(e_f_index) or np.ndim(e_i_index) else float(prob[0])


def conditional_photon_number(e_f_index, system_state, e_i_index,
                              u: ConservingUnitary, model: JointModel,
                              which: str = "N",
                              prob_floor: float = DEFAULT_PROB_FLOOR):
    """Factor Q(X_S otimes |E_f><E_f| | rho otimes |E_i><E_i|) into
    (conditional mean, transition probability): two floats, or for a 1-D
    array in one index, as ``transition_probability`` takes, two arrays over
    it from one gather.

    ``which`` selects the measured system operator: "N" for the photon-added
    protocol, "N+1" for photon-subtracted; the returned mean is the
    conditional expectation of that operator, and its weighted sum is read
    as the probability is (``_weighted_read``: from the diagonal of a
    diagonal rho, else by ``einsum``). A probability at or below
    ``prob_floor`` leaves the mean undefined: a scalar read raises
    UndefinedRatioError, a stacked read gives NaN there.
    """
    if which not in ("N", "N+1"):
        raise DomainError(f'which must be "N" or "N+1", got {which!r}')
    rho, sub, prob = _transition_read(e_f_index, system_state, e_i_index, u, model)
    weights = np.arange(model.system_cutoff, dtype=float)
    if which == "N+1":
        weights = weights + 1.0
    q_val = _weighted_read(sub, rho, weights)
    undefined = prob <= prob_floor
    if np.ndim(e_f_index) or np.ndim(e_i_index):
        return np.divide(q_val, prob, out=np.full(prob.shape, np.nan), where=~undefined), prob
    if undefined[0]:
        raise UndefinedRatioError(f"transition probability {prob[0]:.3e} at or below floor "
                                  f"{prob_floor:.1e}")
    return float(q_val[0]) / float(prob[0]), float(prob[0])


def work_distribution(direction: str, system_state, reference_level: int,
                      u: ConservingUnitary, model: JointModel
                      ) -> dict[Fraction, float]:
    """Distribution of W = E_0 - E_measured over the discrete work lattice.

    The battery starts in the pure ladder level ``reference_level`` (sector
    ``initial`` for direction "F", ``final`` for "R"); the measured battery
    energy aggregates both switch sectors of each ladder level, so the
    returned probabilities sum to one by completeness.
    """
    per_level = _level_probabilities(direction, system_state, reference_level, u, model)
    return {model.battery.spacing * (reference_level - w): p
            for w, p in enumerate(per_level.tolist())}


def _level_probabilities(direction: str, system_state, reference_level: int,
                         u: ConservingUnitary, model: JointModel) -> np.ndarray:
    """``work_distribution``'s probabilities as an array over the measured
    ladder level w, for the work ``spacing * (reference_level - w)``."""
    if direction not in ("F", "R"):
        raise DomainError(f'direction must be "F" or "R", got {direction!r}')
    sector = SECTOR_INITIAL if direction == "F" else SECTOR_FINAL
    ladder = model.battery.ladder_dim
    if not 0 <= reference_level < ladder:
        raise WindowError(f"reference level {reference_level} outside the ladder")
    if u.window is not None and not u.window[0] <= reference_level <= u.window[1]:
        raise WindowError(f"reference level {reference_level} outside the guaranteed "
                          f"window [{u.window[0]}, {u.window[1]}]")
    b_in = model.battery.basis_index(reference_level, sector)
    prob = _transition_read(np.arange(model.battery.dim), system_state, b_in, u, model)[2]
    return prob.reshape(ladder, 2).sum(axis=1)
