"""Block-stored unitaries and the integer energy lattice against oracles.

qflux stores a conserving unitary as its energy blocks and never forms the
d x d matrix. The oracle here does: it scatters the padded blocks
(``u.indices``, ``u.matrices``, ``u.size``) into a dense array and evaluates
Q, transition probabilities, conditional photon numbers and work
distributions with dense products; a diagonal system state is read from its
diagonal, summed in the order qflux sums it. The sparse ``u.matrix`` export
is checked against that array.

qflux decides degeneracy on integer levels. The partition oracle computes
every joint energy as a ``Fraction`` and groups equal ones in a dict.
"""

import math
import tracemalloc
from fractions import Fraction
from functools import partial
from itertools import product

import numpy as np
import pytest
from conftest import padded_unitary, reference_block_unitary, reference_unitary

from qflux import closedform as cf
from qflux import dynamics as dyn
from qflux import fock, gibbs
from qflux.errors import DimensionError, IncommensurateError, UndefinedRatioError
from qflux.scenarios import (_FT_FREQUENCIES, _binomial_battery_state, _on_sector,
                             _random_ladder_operator, _random_system_operator, default_config,
                             run_scenario)


def make_model(omega_i, omega_f, cutoff, ladder, spacing=None, **kwargs):
    battery = dyn.SwitchedBattery(
        ladder, spacing if spacing is not None else dyn.battery_spacing_for(omega_i, omega_f))
    return dyn.build_joint_model(omega_i, omega_f, cutoff, battery, **kwargs)


def dense(u):
    """U as a d x d array, scattered from the padded block layout."""
    um = np.zeros((u.dim, u.dim), dtype=complex)
    for idx, mat, s in zip(u.indices, u.matrices, u.size):
        um[np.ix_(idx[:s], idx[:s])] = mat[:s, :s]
    return um


def dense_q(x, rho, um):
    return np.einsum('ab,ba->', x @ um, rho @ um.conj().T).real


def dense_sub(um, model, b_out, b_in):
    ladder2 = model.battery.dim
    rows = np.arange(model.system_cutoff) * ladder2 + b_out
    cols = np.arange(model.system_cutoff) * ladder2 + b_in
    return um[np.ix_(rows, cols)]


def is_diagonal(rho):
    """Every off-diagonal entry exactly zero (a NaN is not)."""
    return np.count_nonzero(rho[~np.eye(len(rho), dtype=bool)]) == 0


def dense_expectation(sub, rho, weights=None):
    """sum_a w_a (sub rho sub^dag)_aa for one (system, system) block of U. A
    diagonal rho is read as sum_n rho_nn sum_a w_a |sub[a, n]|^2, summed in
    that order; any other rho is contracted whole."""
    if is_diagonal(rho):
        square = sub.real ** 2 + sub.imag ** 2
        if weights is not None:
            square = square * weights[:, None]
        return float((square.sum(axis=0) * np.diag(rho).real).sum())
    if weights is None:
        return float(np.einsum('an,nm,am->', sub.conj(), rho, sub).real)
    return float(np.einsum('a,an,nm,am->', weights, sub.conj(), rho, sub).real)


def dense_transition(um, model, b_out, rho, b_in):
    return max(dense_expectation(dense_sub(um, model, b_out, b_in), rho), 0.0)


def dense_work(um, model, rho, level, sector):
    b_in = model.battery.basis_index(level, sector)
    cols = np.arange(model.system_cutoff) * model.battery.dim + b_in
    amp = um[:, cols]
    if is_diagonal(rho):   # rows (a, b): sum over a, then over n with rho's diagonal
        square = (amp.real ** 2 + amp.imag ** 2).reshape(model.system_cutoff, -1,
                                                         model.system_cutoff)
        per_b = (square.sum(axis=0) * np.diag(rho).real).sum(axis=1)
        return per_b.reshape(model.battery.ladder_dim, 2).sum(axis=1)
    per_row = np.einsum('rn,nm,rm->r', amp.conj(), rho, amp).real
    return per_row.reshape(model.system_cutoff, model.battery.ladder_dim, 2).sum(axis=(0, 2))


def random_operator(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def translation_invariant(model, seed, blocks=None):
    reach = dyn.translation_reach(model)
    top = model.battery.ladder_dim - 1
    return dyn.sample_translation_invariant_unitary(
        model, dyn.spectral_blocks(model) if blocks is None else blocks,
        (reach, top - reach), seed)


def block_signature(model, block):
    """The reference key of one block: the (system level, sector, ladder
    level offset from the block minimum) of every member, as bytes."""
    n, w, s = np.unravel_index(block, (model.system_cutoff, model.battery.ladder_dim, 2))
    return np.stack([n, s, w - w.min()], axis=1).tobytes()


def first_of_key(keys):
    """Per block, the first block with its key."""
    first = {}
    return np.array([first.setdefault(key, b) for b, key in enumerate(keys)])


SAMPLERS = {
    "conserving": lambda model, seed: dyn.sample_conserving_unitary(
        dyn.spectral_blocks(model), seed),
    "translation-invariant": translation_invariant,
}

MODELS = {
    "ratio-2": lambda: make_model(1, 2, 4, 36),
    "ratio-3/2": lambda: make_model(1, Fraction(3, 2), 4, 48),
    # a ladder spacing that matches no system gap: every block is a singleton
    "singletons": lambda: make_model(1, Fraction(3, 2), 3, 24, spacing=Fraction(1, 97),
                                     min_cross_degeneracies=0),
}


# the singleton model's translation reach exceeds its ladder, so only the
# plain sampler applies to it
@pytest.fixture(params=[(m, s) for m in MODELS for s in SAMPLERS
                        if (m, s) != ("singletons", "translation-invariant")],
                ids=lambda p: f"{p[0]}-{p[1]}")
def model_and_unitary(request):
    model_name, sampler = request.param
    model = MODELS[model_name]()
    return model, SAMPLERS[sampler](model, 23)


class TestExport:
    def test_matrix_is_sparse_export_of_blocks(self, model_and_unitary):
        model, u = model_and_unitary
        m = u.matrix
        assert type(m).__name__ == "csr_array" and m.shape == (model.dim, model.dim)
        um = dense(u)
        assert np.array_equal(m.toarray(), um)
        assert m.nnz == sum(len(idx) ** 2 for idx, _ in u.blocks)
        assert np.abs(um.conj().T @ um - np.eye(model.dim)).max() < 1e-12

    def test_entries_equal_dense(self, model_and_unitary):
        model, u = model_and_unitary
        rng = np.random.default_rng(3)
        rows = rng.permutation(model.dim)[:17]
        cols = rng.permutation(model.dim)[:11]
        assert np.array_equal(u.entries(rows, cols), dense(u)[np.ix_(rows, cols)])

    def test_blocks_are_read_only_views_of_the_pairs(self):
        model = MODELS["ratio-3/2"]()
        rng = np.random.default_rng(5)
        pairs = [(idx, reference_block_unitary(rng, idx.size))
                 for idx in dyn.spectral_blocks(model)]
        u = padded_unitary(pairs)
        assert len(u.blocks) == len(pairs) and u.dim == model.dim
        for (idx, mat), (got_idx, got_mat) in zip(pairs, u.blocks):
            assert np.array_equal(got_idx, idx) and np.array_equal(got_mat, mat)
            assert np.shares_memory(got_mat, u.matrices) and not got_mat.flags.writeable

    def test_constructor_keeps_the_padded_stack(self):
        model = MODELS["ratio-3/2"]()
        blocks = dyn.spectral_blocks(model)
        u = dyn.sample_conserving_unitary(blocks, 5)
        stack = np.array(u.matrices)
        kept = dyn.ConservingUnitary(blocks, stack)
        assert kept.matrices is stack and not stack.flags.writeable

    def test_constructor_shares_a_partitions_layout(self):
        # a partition's index arrays are reused; a plain list is laid out anew
        model = MODELS["ratio-3/2"]()
        blocks = dyn.spectral_blocks(model)
        u = dyn.sample_conserving_unitary(blocks, 5)
        kept = dyn.ConservingUnitary(blocks, np.array(u.matrices))
        own = dyn.ConservingUnitary(list(blocks), np.array(u.matrices))
        for name in ("size", "indices", "block", "slot"):
            assert getattr(kept, name) is getattr(u, name)
            assert getattr(own, name) is not getattr(u, name)
            assert np.array_equal(getattr(own, name), getattr(u, name))

    def test_singleton_model_has_only_singletons(self):
        model = MODELS["singletons"]()
        assert all(b.size == 1 for b in dyn.spectral_blocks(model))


class TestSamplerAgainstReference:
    """The samplers draw the reference's stream; a read then diagonalizes
    the blocks it needs per size in stacked chunks: the same matrices, bit
    for bit, whatever the order of the reads. The singleton
    model's translation reach exceeds its ladder, so it has the plain
    sampler only."""

    @pytest.mark.parametrize("chunk", [dyn._SAMPLE_CHUNK, 1, 40])
    @pytest.mark.parametrize("seed", [7, 2024])
    @pytest.mark.parametrize("name", MODELS)
    def test_conserving(self, monkeypatch, name, seed, chunk):
        monkeypatch.setattr(dyn, "_SAMPLE_CHUNK", chunk)
        blocks = dyn.spectral_blocks(MODELS[name]())
        got = dyn.sample_conserving_unitary(blocks, seed)
        ref = reference_unitary(blocks, range(len(blocks)), seed)
        assert got.matrices.tobytes() == ref.matrices.tobytes()

    @pytest.mark.parametrize("chunk", [dyn._SAMPLE_CHUNK, 1, 40])
    @pytest.mark.parametrize("seed", [7, 2024])
    @pytest.mark.parametrize("name", [m for m in MODELS if m != "singletons"])
    def test_translation_invariant(self, monkeypatch, name, seed, chunk):
        monkeypatch.setattr(dyn, "_SAMPLE_CHUNK", chunk)
        model = MODELS[name]()
        blocks = dyn.spectral_blocks(model)
        keys = [block_signature(model, idx) for idx in blocks]
        assert len(set(keys)) < len(keys)   # translates copy an earlier draw
        got = translation_invariant(model, seed)
        ref = reference_unitary(blocks, keys, seed, got.window)
        assert got.matrices.tobytes() == ref.matrices.tobytes()

    @pytest.mark.parametrize("chunk", [dyn._SAMPLE_CHUNK, 1, 40])
    @pytest.mark.parametrize("seed", [7, 2024])
    @pytest.mark.parametrize("name, sampler", [(m, s) for m in MODELS for s in SAMPLERS
                                               if (m, s) != ("singletons",
                                                             "translation-invariant")])
    def test_any_read_order(self, monkeypatch, name, sampler, seed, chunk):
        # each block is exponentiated when a read first needs it: a few
        # blocks through entries (a translate's copy before its source),
        # then one Q, then the whole stack give the reference's bits
        monkeypatch.setattr(dyn, "_SAMPLE_CHUNK", chunk)
        model = MODELS[name]()
        blocks = dyn.spectral_blocks(model)
        keys = (list(range(len(blocks))) if sampler == "conserving"
                else [block_signature(model, idx) for idx in blocks])
        got = SAMPLERS[sampler](model, seed)
        ref = reference_unitary(blocks, keys, seed, got.window)
        size = np.array([idx.size for idx in blocks])
        source = first_of_key(keys)
        picks = [int(np.argmax(size)), 0, size.size // 2]
        if sampler == "translation-invariant":
            copies = np.flatnonzero((source != np.arange(size.size)) & (size > 1))
            picks.insert(0, int(copies[-1]))
        for b in picks:
            assert got.entries(blocks[b], blocks[b]).tobytes() == \
                ref.entries(blocks[b], blocks[b]).tobytes()
        gamma = fock.thermal_state(1.0, model.system_mode(0), tail_tol=1.0)
        x_b, rho_b = (np.diag(np.eye(model.battery.dim)[b]).astype(complex)
                      for b in (model.battery.basis_index(3, 1),
                                model.battery.basis_index(model.battery.ladder_dim // 2, 0)))
        x = (np.eye(model.system_cutoff), x_b)
        assert dyn.q_quantity(x, (gamma, rho_b), got, model) == \
            dyn.q_quantity(x, (gamma, rho_b), ref, model)
        assert got.matrices.tobytes() == ref.matrices.tobytes()

    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_unitaries_on_one_partition_share_its_layout(self, sampler):
        # the index arrays are built once per partition and shared read-only;
        # each U keeps a stack of its own
        model = MODELS["ratio-3/2"]()
        blocks = dyn.spectral_blocks(model)
        assert dyn.Partition(blocks) is blocks
        assert not any(idx.flags.writeable for idx in blocks)
        if sampler == "conserving":
            u, v = (dyn.sample_conserving_unitary(blocks, seed) for seed in (5, 6))
        else:
            u, v = (translation_invariant(model, seed, blocks) for seed in (5, 6))
        size, _, indices, block, slot = blocks.layout
        for name, array in (("size", size), ("indices", indices), ("block", block),
                            ("slot", slot)):
            assert getattr(u, name) is getattr(v, name) is array
            assert not array.flags.writeable
        assert not np.shares_memory(u.matrices, v.matrices)
        assert not u.matrices.flags.writeable and not v.matrices.flags.writeable
        assert u.matrices.tobytes() != v.matrices.tobytes()

    @pytest.mark.parametrize("name, sampler", [(m, s) for m in MODELS for s in SAMPLERS
                                               if (m, s) != ("singletons",
                                                             "translation-invariant")])
    def test_unitaries_in_a_row_on_one_partition(self, name, sampler):
        # several U's on one shared layout, each the reference's bits; the
        # translation-invariant ones copy earlier draws
        model = MODELS[name]()
        blocks = dyn.spectral_blocks(model)
        keys = (list(range(len(blocks))) if sampler == "conserving"
                else [block_signature(model, idx) for idx in blocks])
        assert sampler == "conserving" or len(set(keys)) < len(keys)
        for seed in (3, 7, 2024, 3):
            got = (dyn.sample_conserving_unitary(blocks, seed) if sampler == "conserving"
                   else translation_invariant(model, seed, blocks))
            assert np.array_equal(got._source, first_of_key(keys))
            ref = reference_unitary(list(blocks), keys, seed, got.window)
            assert got.indices is blocks.layout[2]
            assert got.matrices.tobytes() == ref.matrices.tobytes()

    @pytest.mark.parametrize("name", MODELS)
    def test_translation_source_matches_the_block_signatures(self, name):
        model = MODELS[name]()
        blocks = dyn.spectral_blocks(model)
        keys = [block_signature(model, idx) for idx in blocks]
        assert np.array_equal(dyn._translation_source(model, blocks), first_of_key(keys))

    def test_transition_read_exponentiates_only_its_blocks(self, monkeypatch):
        # a crooks read at the suite defaults (8 x 24): the blocks of its
        # system columns, not the model's 60 blocks of two or more indices
        model = make_model(1, Fraction(3, 2), 8, 24)
        counted, eigh = [], np.linalg.eigh
        monkeypatch.setattr(dyn.np.linalg, "eigh", lambda a: counted.append(len(a)) or eigh(a))
        u = dyn.sample_conserving_unitary(dyn.spectral_blocks(model), 7)
        assert counted == []
        gamma = fock.photon_added_state(1.0, model.system_mode(0), tail_tol=1.0)
        b_i = model.battery.basis_index(12, 0)
        dyn.transition_probability(2 * np.arange(24) + 1, gamma, b_i, u, model)
        touched = np.unique(u.block[np.arange(model.system_cutoff) * model.battery.dim + b_i])
        wide = int((u.size > 1).sum())
        assert 0 < sum(counted) <= (u.size[touched] > 1).sum() and wide == 60
        assert not u.matrices.flags.writeable
        assert sum(counted) == wide   # the rest, each once

    def test_reduced_read_exponentiates_only_its_blocks(self, monkeypatch):
        # a binomial suite's Q on vectors at 8 x 24: the blocks that hold an
        # index of psi's support and one of phi's, of the model's 60 blocks
        # of two or more indices
        model = make_model(1, Fraction(3, 2), 8, 24)
        counted, eigh = [], np.linalg.eigh
        monkeypatch.setattr(dyn.np.linalg, "eigh", lambda a: counted.append(len(a)) or eigh(a))
        u = dyn.sample_conserving_unitary(dyn.spectral_blocks(model), 7)
        psi, phi = (_binomial_battery_state(model.battery, 3, p, sector).amplitudes
                    for p, sector in ((0.4, 1), (0.6, 0)))
        gamma = fock.thermal_state(1.0, model.system_mode(0), tail_tol=1.0)
        assert dyn.q_quantity((np.eye(8), psi), (gamma, phi), u, model) > 0.0
        member = blocks_holding(psi, u) & blocks_holding(phi, u)
        wide = int((u.size > 1).sum())
        assert sum(counted) == (u.size[member] > 1).sum() and 0 < sum(counted) < wide == 60
        assert not u.matrices.flags.writeable
        assert sum(counted) == wide   # the rest, each once


def blocks_holding(v, u):
    """Which of U's blocks hold a joint index (n, b) with v[b] != 0."""
    return np.array([(v[idx[:s] % v.size] != 0).any() for idx, s in zip(u.indices, u.size)])


def random_factor(rng, d):
    """A random positive matrix with no zero entry: every energy coherence."""
    g = random_operator(rng, d)
    return g @ g.conj().T


def random_vector(rng, held):
    """A unit vector of complex amplitudes, nonzero where ``held``."""
    v = np.where(held, rng.normal(size=held.size) + 1j * rng.normal(size=held.size), 0.0)
    return v / np.linalg.norm(v)


def random_diagonal(rng, d):
    """A diagonal battery factor: positive weights on about two thirds of
    the levels, zero on the rest."""
    return np.diag(np.where(rng.random(d) < 2 / 3, rng.uniform(0.1, 1.0, d), 0.0)).astype(complex)


def battery_factor(rng, d, form):
    """A random battery factor in one of Q's two forms: a vector on about
    half of the levels, or a diagonal."""
    return random_vector(rng, rng.random(d) < 0.5) if form == "vector" else random_diagonal(rng, d)


#: the (X, rho) battery forms Q reads
FORMS = [("vector", "vector"), ("vector", "diagonal"), ("diagonal", "vector"),
         ("diagonal", "diagonal")]


def projector_of(v):
    """|v><v| for a vector, or a stack of them, as a matrix."""
    return v[..., :, None] * v[..., None, :].conj()


def battery_array(f):
    """A battery factor as an array: a ``PureState``'s vector, an operator's
    matrix."""
    return f.amplitudes if isinstance(f, fock.PureState) else np.asarray(getattr(f, "matrix", f))


def weights_of(f):
    """A battery factor's weights on the battery basis: a vector's
    amplitudes, a matrix's diagonal."""
    v = battery_array(f)
    return v if v.ndim == 1 else np.diag(v)


def product_q(x, rho, u):
    """The dense oracle on X = x_s (x) x_b and rho = rho_s (x) rho_b; a
    battery vector is read as its projector."""
    def operator(system, battery):
        v = battery_array(battery)
        return np.kron(system, projector_of(v) if v.ndim == 1 else v)
    return dense_q(operator(*x), operator(*rho), dense(u))


def switch_coherent(ladder_op):
    """A battery factor with a full 2 x 2 switch part: all four sector pairs."""
    return np.kron(ladder_op, np.array([[1.0, 0.6], [0.6, 0.5]], dtype=complex))


# the jarzynski CLI fuzz example: levels beyond int64, with crossings
OBJECT_MODEL = dict(omega_i=15625000000000000, omega_f=Fraction(1000000000000000001, 64),
                    cutoff=8, ladder=16)


def random_terms(rng, model, forms):
    """Three (x, rho) terms of dense positive system factors (rho_S of unit
    trace) and random battery factors of the given forms."""
    cutoff, bdim = model.system_cutoff, model.battery.dim
    terms = []
    for _ in range(3):
        x = (random_factor(rng, cutoff), battery_factor(rng, bdim, forms[0]))
        rho_s = random_factor(rng, cutoff)
        terms.append((x, (rho_s / np.trace(rho_s).real, battery_factor(rng, bdim, forms[1]))))
    return terms


class TestQAgainstDense:
    @pytest.mark.parametrize("forms", FORMS, ids="-".join)
    def test_random_operators(self, model_and_unitary, forms):
        # dense system factors hold every energy coherence; a diagonal
        # battery factor reads one label pair per battery index pair
        model, u = model_and_unitary
        for x, rho in random_terms(np.random.default_rng(5), model, forms):
            ref = product_q(x, rho, u)
            assert abs(dyn.q_quantity(x, rho, u, model) - ref) <= 1e-12 * abs(ref)

    def test_product_operators(self, model_and_unitary):
        # the shape the suites use: X_S (x) X_B and rho_S (x) rho_B; X_B is
        # the binomial weights on both sectors, so Q > 0 for singleton
        # blocks too, and rho_B the binomial state on the initial sector
        model, u = model_and_unitary
        cutoff = model.system_cutoff
        x_s = np.diag(np.arange(cutoff, dtype=complex))
        rho_s = fock.photon_added_state(0.8, model.system_mode(0), tail_tol=1.0).matrix
        lad = fock.binomial_state(3, 0.4, model.battery.ladder_space).amplitudes
        x_b = np.diag(np.repeat(np.abs(lad) ** 2, 2)).astype(complex)
        rho_b = _binomial_battery_state(model.battery, 3, 0.4, dyn.SECTOR_INITIAL)
        ref = product_q((x_s, x_b), (rho_s, rho_b), u)
        assert ref > 0.0
        assert abs(dyn.q_quantity((x_s, x_b), (rho_s, rho_b), u, model) - ref) <= 1e-12 * ref


class TestChunkBoundaries:
    """Q with chunks of a few of the widest blocks' rows and of a few label
    pairs. Blocks run in descending width, so chunks cross from one width
    to the next and pad the narrower blocks to the chunk's first; a
    diagonal label's pairs spread over several chunks of pairs."""

    @pytest.mark.parametrize("forms", FORMS, ids="-".join)
    @pytest.mark.parametrize("pairs", [2, 5])
    def test_small_chunks_match_dense(self, model_and_unitary, monkeypatch, pairs, forms):
        model, u = model_and_unitary
        widest = max(idx.size for idx, _ in u.blocks)
        monkeypatch.setattr(dyn, "_PAIR_CHUNK", pairs * widest ** 2)
        x, rho = random_terms(np.random.default_rng(11), model, forms)[0]
        ref = product_q(x, rho, u)
        assert abs(dyn.q_quantity(x, rho, u, model) - ref) <= 1e-12 * abs(ref)


class TestPairSelection:
    """The label pairs and the blocks Q visits, against the dense oracle."""

    def test_object_levels(self):
        model = make_model(**OBJECT_MODEL)
        assert model.levels.dtype == object
        assert max(b.size for b in dyn.spectral_blocks(model)) > 1
        u = dyn.sample_conserving_unitary(dyn.spectral_blocks(model), 29)
        rng = np.random.default_rng(8)
        cases = [(random_factor(rng, model.system_cutoff),
                  battery_factor(rng, model.battery.dim, form))
                 for form in ("vector", "diagonal", "diagonal")]
        for x in cases:
            for rho in cases:
                ref = product_q(x, rho, u)
                assert abs(dyn.q_quantity(x, rho, u, model) - ref) <= 1e-12 * abs(ref)

    def test_disjoint_offsets_give_exact_zero(self, model_and_unitary):
        # rho is diagonal (offset 0 only); X only couples system levels 0
        # and 1 within a sector, an offset of +-omega_s
        model, u = model_and_unitary
        rng = np.random.default_rng(4)
        x_s = np.zeros((model.system_cutoff,) * 2, dtype=complex)
        x_s[0, 1] = x_s[1, 0] = 1.0
        x = (x_s, np.eye(model.battery.dim, dtype=complex))
        rho = tuple(np.diag(rng.uniform(0.1, 1.0, d)).astype(complex)
                    for d in (model.system_cutoff, model.battery.dim))
        assert dyn.q_quantity(x, rho, u, model) == 0.0
        assert abs(product_q(x, rho, u)) <= 1e-12

    def test_visits_exactly_the_blocks_of_its_pairs(self, model_and_unitary, monkeypatch):
        # Q asks U for the blocks of each chunk of label pairs; together they
        # are the blocks that hold a row (n, b) of X's battery support and a
        # column (n', b') of rho's: for global-ft's operator zoo, the
        # binomial suites' vectors, one-sided system factors, and a term of
        # disjoint supports, which asks for none
        model, u = model_and_unitary
        asked, real = [], dyn.ConservingUnitary._read
        monkeypatch.setattr(dyn.ConservingUnitary, "_read",
                            lambda self, blocks=None: asked.append(blocks) or real(self, blocks))
        eye = np.eye(model.system_cutoff, dtype=complex)
        psi, phi = np.zeros((2, model.battery.dim), dtype=complex)
        psi[:4], phi[-4:] = 0.5, 0.5j
        strict = False
        for x, rho in (zoo_terms(model) + shared_terms(model) + sector_terms(model)
                       + [((eye, psi), (eye, phi))]):
            asked.clear()
            dyn.q_quantity(x, rho, u, model)
            want = blocks_holding(weights_of(x[1]), u) & blocks_holding(weights_of(rho[1]), u)
            got = np.zeros(u.size.size, dtype=bool)
            for blocks in asked:
                got[blocks] = True
            assert np.array_equal(got, want)
            strict |= 0 < want.sum() < want.size
        assert strict and not want.any()   # the disjoint supports, last, ask for no block


def zoo_terms(model):
    """global-ft's operator zoo as (x, rho) terms: every pair of a system
    family and a ladder family for X, in the final sector, against a rho
    drawn from the same families, in the initial sector. A rank-one ladder
    draw is a ``PureState``, family 3 a diagonal matrix."""
    rng = np.random.default_rng(1)
    cutoff, ladder = model.system_cutoff, model.battery.ladder_dim

    def factors(system, lad, sector):
        return (_random_system_operator(rng, cutoff, system),
                _on_sector(model.battery, _random_ladder_operator(rng, ladder, lad), sector))
    return [(factors(system, lad, 1), factors(int(rng.integers(7)), int(rng.integers(4)), 0))
            for system, lad in product(range(7), range(4))]


def shared_terms(model):
    """Three (x, rho) terms with one block set: the binomial suites' forward
    and reverse terms, as ``PureState``s, and a forward term at other
    weights. A binomial state at 0 < p < 1 spans the same levels for every p."""
    on = partial(_binomial_battery_state, model.battery, 3)   # (p, sector)
    eye = np.eye(model.system_cutoff, dtype=complex)
    gamma = fock.thermal_state(0.8, model.system_mode(0), tail_tol=1.0).matrix
    return [((eye, on(0.4, 1)), (gamma, on(0.2, 0))), ((eye, on(0.2, 0)), (gamma, on(0.4, 1))),
            ((eye, on(0.7, 1)), (gamma, on(0.4, 0)))]


def sector_terms(model):
    """Three (x, rho) terms with different block sets: forward and reverse
    binomial vectors on opposite switch sectors, the reverse with the
    one-sided x_s = N + a, and one of dense system factors beside random
    diagonal battery factors."""
    rng = np.random.default_rng(9)
    cutoff, bdim = model.system_cutoff, model.battery.dim
    on = [_binomial_battery_state(model.battery, 3, 0.4, sector).amplitudes for sector in (0, 1)]
    raising = (np.diag(np.arange(cutoff, dtype=complex))
               + np.diag(np.sqrt(np.arange(1, cutoff)), 1))
    rho_s = random_factor(rng, cutoff) / cutoff
    return [((np.eye(cutoff, dtype=complex), on[1]), (rho_s, on[0])),
            ((raising, on[0]), (rho_s, on[1])),
            ((random_factor(rng, cutoff), random_diagonal(rng, bdim)),
             (random_factor(rng, cutoff) / cutoff, random_diagonal(rng, bdim) / bdim))]


def stacked(terms):
    """The terms as one (x, rho) pair: a stack of system factors beside the
    sequence of battery factors."""
    return tuple((np.stack([term[i][0] for term in terms]), tuple(term[i][1] for term in terms))
                 for i in (0, 1))


def single_calls(terms, u, model):
    """One Q call per term."""
    return [dyn.q_quantity(x, rho, u, model) for x, rho in terms]


class TestReducedRead:
    """Q on battery factors given as vectors, read through the reduced U,
    against the dense oracle on their projectors. The system factors are
    dense: positive, or not Hermitian (N + a^dag as X, or its transpose plus
    i as rho) beside a positive one. Two random non-Hermitian factors are
    left out: their Re Q cancels, and any two sums of it differ relatively
    more."""

    def terms(self, model, rng):
        cutoff, bdim = model.system_cutoff, model.battery.dim
        raising = (np.diag(np.arange(cutoff, dtype=complex))
                   + np.diag(np.sqrt(np.arange(1, cutoff)), 1))
        positive = [random_factor(rng, cutoff) / cutoff for _ in range(3)]
        systems = [(positive[0], positive[1]), (raising, positive[2]),
                   (positive[2], raising.T + 1j * np.eye(cutoff))]
        # supports: full; half of the levels each, drawn apart; three shared levels
        few = rng.permutation(bdim) < 3
        supports = [(np.ones(bdim, dtype=bool),) * 2,
                    tuple(rng.permutation(bdim) < bdim // 2 for _ in range(2)), (few, few)]
        return [((x_s, random_vector(rng, held_x)), (rho_s, random_vector(rng, held_rho)))
                for (x_s, rho_s), (held_x, held_rho) in zip(systems, supports)]

    def test_vectors_match_their_projectors(self, model_and_unitary):
        model, u = model_and_unitary
        terms = self.terms(model, np.random.default_rng(12))
        singles = []
        for x, rho in terms:
            got, ref = dyn.q_quantity(x, rho, u, model), product_q(x, rho, u)
            assert type(got) is float and ref != 0.0
            assert abs(got - ref) <= 1e-14 * abs(ref)
            singles.append(got)
        got = dyn.q_quantity(*stacked(terms), u, model)
        assert got.shape == (3,)
        # a term's blocks outside another's add exact zeros: each term keeps
        # the bits of its single call
        assert got.tolist() == singles

    def test_states_and_operators_as_factors(self, model_and_unitary):
        # a PureState is read as its vector, an OperatorMatrix as its matrix
        model, u = model_and_unitary
        (x_s, psi), (rho_s, phi) = self.terms(model, np.random.default_rng(4))[0]
        space = model.battery.space
        state = dyn.q_quantity((x_s, fock.PureState(space, psi)),
                               (fock.OperatorMatrix(model.system_mode(0).space, rho_s),
                                fock.PureState(space, phi)), u, model)
        assert state == dyn.q_quantity((x_s, psi), (rho_s, phi), u, model)

    def test_disjoint_supports_give_exact_zero(self, model_and_unitary):
        # psi on the two lowest ladder levels, phi on the two highest: more
        # levels apart than any system gap spans, so no block holds both
        model, u = model_and_unitary
        psi, phi = np.zeros((2, model.battery.dim), dtype=complex)
        psi[:4], phi[-4:] = 0.5, 0.5j
        assert not (blocks_holding(psi, u) & blocks_holding(phi, u)).any()
        rng = np.random.default_rng(3)
        x_s, rho_s = (random_factor(rng, model.system_cutoff) for _ in range(2))
        assert dyn.q_quantity((x_s, psi), (rho_s, phi), u, model) == 0.0
        assert abs(product_q((x_s, psi), (rho_s, phi), u)) <= 1e-12

    @pytest.mark.parametrize("shapes", ["short-psi", "long-phi", "stacked-short"])
    def test_vector_of_wrong_length(self, shapes):
        model = MODELS["ratio-2"]()
        u = SAMPLERS["conserving"](model, 23)
        cutoff, bdim = model.system_cutoff, model.battery.dim
        eye, v = np.eye(cutoff, dtype=complex), np.full(bdim, bdim ** -0.5, dtype=complex)
        x, rho = {"short-psi": ((eye, v[:-1]), (eye, v)),
                  "long-phi": ((eye, v), (eye, np.append(v, 0.0))),
                  "stacked-short": ((eye[None], v[None, :-1]), (eye[None], v[None, :-1]))}[shapes]
        with pytest.raises(DimensionError):
            dyn.q_quantity(x, rho, u, model)


class TestStackedQ:
    """Q on stacks of factor pairs. Terms that visit one block set get the
    bits of one call each; terms with different sets share the union's
    chunks, so their sums may round differently."""

    @pytest.mark.parametrize("size", [2, 3])
    def test_shared_pairs_give_the_single_calls_bits(self, model_and_unitary, size):
        model, u = model_and_unitary
        terms = shared_terms(model)[:size]
        got = dyn.q_quantity(*stacked(terms), u, model)
        assert isinstance(got, np.ndarray) and got.shape == (size,)
        assert got.tobytes() == np.array(single_calls(terms, u, model)).tobytes()

    @pytest.mark.parametrize("size", [2, 3])
    def test_different_pairs_match_the_single_calls(self, model_and_unitary, size):
        model, u = model_and_unitary
        terms = sector_terms(model)[-size:]
        got = dyn.q_quantity(*stacked(terms), u, model)
        assert got.shape == (size,)
        for q, single in zip(got.tolist(), single_calls(terms, u, model)):
            assert abs(q - single) <= 1e-13 * abs(single)

    def test_each_term_matches_dense(self, model_and_unitary):
        model, u = model_and_unitary
        terms = sector_terms(model)
        got = dyn.q_quantity(*stacked(terms), u, model)
        for q, (x, rho) in zip(got.tolist(), terms):
            ref = product_q(x, rho, u)
            assert abs(q - ref) <= 1e-12 * abs(ref)

    def test_two_d_call_gives_a_float(self, model_and_unitary):
        model, u = model_and_unitary
        x, rho = sector_terms(model)[0]
        assert type(dyn.q_quantity(x, rho, u, model)) is float

    @pytest.mark.parametrize("shape", ["unequal-length", "mixed-2d", "empty"])
    def test_malformed_stacks(self, shape):
        model = MODELS["ratio-2"]()
        u = SAMPLERS["conserving"](model, 23)
        (x_s, x_b), (rho_s, rho_b) = stacked(sector_terms(model))
        x, rho = {"unequal-length": ((x_s, x_b[:2]), (rho_s, rho_b)),
                  "mixed-2d": ((x_s, x_b), (rho_s[0], rho_b)),
                  "empty": ((x_s[:0], x_b[:0]), (rho_s[:0], rho_b[:0]))}[shape]
        with pytest.raises(DimensionError):
            dyn.q_quantity(x, rho, u, model)


def mixed_terms(model, rng):
    """A forward and a reverse term as global-ft draws them when one ladder
    draw is rank-one and the other is not: X's battery factors are a
    binomial ``PureState`` on the final sector and a positive diagonal on
    the initial one, rho's their Gibbs maps, a ``PureState`` and a diagonal
    ``DensityState``; so the forward term is vector x diagonal and the
    reverse diagonal x vector. The system factors are dense and positive."""
    battery, cutoff, h_b = model.battery, model.system_cutoff, model.battery.energies
    lads = (_random_ladder_operator(rng, battery.ladder_dim, 1),
            _random_ladder_operator(rng, battery.ladder_dim, 3))
    x_b_f, x_b_i = (_on_sector(battery, lad, sector)
                    for lad, sector in zip(lads, (dyn.SECTOR_FINAL, dyn.SECTOR_INITIAL)))
    x_s_f, x_s_i, rho_s_i, rho_s_f = (random_factor(rng, cutoff) / cutoff for _ in range(4))
    return [((x_s_f, x_b_f), (rho_s_i, gibbs.gibbs_map(x_b_i, h_b, 0.7))),
            ((x_s_i, x_b_i), (rho_s_f, gibbs.gibbs_map(x_b_f, h_b, 0.7)))]


class TestFactorForms:
    """A stack whose terms take different battery forms, and the battery
    factors Q rejects."""

    def check_mixed_stack(self, model, u):
        terms = mixed_terms(model, np.random.default_rng(17))
        assert [battery_array(term[i][1]).ndim for term in terms for i in (0, 1)] == [1, 2, 2, 1]
        got = dyn.q_quantity(*stacked(terms), u, model)
        for q, single, (x, rho) in zip(got.tolist(), single_calls(terms, u, model), terms):
            ref = product_q(x, rho, u)
            assert abs(q - ref) <= 1e-12 * abs(ref)
            assert abs(q - single) <= 1e-13 * abs(single)

    def test_mixed_stack_matches_dense_and_single_calls(self, model_and_unitary):
        self.check_mixed_stack(*model_and_unitary)

    def test_mixed_stack_at_object_levels(self):
        model = make_model(**OBJECT_MODEL)
        assert model.levels.dtype == object
        u = dyn.sample_conserving_unitary(dyn.spectral_blocks(model), 29)
        self.check_mixed_stack(model, u)

    @pytest.mark.parametrize("case", ["binomial-projector", "switch-coherent",
                                      "off-diagonal-nan", "short-battery-sequence",
                                      "long-battery-sequence"])
    def test_rejected_battery_factors(self, case):
        model = MODELS["ratio-2"]()
        u = SAMPLERS["conserving"](model, 23)
        eye_s, eye_b = (np.eye(d, dtype=complex) for d in (model.system_cutoff, model.battery.dim))
        state = _binomial_battery_state(model.battery, 3, 0.4, dyn.SECTOR_INITIAL)
        nan = eye_b.copy()
        nan[0, 1] = math.nan
        weights = np.abs(fock.binomial_state(3, 0.4, model.battery.ladder_space).amplitudes) ** 2
        stack = np.stack((eye_s, eye_s))
        x, rho = {"binomial-projector": ((eye_s, state.projector()), (eye_s, state)),
                  "switch-coherent": ((eye_s, switch_coherent(np.diag(weights))), (eye_s, eye_b)),
                  "off-diagonal-nan": ((eye_s, eye_b), (eye_s, nan)),
                  "short-battery-sequence": ((stack, (eye_b,)), (stack, (state, eye_b))),
                  "long-battery-sequence": ((stack, (eye_b,) * 3), (stack, (state, eye_b)))}[case]
        with pytest.raises(DimensionError):
            dyn.q_quantity(x, rho, u, model)


class TestReadsEqualDense:
    def test_transition_probability(self, model_and_unitary):
        model, u = model_and_unitary
        um = dense(u)
        gamma = fock.photon_added_state(0.9, model.system_mode(0), tail_tol=1.0)
        b_i = model.battery.basis_index(model.battery.ladder_dim // 2, 0)
        for b_f in range(model.battery.dim):
            assert dyn.transition_probability(b_f, gamma, b_i, u, model) == \
                dense_transition(um, model, b_f, gamma.matrix, b_i)

    def test_conditional_photon_number(self, model_and_unitary):
        model, u = model_and_unitary
        um = dense(u)
        gamma = fock.photon_subtracted_state(0.7, model.system_mode(1), tail_tol=1.0)
        rho = gamma.matrix
        weights = np.arange(model.system_cutoff, dtype=float) + 1.0
        b_i = model.battery.basis_index(model.battery.ladder_dim // 2, 1)
        checked = 0
        for b_f in range(model.battery.dim):
            sub = dense_sub(um, model, b_f, b_i)
            prob = dense_expectation(sub, rho)
            if prob <= dyn.DEFAULT_PROB_FLOOR:
                continue
            q_val = dense_expectation(sub, rho, weights)
            assert dyn.conditional_photon_number(b_f, gamma, b_i, u, model, "N+1") == \
                (q_val / prob, prob)
            checked += 1
        assert checked >= 1

    def test_work_distribution(self, model_and_unitary):
        model, u = model_and_unitary
        um = dense(u)
        level = u.window[0] if u.window else model.battery.ladder_dim // 2
        for direction, sector in (("F", 0), ("R", 1)):
            gamma = fock.thermal_state(1.1, model.system_mode(sector), tail_tol=1.0)
            dist = dyn.work_distribution(direction, gamma, level, u, model)
            per_level = dense_work(um, model, gamma.matrix, level, sector)
            spacing = model.battery.spacing
            assert dist == {spacing * (level - w): float(per_level[w])
                            for w in range(model.battery.ladder_dim)}


class TestStackedReads:
    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_stacked_transition_probability(self, model_and_unitary, direction):
        # one index an array over every battery state: the same bits as one
        # scalar read per entry, and as the dense oracle
        model, u = model_and_unitary
        um = dense(u)
        gamma = fock.photon_added_state(0.9, model.system_mode(0), tail_tol=1.0)
        b_0 = model.battery.basis_index(model.battery.ladder_dim // 2, 0)
        stack = np.arange(model.battery.dim)
        pairs = [(b, b_0) if direction == "forward" else (b_0, b) for b in stack.tolist()]
        read = dyn.transition_probability(*((stack, gamma, b_0) if direction == "forward"
                                            else (b_0, gamma, stack)), u, model)
        assert isinstance(read, np.ndarray) and read.shape == stack.shape
        scalars = [dyn.transition_probability(b_f, gamma, b_i, u, model) for b_f, b_i in pairs]
        assert read.tobytes() == np.array(scalars).tobytes()
        assert read.tolist() == [dense_transition(um, model, b_f, gamma.matrix, b_i)
                                 for b_f, b_i in pairs]

    @pytest.mark.parametrize("which", ["N", "N+1"])
    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_stacked_conditional_photon_number(self, model_and_unitary, direction, which):
        # the same bits as one scalar read per entry; NaN where a scalar
        # read raises for a probability at or below the floor
        model, u = model_and_unitary
        gamma = fock.photon_subtracted_state(0.7, model.system_mode(1), tail_tol=1.0)
        b_0 = model.battery.basis_index(model.battery.ladder_dim // 2, 1)
        stack = np.arange(model.battery.dim)
        pairs = [(b, b_0) if direction == "forward" else (b_0, b) for b in stack.tolist()]
        means, probs = dyn.conditional_photon_number(
            *((stack, gamma, b_0) if direction == "forward" else (b_0, gamma, stack)),
            u, model, which)
        assert means.shape == probs.shape == stack.shape
        defined = 0
        for (b_f, b_i), mean, prob in zip(pairs, means.tolist(), probs.tolist()):
            if prob <= dyn.DEFAULT_PROB_FLOOR:
                assert math.isnan(mean)
                with pytest.raises(UndefinedRatioError):
                    dyn.conditional_photon_number(b_f, gamma, b_i, u, model, which)
                continue
            scalar = dyn.conditional_photon_number(b_f, gamma, b_i, u, model, which)
            assert np.array(scalar).tobytes() == np.array((mean, prob)).tobytes()
            defined += 1
        assert defined >= 1


def random_density(rng, d):
    """A random density matrix with no zero entry."""
    g = random_factor(rng, d)
    return g / np.trace(g).real


class TestReadPaths:
    # a rho with every off-diagonal entry exactly zero is read from its
    # diagonal; any other rho is contracted whole, as dense_expectation does
    def test_non_diagonal_rho_reads_as_the_dense_contraction(self, model_and_unitary):
        model, u = model_and_unitary
        um = dense(u)
        rho = random_density(np.random.default_rng(41), model.system_cutoff)
        weights = np.arange(model.system_cutoff, dtype=float)
        b_0 = model.battery.basis_index(model.battery.ladder_dim // 2, 0)
        checked = 0
        for b_f in range(model.battery.dim):
            sub = dense_sub(um, model, b_f, b_0)
            prob = dense_expectation(sub, rho)
            assert dyn.transition_probability(b_f, rho, b_0, u, model) == max(prob, 0.0)
            if prob > dyn.DEFAULT_PROB_FLOOR:
                assert dyn.conditional_photon_number(b_f, rho, b_0, u, model, "N") == \
                    (dense_expectation(sub, rho, weights) / prob, prob)
                checked += 1
        assert checked >= 1
        level = u.window[0] if u.window else model.battery.ladder_dim // 2
        per_level = dense_work(um, model, rho, level, 0)
        assert dyn.work_distribution("F", rho, level, u, model) == {
            model.battery.spacing * (level - w): float(per_level[w])
            for w in range(model.battery.ladder_dim)}

    @pytest.mark.parametrize("name, sampler", [(m, s) for m in MODELS for s in SAMPLERS
                                               if m != "singletons"])
    @pytest.mark.parametrize("entry", [1e-300, math.nan])
    def test_any_nonzero_off_diagonal_entry_takes_the_general_path(self, name, sampler,
                                                                   entry):
        # singleton blocks give both paths the same terms, so they are left out
        model = MODELS[name]()
        u = SAMPLERS[sampler](model, 23)
        um = dense(u)
        gamma = fock.thermal_state(0.9, model.system_mode(0), tail_tol=1.0).matrix
        rho = gamma.copy()
        rho[0, 1] = entry
        b_0 = model.battery.basis_index(model.battery.ladder_dim // 2, 0)
        stack = np.arange(model.battery.dim)
        read = dyn.transition_probability(stack, rho, b_0, u, model)
        diagonal = np.array([dense_transition(um, model, b_f, gamma, b_0) for b_f in stack])
        if math.isnan(entry):
            assert np.isnan(read).all() and not np.isnan(diagonal).any()
        else:
            assert read.tolist() == [dense_transition(um, model, b_f, rho, b_0)
                                     for b_f in stack]
            assert (read != diagonal).any()
        assert dyn.transition_probability(stack, gamma, b_0, u, model).tolist() == \
            diagonal.tolist()

    @pytest.mark.parametrize("maker", [fock.thermal_state, fock.photon_added_state,
                                       fock.photon_subtracted_state])
    def test_diagonal_reads_are_never_negative(self, model_and_unitary, maker):
        # the unclamped probabilities, as conditional_photon_number returns them
        model, u = model_and_unitary
        stack = np.arange(model.battery.dim)
        for beta, sector in product((0.05, 0.9, 6.0), (0, 1)):
            gamma = maker(beta, model.system_mode(sector), tail_tol=1.0)
            b_0 = model.battery.basis_index(model.battery.ladder_dim // 2, sector)
            for args in ((stack, gamma, b_0), (b_0, gamma, stack)):
                prob = dyn.conditional_photon_number(*args, u, model, "N+1")[1]
                assert not np.signbit(prob).any() and not np.isnan(prob).any()


def fraction_partition(model):
    """The exact energies as Fractions in joint-index order, their equality
    classes ascending in energy, and the number of equal-energy pairs that
    straddle the two sectors."""
    spacing = model.battery.spacing
    energies = [omega * Fraction(2 * n + 1, 2) + spacing * w
                for n in range(model.system_cutoff)
                for w in range(model.battery.ladder_dim)
                for omega in (model.omega_i, model.omega_f)]
    groups: dict[Fraction, list[int]] = {}
    for k, e in enumerate(energies):
        groups.setdefault(e, []).append(k)
    blocks = [idx for _, idx in sorted(groups.items())]
    crossings = sum(sum(k % 2 == 0 for k in idx) * sum(k % 2 == 1 for k in idx)
                    for idx in blocks)
    return energies, blocks, crossings


# (omega_i, omega_f, cutoff, ladder, spacing, levels dtype)
PARTITION_MODELS = {
    **{f"global-ft-{wi}-{wf}": (wi, wf, 12, 24, None, np.int64)
       for wi, wf in product(_FT_FREQUENCIES, repeat=2)},
    "crooks-16x96": (1, Fraction(3, 2), 16, 96, None, np.int64),
    # float sqrt(2) is p / 2**52: the unit is 2**-53, the levels still fit int64
    "sqrt2": (1, math.sqrt(2), 5, 12, Fraction(1, 2), np.int64),
    # float 0.1 is q / 2**55: 256 ladder levels of 1/2 = 2**55 units push
    # the top level past int64
    "float-0.1": (1, 0.1, 5, 256, Fraction(1, 2), object),
}


class TestPartitionOracle:
    @pytest.mark.parametrize("name", PARTITION_MODELS)
    def test_blocks_match_fraction_grouping(self, name):
        omega_i, omega_f, cutoff, ladder, spacing, dtype = PARTITION_MODELS[name]
        model = make_model(omega_i, omega_f, cutoff, ladder, spacing,
                           min_cross_degeneracies=0)
        energies, blocks, crossings = fraction_partition(model)
        assert model.levels.dtype == dtype
        assert [int(level) * model.energy_unit for level in model.levels] == energies
        got = dyn.spectral_blocks(model)
        assert [b.tolist() for b in got] == blocks
        assert sum(int(np.sum(b % 2 == 0)) * int(np.sum(b % 2 == 1)) for b in got) \
            == crossings
        # build_joint_model counts the same crossings
        make_model(omega_i, omega_f, cutoff, ladder, spacing,
                   min_cross_degeneracies=crossings)
        with pytest.raises(IncommensurateError):
            make_model(omega_i, omega_f, cutoff, ladder, spacing,
                       min_cross_degeneracies=crossings + 1)


def identity_pairs(model):
    return [(b, np.eye(b.size, dtype=complex))
            for b in dyn.spectral_blocks(model)]


class TestValidation:
    MODEL = dict(omega_i=1, omega_f=2, cutoff=3, ladder=8)

    def blocks_with(self, model, replace):
        """Identity blocks, with the first block of size 2 replaced."""
        pairs = identity_pairs(model)
        at = next(i for i, (idx, _) in enumerate(pairs) if len(idx) == 2)
        pairs[at] = (pairs[at][0], replace)
        return padded_unitary(pairs)

    def test_identity_blocks_are_valid(self):
        model = make_model(**self.MODEL)
        self.blocks_with(model, np.eye(2, dtype=complex)).assert_valid(model)

    def test_rejects_nonunitary_block(self):
        model = make_model(**self.MODEL)
        with pytest.raises(ValueError, match="unitary"):
            self.blocks_with(model, 1.001 * np.eye(2, dtype=complex)).assert_valid(model)

    def test_rejects_nonsymmetric_block(self):
        # a rotation: unitary, but not symmetric
        model = make_model(**self.MODEL)
        c, s = np.cos(0.3), np.sin(0.3)
        rotation = np.array([[c, -s], [s, c]], dtype=complex)
        with pytest.raises(ValueError, match="symmetric"):
            self.blocks_with(model, rotation).assert_valid(model)

    def test_rejects_block_mixing_energies(self):
        # two singletons of different energy merged into one identity block
        model = make_model(**self.MODEL)
        pairs = identity_pairs(model)
        singletons = [i for i, (idx, _) in enumerate(pairs) if len(idx) == 1][:2]
        i0, i1 = (pairs[i][0] for i in singletons)
        assert model.levels[i0[0]] != model.levels[i1[0]]
        merged = [(np.concatenate([i0, i1]), np.eye(2, dtype=complex))] + \
            [pair for i, pair in enumerate(pairs) if i not in singletons]
        with pytest.raises(ValueError, match="energies"):
            padded_unitary(merged).assert_valid(model)

    def test_rejects_blocks_not_partitioning_basis(self):
        model = make_model(**self.MODEL)
        pairs = identity_pairs(model)
        with pytest.raises(DimensionError):
            padded_unitary(pairs[1:]).assert_valid(model)

    @pytest.mark.parametrize("malformed", ["missing", "repeated", "out-of-range"])
    def test_constructor_rejects_blocks_it_cannot_lay_out(self, malformed):
        model = make_model(**self.MODEL)
        pairs = identity_pairs(model)
        at = next(i for i, (idx, _) in enumerate(pairs) if len(idx) == 2)
        idx, mat = pairs[at]
        pairs[at] = {"missing": (idx[:1], mat[:1, :1]),
                     "repeated": (idx[[0, 0]], mat),
                     "out-of-range": (np.array([idx[0], model.dim]), mat)}[malformed]
        with pytest.raises(DimensionError):
            padded_unitary(pairs)

    @pytest.mark.parametrize("shape", ["fewer-blocks", "narrow", "non-square"])
    def test_constructor_rejects_a_wrong_shape(self, shape):
        model = make_model(**self.MODEL)
        blocks = dyn.spectral_blocks(model)
        n, s_max = len(blocks), max(b.size for b in blocks)
        dims = {"fewer-blocks": (n - 1, s_max, s_max), "narrow": (n, s_max - 1, s_max - 1),
                "non-square": (n, s_max, s_max + 1)}[shape]
        with pytest.raises(DimensionError, match="matrices"):
            dyn.ConservingUnitary(blocks, np.zeros(dims, dtype=complex))

    @pytest.mark.parametrize("entry", ["row", "column", "both"])
    def test_constructor_rejects_nonzero_padding(self, entry):
        # a block of 2 indices beside a larger one: one entry past its size
        model = make_model(**self.MODEL)
        u = padded_unitary(identity_pairs(model))
        at = next(b for b, s in enumerate(u.size) if s == 2)
        assert u.size.max() > 2
        stack = np.array(u.matrices)
        stack[at][{"row": (2, 0), "column": (1, 2), "both": (2, 2)}[entry]] = 1e-300
        with pytest.raises(DimensionError, match="zero past"):
            dyn.ConservingUnitary(dyn.spectral_blocks(model), stack)


class TestMemory:
    """At the crooks suites' 16 x 96 (d = 3072) a dense unitary takes 144 MiB."""

    @pytest.mark.parametrize("ratio", [Fraction(3, 2), Fraction(2), Fraction(5)])
    def test_crooks_added_blocks_under_2_mib(self, ratio):
        model = make_model(1, ratio, 16, 96)
        u = dyn.sample_conserving_unitary(dyn.spectral_blocks(model), 7)
        assert model.dim == 3072
        assert sum(idx.nbytes + mat.nbytes for idx, mat in u.blocks) <= 2 * 2 ** 20

    def test_sampling_and_reads_allocate_no_dense_unitary(self):
        model = make_model(1, Fraction(3, 2), 16, 96)
        blocks = dyn.spectral_blocks(model)
        gamma = fock.photon_added_state(1.0, model.system_mode(0), tail_tol=1.0)
        b_i = model.battery.basis_index(48, 0)
        tracemalloc.start()
        try:
            u = dyn.sample_conserving_unitary(blocks, 7)
            dyn.transition_probability(model.battery.basis_index(47, 1), gamma, b_i, u, model)
            dyn.work_distribution("F", gamma, 48, u, model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_unitary_keeps_only_its_padded_layout(self):
        # each draw is written straight into the padded arrays, and nothing
        # else outlives the call: 3.0 MiB of layout at this size
        model = make_model(1, Fraction(3, 2), 16, 96)
        blocks = dyn.spectral_blocks(model)
        gamma = fock.photon_added_state(1.0, model.system_mode(0), tail_tol=1.0)
        b_i = model.battery.basis_index(48, 0)
        tracemalloc.start()
        try:
            u = dyn.sample_conserving_unitary(blocks, 7)
            dyn.transition_probability(model.battery.basis_index(47, 1), gamma, b_i, u, model)
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert current <= 3.5 * 2 ** 20

    def test_sampling_peaks_near_the_unitary_it_returns(self):
        # no second copy of the blocks during the draw: the peak stays
        # within 15% of the arrays U keeps (1.09 here; 1.38 with an
        # unpadded copy of every block beside the layout)
        model = make_model(1, Fraction(3, 2), 16, 96)
        blocks = dyn.spectral_blocks(model)
        tracemalloc.start()
        try:
            u = dyn.sample_conserving_unitary(blocks, 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = sum(a.nbytes for a in (u.indices, u.matrices, u.size, u.block, u.slot))
        assert held >= 3 * 2 ** 20
        assert peak <= 1.15 * held

    def test_crooks_scan_holds_one_unitary_at_a_time(self):
        # each U is freed before the next is sampled: at 16 x 96 the scan
        # peaks at 4.3 MiB, and at 7.0 MiB when two padded layouts overlap
        config = default_config("crooks-added", seed=7, system_cutoff=16, ladder_dim=96,
                                chi_grid=(0.5,))
        tracemalloc.start()
        try:
            run_scenario(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 2 ** 20

    def test_diagonal_factors_read_in_chunks(self):
        # full diagonal battery factors on both sides link 24,320 label
        # pairs, whose cutoff x cutoff reduced U's would take 380 MiB at
        # once; they are read _PAIR_CHUNK entries at a time. With diagonal
        # system factors, Q is sum_rc X_rr |U_rc|^2 rho_cc over U's blocks
        battery = dyn.SwitchedBattery(128, dyn.battery_spacing_for(1, 1))
        model = dyn.build_joint_model(1, 1, 32, battery)
        u = dyn.sample_conserving_unitary(dyn.spectral_blocks(model), 13)
        rng = np.random.default_rng(0)
        x_s = np.diag(np.arange(1, model.system_cutoff + 1)).astype(complex)
        rho_s = fock.thermal_state(0.5, model.system_mode(0), tail_tol=1.0).matrix
        x_b, rho_b = (np.diag(rng.uniform(0.1, 1.0, battery.dim)).astype(complex)
                      for _ in range(2))
        tracemalloc.start()
        try:
            q = dyn.q_quantity((x_s, x_b), (rho_s, rho_b), u, model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2 ** 20
        x, rho = (np.kron(np.diag(s).real, np.diag(b).real)
                  for s, b in ((x_s, x_b), (rho_s, rho_b)))
        ref = sum(x[idx[:s]] @ (np.abs(mat[:s, :s]) ** 2) @ rho[idx[:s]]
                  for idx, mat, s in zip(u.indices, u.matrices, u.size))
        assert abs(q - ref) <= 1e-12 * ref

    def test_binomial_align_at_d_8192(self):
        # dense X and rho would take 1 GiB each here; the Q calls on the
        # binomial vectors, the block layout they build included, stay
        # within 32 MiB
        battery = dyn.SwitchedBattery(128, dyn.battery_spacing_for(1, 1))
        model = dyn.build_joint_model(1, 1, 32, battery)
        assert model.dim == 8192
        chi, n, p_i, p_f = 0.5, 4, 0.5, 0.8
        spacing = float(battery.spacing)
        beta = 2.0 * chi / spacing
        u = dyn.sample_conserving_unitary(dyn.spectral_blocks(model), 13)
        gamma = fock.thermal_state(beta, model.system_mode(0), tail_tol=1.0)
        h_b = battery.energies
        x_b_i = _binomial_battery_state(battery, n, p_i, dyn.SECTOR_INITIAL)
        x_b_f = _binomial_battery_state(battery, n, p_f, dyn.SECTOR_FINAL)
        rho_b_i = gibbs.gibbs_map(x_b_i, h_b, beta)
        rho_b_f = gibbs.gibbs_map(x_b_f, h_b, beta)
        eye_s = np.eye(model.system_cutoff, dtype=complex)
        stack = ((np.stack((eye_s, eye_s)), (x_b_f, x_b_i)),
                 (np.stack((gamma.matrix,) * 2), (rho_b_i, rho_b_f)))
        tracemalloc.start()
        try:
            p_fwd = dyn.q_quantity((eye_s, x_b_f), (gamma, rho_b_i), u, model)
            p_rev = dyn.q_quantity((eye_s, x_b_i), (gamma, rho_b_f), u, model)
            both = dyn.q_quantity(*stack, u, model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2 ** 20
        assert both.tolist() == [p_fwd, p_rev]   # one block set: the same bits
        assert p_fwd > 1e-12 and p_rev > 1e-12
        predicted = math.exp(beta * cf.q_align(p_i, p_f, chi)
                             * cf.w_q_align(n, p_i, p_f, beta, spacing))
        assert p_fwd / p_rev == pytest.approx(predicted, rel=1e-8)
