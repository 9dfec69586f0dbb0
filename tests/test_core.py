from itertools import product

import numpy as np
import pytest

from qcorr import (
    DensityMatrix,
    EigensolverError,
    HermitianOperator,
    PartyStructure,
    PureState,
    WhiteNoiseState,
    bipartitions,
    combine_bipartite,
    expectation,
    ghz4,
    ghz_4x3,
    max_entangled_qudit,
    min_eigenvalue,
    outcome_probabilities,
    schmidt_max_sq,
    spectral_norm,
)
from qcorr.core import cut_axes

Q1 = PartyStructure((2,))


def _random_hermitian(rng, dim):
    mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (mat + mat.conj().T) / 2


def _random_state(rng, dims):
    vec = rng.standard_normal(np.prod(dims)) + 1j * rng.standard_normal(np.prod(dims))
    return PureState(vec / np.linalg.norm(vec), PartyStructure(dims))


def test_party_structure_validation():
    assert PartyStructure((2, 3, 4)).dim == 24
    with pytest.raises(ValueError):
        PartyStructure(())
    with pytest.raises(ValueError):
        PartyStructure((2, 1))


@pytest.mark.parametrize("bad", [2.5, np.float64(3.7), 2.0, "3"])
def test_party_structure_refuses_non_integral_dims(bad):
    with pytest.raises(ValueError, match="integer"):
        PartyStructure((bad, 2))


def test_party_structure_takes_numpy_ints():
    dims = PartyStructure((np.int64(3), np.int32(2))).dims
    assert dims == (3, 2)
    assert all(type(d) is int for d in dims)


def test_pure_state_norm_enforced():
    with pytest.raises(ValueError):
        PureState(np.ones(4), PartyStructure((2, 2)))
    with pytest.raises(ValueError):
        PureState(np.ones(3) / np.sqrt(3), PartyStructure((2, 2)))


@pytest.mark.parametrize(
    "build",
    [
        lambda: PureState([np.nan, 0, 0, 0], PartyStructure((2, 2))),
        lambda: HermitianOperator(np.full((4, 4), np.nan), PartyStructure((2, 2))),
        lambda: DensityMatrix(np.full((4, 4), np.nan), PartyStructure((2, 2))),
    ],
    ids=["PureState", "HermitianOperator", "DensityMatrix"],
)
def test_nan_input_is_rejected(build):
    # `dev > tol` is False for NaN, so NaN must fail `dev <= tol`; an eigensolver
    # LinAlgError (also a ValueError) would make the CLI exit 3, not 2
    with pytest.raises(ValueError) as excinfo:
        build()
    assert not isinstance(excinfo.value, np.linalg.LinAlgError)


@pytest.mark.parametrize("make", [HermitianOperator, DensityMatrix], ids=lambda make: make.__name__)
@pytest.mark.parametrize(
    "entries",
    [np.full((2, 2), np.inf), np.array([[1.0, np.inf], [np.inf, 0.0]]), np.array([[0.5, 1j * np.inf], [0.0, 0.5]])],
    ids=["all", "off-diagonal", "imaginary"],
)
def test_non_finite_entries_are_refused_before_any_arithmetic(make, entries):
    # inf - inf in the Hermitian deviation would emit a RuntimeWarning, which
    # the suite turns into an error, instead of the ValueError
    with pytest.raises(ValueError, match="non-finite"):
        make(entries, Q1)


def test_hermitian_operator_rejects_non_hermitian():
    with pytest.raises(ValueError):
        HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), Q1)


def test_expectation_of_identity():
    rng = np.random.default_rng(7)
    state = _random_state(rng, (2, 2, 2))
    assert abs(expectation(HermitianOperator(np.eye(8), state.structure), state) - 1.0) < 1e-12


def test_expectation_dimension_mismatch():
    with pytest.raises(ValueError):
        expectation(HermitianOperator(np.eye(2), Q1), ghz4(np.pi / 4, 0.0))


def test_expectation_sigma_x_fourfold():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    op = HermitianOperator(np.kron(np.kron(sx, sx), np.kron(sx, sx)), PartyStructure((2,) * 4))
    assert abs(expectation(op, ghz4(np.pi / 4, 0.0)) - 1.0) < 1e-12


def test_expectation_factorizes_over_kron():
    rng = np.random.default_rng(11)
    for _ in range(10):
        op_a = HermitianOperator(_random_hermitian(rng, 2), Q1)
        op_b = HermitianOperator(_random_hermitian(rng, 3), PartyStructure((3,)))
        u = _random_state(rng, (2,))
        v = _random_state(rng, (3,))
        product_structure = PartyStructure((2, 3))
        op_ab = HermitianOperator(np.kron(op_a.matrix, op_b.matrix), product_structure)
        left = expectation(op_ab, PureState(np.kron(u.amplitudes, v.amplitudes), product_structure))
        right = expectation(op_a, u) * expectation(op_b, v)
        assert abs(left - right) < 1e-10


def test_min_eigenvalue_examples():
    assert abs(min_eigenvalue(HermitianOperator(np.eye(16), PartyStructure((2, 2, 2, 2)))) - 1.0) < 1e-12
    op = HermitianOperator(np.diag([3.0, -2.0]).astype(complex), Q1)
    assert abs(min_eigenvalue(op) + 2.0) < 1e-12


def test_min_eigenvalue_shift():
    rng = np.random.default_rng(3)
    for _ in range(10):
        op = HermitianOperator(_random_hermitian(rng, 6), PartyStructure((2, 3)))
        c = float(rng.uniform(-2.0, 2.0))
        shifted = HermitianOperator(op.matrix + c * np.eye(6), op.structure)
        assert abs(min_eigenvalue(shifted) - (min_eigenvalue(op) + c)) < 1e-10


def test_eigensolver_breakdown_is_an_eigensolver_error(monkeypatch):
    def _diverge(matrix):
        raise np.linalg.LinAlgError("forced")

    op = HermitianOperator(np.eye(2), Q1)
    monkeypatch.setattr(np.linalg, "eigvalsh", _diverge)
    for spectral in (min_eigenvalue, spectral_norm):
        with pytest.raises(EigensolverError, match="did not converge: forced"):
            spectral(op)


def test_schmidt_ghz4_single_party():
    state = ghz4(np.pi / 6, 0.0)
    assert abs(schmidt_max_sq(state, (1,)) - 0.75) < 1e-12


def test_schmidt_ghz4x3_quarter():
    state = ghz_4x3()
    for cut in bipartitions(3):
        assert abs(schmidt_max_sq(state, cut) - 0.25) < 1e-12


def test_schmidt_product_state_is_one():
    rng = np.random.default_rng(5)
    structure = PartyStructure((2, 3, 2))
    for cut in bipartitions(3):
        state = combine_bipartite(
            rng.standard_normal(int(np.prod([structure.dims[p - 1] for p in cut]))),
            cut,
            rng.standard_normal(structure.dim // int(np.prod([structure.dims[p - 1] for p in cut]))),
            structure,
        )
        assert abs(schmidt_max_sq(state, cut) - 1.0) < 1e-10


def test_schmidt_entangled_below_one():
    bell = max_entangled_qudit(2)
    assert abs(schmidt_max_sq(bell, (1,)) - 0.5) < 1e-12


def test_schmidt_bounds():
    rng = np.random.default_rng(13)
    for dims in ((2, 2), (2, 3, 2), (4, 4, 4)):
        state = _random_state(rng, dims)
        for cut in bipartitions(len(dims)):
            dim_a = int(np.prod([dims[p - 1] for p in cut]))
            dim_b = int(np.prod(dims)) // dim_a
            value = schmidt_max_sq(state, cut)
            assert 1.0 / min(dim_a, dim_b) - 1e-12 <= value <= 1.0 + 1e-12


def test_schmidt_rejects_bad_subsets():
    state = ghz4(np.pi / 4, 0.0)
    with pytest.raises(ValueError):
        schmidt_max_sq(state, ())
    with pytest.raises(ValueError):
        schmidt_max_sq(state, (1, 2, 3, 4))


def test_cut_axes_puts_side_a_first():
    # side a ascending, then the rest ascending; side a's dimension is 3 * 5
    assert cut_axes((2, 3, 4, 5), (4, 2)) == ((1, 3, 0, 2), 15)


def test_bipartition_count():
    assert len(bipartitions(2)) == 1
    assert len(bipartitions(3)) == 3
    assert len(bipartitions(4)) == 7
    assert all(cut[0] == 1 for cut in bipartitions(4))


def test_combine_bipartite_round_trip():
    rng = np.random.default_rng(17)
    structure = PartyStructure((2, 2, 2))
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    state = combine_bipartite(a, (2,), b, structure)
    # party 2 amplitudes factor out of the global ordering
    tensor = state.amplitudes.reshape(2, 2, 2)
    flat = tensor.transpose(1, 0, 2).reshape(2, 4)
    assert abs(schmidt_max_sq(state, (2,)) - 1.0) < 1e-12
    assert np.linalg.matrix_rank(flat, tol=1e-10) == 1


def _random_unitary(rng, dim):
    mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(mat)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("dims", [(2, 3, 2), (4, 4, 4), (5, 5)])
def test_outcome_probabilities_match_dense_reference(dims):
    rng = np.random.default_rng(sum(dims))
    unitaries = [_random_unitary(rng, d) for d in dims]
    dense = unitaries[0]
    for u in unitaries[1:]:
        dense = np.kron(dense, u)
    pure = _random_state(rng, dims)
    noisy = WhiteNoiseState(pure, 0.3)
    for state in (pure, DensityMatrix(pure.projector().matrix, pure.structure), noisy):
        rho = pure.projector().matrix if state is pure else state.matrix
        reference = np.diag(dense.conj().T @ rho @ dense).real
        probs = outcome_probabilities(state, unitaries)
        assert probs.shape == dims
        assert np.max(np.abs(probs.reshape(-1) - reference)) <= 1e-12, type(state).__name__


@pytest.mark.parametrize("d", range(2, 7))
def test_outcome_probabilities_read_stacked_bases_block_by_block(d):
    # A stack of 1-3 bases per party gives one table per choice of bases, in
    # the axes (s_1, d, s_2, d); each block is the single-basis table of its
    # choice, and white noise adds exactly p/D, not p over the output size.
    rng = np.random.default_rng(40 + d)
    counts = (1 + d % 3, 1 + (d + 1) % 3)
    stacks = [np.stack([_random_unitary(rng, d) for _ in range(s)]) for s in counts]
    pure = _random_state(rng, (d, d))
    p = float(rng.uniform())
    noisy = WhiteNoiseState(pure, p)
    for state in (pure, noisy, DensityMatrix(noisy.matrix, noisy.structure)):
        probs = outcome_probabilities(state, stacks)
        assert probs.shape == (counts[0], d, counts[1], d)
        for t1, t2 in product(range(counts[0]), range(counts[1])):
            single = outcome_probabilities(state, (stacks[0][t1], stacks[1][t2]))
            assert np.max(np.abs(probs[t1, :, t2] - single)) <= 1e-14, type(state).__name__
        # A stack on one party and one basis on the other.
        mixed = outcome_probabilities(state, (stacks[0], stacks[1][0]))
        assert mixed.shape == (counts[0], d, d)
        assert np.max(np.abs(mixed - probs[:, :, 0])) <= 1e-14, type(state).__name__
    expected = (1.0 - p) * outcome_probabilities(pure, stacks) + p / d**2
    assert np.array_equal(outcome_probabilities(noisy, stacks), expected)
    with pytest.raises(ValueError, match="do not match"):
        outcome_probabilities(pure, (stacks[0], stacks[1][:, :, :-1]))


def test_outcome_probabilities_reject_bad_input():
    rng = np.random.default_rng(5)
    dims = (2, 3, 2)
    unitaries = [_random_unitary(rng, d) for d in dims]
    state = _random_state(rng, dims)
    with pytest.raises(ValueError, match="do not match"):
        outcome_probabilities(state, unitaries[:2])
    with pytest.raises(ValueError, match="do not match"):
        outcome_probabilities(DensityMatrix(state.projector().matrix, state.structure), [unitaries[1], unitaries[0], unitaries[2]])
    with pytest.raises(ValueError, match="do not match"):
        outcome_probabilities(WhiteNoiseState(state, 0.5), [np.eye(2), np.eye(3)[:, :2], np.eye(2)])
    with pytest.raises(TypeError, match="expected PureState"):
        outcome_probabilities(state.projector(), unitaries)
