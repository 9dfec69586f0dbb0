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
    identity,
    kron,
    max_entangled_qudit,
    min_eigenvalue,
    outcome_probabilities,
    schmidt_max_sq,
    spectral_norm,
)
from qcorr.core import cut_axes

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
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


def test_hermitian_operator_rejects_non_hermitian():
    with pytest.raises(ValueError):
        HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), Q1)


def test_kron_identities():
    eye2 = identity(Q1)
    eye4 = kron(eye2, eye2)
    assert eye4.structure.dims == (2, 2)
    assert np.allclose(eye4.matrix, np.eye(4))


def test_kron_basis_ordering():
    zero = PureState([1.0, 0.0], Q1)
    one = PureState([0.0, 1.0], Q1)
    combined = kron(zero, one)
    expected = np.zeros(4)
    expected[1] = 1.0
    assert np.allclose(combined.amplitudes, expected)


def test_kron_sigma_z_diagonal():
    sz = HermitianOperator(SIGMA_Z, Q1)
    assert np.allclose(np.diag(kron(sz, sz).matrix).real, [1, -1, -1, 1])


def test_kron_kind_mismatch():
    with pytest.raises(TypeError):
        kron(identity(Q1), PureState([1.0, 0.0], Q1))


def test_expectation_of_identity():
    rng = np.random.default_rng(7)
    state = _random_state(rng, (2, 2, 2))
    assert abs(expectation(identity(state.structure), state) - 1.0) < 1e-12


def test_expectation_dimension_mismatch():
    with pytest.raises(ValueError):
        expectation(identity(Q1), ghz4(np.pi / 4, 0.0))


def test_expectation_sigma_x_fourfold():
    sx = HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]]), Q1)
    op = kron(kron(sx, sx), kron(sx, sx))
    assert abs(expectation(op, ghz4(np.pi / 4, 0.0)) - 1.0) < 1e-12


def test_kron_associativity():
    rng = np.random.default_rng(19)
    ops = [HermitianOperator(_random_hermitian(rng, 2), Q1) for _ in range(3)]
    left = kron(kron(ops[0], ops[1]), ops[2])
    right = kron(ops[0], kron(ops[1], ops[2]))
    assert left.structure.dims == (2, 2, 2)
    assert np.allclose(left.matrix, right.matrix, atol=1e-12)


def test_expectation_factorizes_over_kron():
    rng = np.random.default_rng(11)
    for _ in range(10):
        op_a = HermitianOperator(_random_hermitian(rng, 2), Q1)
        op_b = HermitianOperator(_random_hermitian(rng, 3), PartyStructure((3,)))
        u = _random_state(rng, (2,))
        v = _random_state(rng, (3,))
        left = expectation(kron(op_a, op_b), kron(u, v))
        right = expectation(op_a, u) * expectation(op_b, v)
        assert abs(left - right) < 1e-10


def test_min_eigenvalue_examples():
    assert abs(min_eigenvalue(identity(PartyStructure((2, 2, 2, 2)))) - 1.0) < 1e-12
    op = HermitianOperator(np.diag([3.0, -2.0]).astype(complex), Q1)
    assert abs(min_eigenvalue(op) + 2.0) < 1e-12


def test_min_eigenvalue_shift():
    rng = np.random.default_rng(3)
    for _ in range(10):
        op = HermitianOperator(_random_hermitian(rng, 6), PartyStructure((2, 3)))
        c = float(rng.uniform(-2.0, 2.0))
        shifted = op + c * identity(op.structure)
        assert abs(min_eigenvalue(shifted) - (min_eigenvalue(op) + c)) < 1e-10


def test_eigensolver_breakdown_is_an_eigensolver_error(monkeypatch):
    def _diverge(matrix):
        raise np.linalg.LinAlgError("forced")

    op = identity(Q1)
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
    for state in (pure, pure.density(), noisy):
        rho = pure.projector().matrix if state is pure else state.matrix
        reference = np.diag(dense.conj().T @ rho @ dense).real
        probs = outcome_probabilities(state, unitaries)
        assert probs.shape == dims
        assert np.max(np.abs(probs.reshape(-1) - reference)) <= 1e-12, type(state).__name__


def test_outcome_probabilities_reject_bad_input():
    rng = np.random.default_rng(5)
    dims = (2, 3, 2)
    unitaries = [_random_unitary(rng, d) for d in dims]
    state = _random_state(rng, dims)
    with pytest.raises(ValueError, match="do not match"):
        outcome_probabilities(state, unitaries[:2])
    with pytest.raises(ValueError, match="do not match"):
        outcome_probabilities(state.density(), [unitaries[1], unitaries[0], unitaries[2]])
    with pytest.raises(ValueError, match="do not match"):
        outcome_probabilities(WhiteNoiseState(state, 0.5), [np.eye(2), np.eye(3)[:, :2], np.eye(2)])
    with pytest.raises(TypeError, match="expected PureState"):
        outcome_probabilities(state.projector(), unitaries)
