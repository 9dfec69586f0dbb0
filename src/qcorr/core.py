"""Dense complex tensor algebra for small multi-party Hilbert spaces.

Party labels are 1-based throughout the package, and party 1 is the leftmost
(most significant) tensor factor.  All container types are immutable after
construction, the tolerances below are constants, and every operation is a
pure function, so values can be shared freely between concurrent workers.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import combinations

import numpy as np

# Structural tolerances guard object construction (hermiticity, norm, trace).
STRUCTURAL_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
IMAG_TOL = 1e-10


class EigensolverError(RuntimeError):
    """Dense Hermitian eigensolver failed to converge."""


def local_dimension(d) -> int:
    """`d` as a local dimension: an integer (Python or numpy, via
    `operator.index`, so 2.5 is refused rather than truncated) of at least 2."""
    try:
        d = operator.index(d)
    except TypeError:
        raise ValueError(f"local dimension must be an integer, got {d!r}") from None
    if d < 2:
        raise ValueError(f"local dimension must be >= 2, got {d}")
    return d


@dataclass(frozen=True)
class PartyStructure:
    """Ordered list of local dimensions, one entry per party."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(local_dimension(d) for d in self.dims)
        if not dims:
            raise ValueError("PartyStructure needs at least one party")
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        out = 1
        for d in self.dims:
            out *= d
        return out

    @property
    def n_parties(self) -> int:
        return len(self.dims)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized amplitude vector over a tensor-product Hilbert space."""

    amplitudes: np.ndarray
    structure: PartyStructure

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amps.size != self.structure.dim:
            raise ValueError(
                f"amplitude vector has length {amps.size}, structure needs {self.structure.dim}"
            )
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= STRUCTURAL_TOL:
            raise ValueError(f"state norm {norm!r} differs from 1 beyond tolerance")
        object.__setattr__(self, "amplitudes", _frozen(amps))

    def projector(self) -> HermitianOperator:
        return HermitianOperator(np.outer(self.amplitudes, self.amplitudes.conj()), self.structure)

    def density(self) -> DensityMatrix:
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()), self.structure)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix with party structure."""

    matrix: np.ndarray
    structure: PartyStructure

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=np.complex128)
        _check_square(mat, self.structure)
        _check_hermitian(mat)
        trace = complex(np.trace(mat))
        if not abs(trace - 1.0) <= TRACE_TOL:
            raise ValueError(f"density matrix trace {trace!r} differs from 1")
        lowest = float(np.linalg.eigvalsh(mat)[0])
        if lowest < -PSD_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {lowest!r}")
        object.__setattr__(self, "matrix", _frozen(mat))


@dataclass(frozen=True, eq=False)
class WhiteNoiseState:
    """(1-p)|pure><pure| + p 1/D, kept factored as the pair (pure, p).

    The checks `DensityMatrix` runs hold on the factored form: the trace is
    (1-p)|pure|^2 + p, and the spectrum is p/D (D-1 times) and
    (1-p)|pure|^2 + p/D, so no D x D matrix is built or diagonalized.
    """

    pure: PureState
    p: float

    def __post_init__(self) -> None:
        if not isinstance(self.pure, PureState):
            raise TypeError(f"expected PureState, got {type(self.pure).__name__}")
        p = float(self.p)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"noise fraction {p} outside [0, 1]")
        object.__setattr__(self, "p", p)
        norm_sq = float(np.vdot(self.pure.amplitudes, self.pure.amplitudes).real)
        trace = (1.0 - p) * norm_sq + p
        if abs(trace - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {trace!r} differs from 1")
        lowest = p / self.structure.dim
        if lowest < -PSD_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {lowest!r}")

    @property
    def structure(self) -> PartyStructure:
        return self.pure.structure

    @property
    def matrix(self) -> np.ndarray:
        """The dense D x D matrix, built anew on each access."""
        amps = self.pure.amplitudes
        mat = (self.p / amps.size) * np.eye(amps.size, dtype=np.complex128)
        mat += (1.0 - self.p) * np.outer(amps, amps.conj())
        return _frozen(mat)


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Dense complex matrix asserted Hermitian, with party structure."""

    matrix: np.ndarray
    structure: PartyStructure

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=np.complex128)
        _check_square(mat, self.structure)
        _check_hermitian(mat)
        object.__setattr__(self, "matrix", _frozen(mat))

    def __add__(self, other: HermitianOperator) -> HermitianOperator:
        self._check_same_structure(other)
        return HermitianOperator(self.matrix + other.matrix, self.structure)

    def __sub__(self, other: HermitianOperator) -> HermitianOperator:
        self._check_same_structure(other)
        return HermitianOperator(self.matrix - other.matrix, self.structure)

    def __mul__(self, scale: float) -> HermitianOperator:
        return HermitianOperator(float(scale) * self.matrix, self.structure)

    __rmul__ = __mul__

    def __neg__(self) -> HermitianOperator:
        return HermitianOperator(-self.matrix, self.structure)

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def _check_same_structure(self, other: HermitianOperator) -> None:
        if not isinstance(other, HermitianOperator):
            raise TypeError(f"expected HermitianOperator, got {type(other).__name__}")
        if self.structure.dims != other.structure.dims:
            raise ValueError(
                f"party structures differ: {self.structure.dims} vs {other.structure.dims}"
            )


def _check_square(mat: np.ndarray, structure: PartyStructure) -> None:
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if mat.shape[0] != structure.dim:
        raise ValueError(f"matrix size {mat.shape[0]} does not match structure dim {structure.dim}")


def _check_hermitian(mat: np.ndarray) -> None:
    dev = float(np.max(np.abs(mat - mat.conj().T)))
    if not dev <= STRUCTURAL_TOL:
        raise ValueError(f"matrix deviates from Hermitian by {dev!r}")


def identity(structure: PartyStructure) -> HermitianOperator:
    return HermitianOperator(np.eye(structure.dim, dtype=np.complex128), structure)


def kron(a, b):
    """Tensor product of two states or two operators; a becomes the leading parties."""
    if isinstance(a, PureState) and isinstance(b, PureState):
        merged = PartyStructure(a.structure.dims + b.structure.dims)
        return PureState(np.kron(a.amplitudes, b.amplitudes), merged)
    if isinstance(a, HermitianOperator) and isinstance(b, HermitianOperator):
        merged = PartyStructure(a.structure.dims + b.structure.dims)
        return HermitianOperator(np.kron(a.matrix, b.matrix), merged)
    raise TypeError(
        f"kron operands must both be PureState or both HermitianOperator, "
        f"got {type(a).__name__} and {type(b).__name__}"
    )


def expectation(
    op: HermitianOperator, state: PureState | DensityMatrix | WhiteNoiseState
) -> float:
    """<s|op|s> for pure states, Tr(op.rho) for density matrices, and
    (1-p)<s|op|s> + p Tr(op)/D for white-noise mixtures."""
    if op.structure.dims != state.structure.dims:
        raise ValueError(
            f"party structures differ: {op.structure.dims} vs {state.structure.dims}"
        )
    if isinstance(state, PureState):
        val = complex(np.vdot(state.amplitudes, op.matrix @ state.amplitudes))
    elif isinstance(state, DensityMatrix):
        val = complex(np.trace(op.matrix @ state.matrix))
    elif isinstance(state, WhiteNoiseState):
        amps = state.pure.amplitudes
        val = (1.0 - state.p) * complex(np.vdot(amps, op.matrix @ amps))
        val += state.p * complex(np.trace(op.matrix)) / amps.size
    else:
        raise TypeError(
            f"expected PureState, DensityMatrix or WhiteNoiseState, got {type(state).__name__}"
        )
    if abs(val.imag) > IMAG_TOL:
        raise ValueError(f"imaginary residue {val.imag!r} exceeds tolerance; operator not Hermitian?")
    return float(val.real)


def outcome_probabilities(state: PureState | DensityMatrix | WhiteNoiseState, unitaries) -> np.ndarray:
    """<u_s|state|u_s> for every outcome string s, shaped like the party structure.

    `unitaries` holds one d_k x d_k unitary array per party, its columns the
    basis vectors; u_s is the product of column s_k of each.  Each party is
    contracted by one matmul on the vector reshaped to (d_k, -1), which moves
    that party's axis to the end, so no D x D unitary is formed.  A pure state
    is contracted conjugated, as |<u_s|psi>|^2 = |sum_x U[x, s] psi[x]^*|^2.
    A density matrix takes the same steps over its 2n axes (conjugate bases on
    the rows, bases on the columns) and its diagonal is read; a white-noise
    mixture gives (1-p) P_pure + p/D.
    """
    if isinstance(state, WhiteNoiseState):
        probs = outcome_probabilities(state.pure, unitaries)
        return (1.0 - state.p) * probs + state.p / probs.size
    if isinstance(state, PureState):
        vector, factors = state.amplitudes.conj(), unitaries
    elif isinstance(state, DensityMatrix):
        vector, factors = state.matrix, [u.conj() for u in unitaries] + list(unitaries)
    else:
        raise TypeError(
            f"expected PureState, DensityMatrix or WhiteNoiseState, got {type(state).__name__}"
        )
    dims = state.structure.dims
    shapes = [u.shape for u in unitaries]
    if shapes != [(d, d) for d in dims]:
        raise ValueError(f"unitaries of shapes {shapes} do not match party structure {dims}")
    for factor in factors:
        # ndarray.dot: the same product as @, with less call overhead on small matrices
        vector = vector.reshape(factor.shape[0], -1).T.dot(factor)
    if isinstance(state, PureState):
        return (np.abs(vector) ** 2).reshape(dims)
    return vector.reshape(state.structure.dim, -1).diagonal().real.reshape(dims).copy()


def _spectrum(op: HermitianOperator) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(op.matrix)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"Hermitian eigensolver did not converge: {exc}") from exc


def min_eigenvalue(op: HermitianOperator) -> float:
    return float(_spectrum(op)[0])


def spectral_norm(op: HermitianOperator) -> float:
    return float(np.max(np.abs(_spectrum(op))))


def cut_axes(dims, cut) -> tuple[tuple[int, ...], int]:
    """Layout of the bipartition `cut` of parties with local dimensions `dims`.

    Returns the axis order that puts side a first, its parties (those in
    `cut`) ascending and then the others ascending, and side a's dimension.
    This is the package's one cut rule: the parties must be integers (through
    `operator.index`, so 1.5 is refused rather than truncated), distinct,
    within 1..n, and leave at least one party on each side.
    """
    n = len(dims)
    try:
        side_a = sorted(map(operator.index, cut))
    except TypeError:
        side_a = []
    if not (side_a and len(set(side_a)) == len(side_a) < n and 1 <= side_a[0] and side_a[-1] <= n):
        raise ValueError(f"cut {cut} must be distinct parties of 1..{n}, not all of them")
    axes_a = [p - 1 for p in side_a]
    dim_a = math.prod([dims[k] for k in axes_a])
    return tuple(axes_a + [k for k in range(n) if k + 1 not in side_a]), dim_a


def join_sides(vec_a: np.ndarray, vec_b: np.ndarray, dims, order) -> np.ndarray:
    """Rows (..., D_a) on side a and (..., D_b) on side b joined into their
    product rows (..., D) in the global party order, `order` and `dims` as
    from `cut_axes`."""
    lead = vec_a.shape[:-1]
    tensor = (vec_a[..., :, None] * vec_b[..., None, :]).reshape(lead + tuple(dims[k] for k in order))
    back = [len(lead) + k for k in np.argsort(order)]
    return tensor.transpose([*range(len(lead)), *back]).reshape(lead + (-1,))


def unit_rows(normals: np.ndarray) -> np.ndarray:
    """Complex unit rows from rows of normals: the first half of each row
    holds the real parts, the second half the imaginary parts."""
    dim = normals.shape[-1] // 2
    rows = normals[..., :dim] + 1j * normals[..., dim:]
    rows /= np.linalg.norm(rows, axis=-1, keepdims=True)
    return rows


def schmidt_max_sq(state: PureState, parties) -> float:
    """Largest squared Schmidt coefficient of `state` across the given bipartition.

    `parties` selects side a of the cut (see `cut_axes`); the amplitude vector
    is reshaped to a matrix over (side a, side b) and the top singular value
    is squared.
    """
    dims = state.structure.dims
    order, dim_a = cut_axes(dims, parties)
    matrix = state.amplitudes.reshape(dims).transpose(order).reshape(dim_a, -1)
    top = np.linalg.svd(matrix, compute_uv=False)[0]
    return float(top**2)


def bipartitions(n_parties: int) -> list[tuple[int, ...]]:
    """All 2^(n-1) - 1 bipartitions, each named by the side containing party 1."""
    if n_parties < 2:
        raise ValueError("need at least two parties to bipartition")
    rest = range(2, n_parties + 1)
    cuts = []
    for size in range(0, n_parties - 1):
        for extra in combinations(rest, size):
            cuts.append((1,) + extra)
    return cuts


def combine_bipartite(side_a, parties_a, side_b, structure: PartyStructure) -> PureState:
    """Assemble a product state from amplitudes on the two sides of a cut.

    `side_a` holds amplitudes for the ascending parties in `parties_a`,
    `side_b` those for the remaining parties; the result is reordered to the
    global party order (`join_sides`) and normalized.
    """
    order, _ = cut_axes(structure.dims, parties_a)
    vec_a = np.asarray(side_a, dtype=np.complex128).reshape(-1)
    vec_b = np.asarray(side_b, dtype=np.complex128).reshape(-1)
    full = join_sides(vec_a, vec_b, structure.dims, order)
    norm = np.linalg.norm(full)
    if norm == 0.0:
        raise ValueError("cannot combine zero vectors into a state")
    return PureState(full / norm, structure)
