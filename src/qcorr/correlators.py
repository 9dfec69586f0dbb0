"""Correlator-operator families and the combined operators built from them.

Three families are provided:

* one-versus-rest and pair-versus-pair correlator pairs for the tunable
  four-qubit GHZ states, in the z and x measurement settings;
* flip-conjugated correlator pairs for the four-qubit singlet state in the
  z, x and y settings;
* four-member correlator families for the four-level tripartite GHZ state,
  indexed by the nine fixed-point-free permutations of {0,1,2,3}, in the
  z setting and in a discrete-Fourier setting.

Every correlator is an integer table t over the outcome strings of one local
setting, i.e. the operator U diag(t) U^dagger with U the setting's basis on
every party.  Each member counts a set of strings minus the same set with the
cut party's outcome moved; the combined operators sum the member tables of a
setting exactly and check the sum against its closed form.  A correlator's
expectation is sum_s t[s] P(s), with P the state's outcome distribution in the
setting (`core.outcome_probabilities` with the setting's basis on every
party), so correlator records hold their setting, outcome tables, label and
cut only, and no dense member is ever built; only the combined operators are
dense.

Each pair carries the bipartition it certifies (`cut`): for a state that is
product across that cut, the product of the two expectation values is <= 0
(sign test), while a four-member family of a product state can never be
positive throughout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

from . import core
from .core import HermitianOperator, PartyStructure, PureState
from .core import _frozen, cut_axes, join_sides, unit_rows
from .states import QUBIT4, QUDIT4X3

#: The nine fixed-point-free permutations of {0,1,2,3}, lexicographically
#: ordered; index j-1 holds the images (s_0, s_1, s_2, s_3).  The plain cyclic
#: shift k -> k+1 sits at j=2 and the shift by two at j=5.
DERANGEMENTS_4: tuple[tuple[int, ...], ...] = tuple(
    p for p in itertools.permutations(range(4)) if all(p[i] != i for i in range(4))
)


@dataclass(frozen=True, eq=False)
class LocalBasis:
    """Orthonormal single-party basis: z, x, y, or phase-offset Fourier."""

    kind: str
    dimension: int
    offset: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        d = core.local_dimension(self.dimension)
        if self.kind == "z":
            vectors = np.eye(d, dtype=np.complex128)
        elif self.kind in ("x", "y"):
            if d != 2:
                raise ValueError(f"{self.kind} basis is only defined for dimension 2")
            second = 1.0 if self.kind == "x" else 1.0j
            vectors = np.array([[1.0, 1.0], [second, -second]], dtype=np.complex128) / np.sqrt(2)
        elif self.kind == "fourier":
            levels = np.arange(d)
            phase = -2j * np.pi / d
            vectors = np.exp(phase * np.outer(levels, levels + float(self.offset))) / np.sqrt(d)
        else:
            raise ValueError(f"unknown basis kind {self.kind!r}")
        gram_dev = float(np.max(np.abs(vectors.conj().T @ vectors - np.eye(d))))
        if gram_dev > core.STRUCTURAL_TOL:
            raise ValueError(f"basis vectors deviate from orthonormal by {gram_dev!r}")
        vectors.setflags(write=False)
        object.__setattr__(self, "_vectors", vectors)

    def vector(self, level: int) -> np.ndarray:
        self._check_level(level)
        return self._vectors[:, level]

    def projector(self, level: int) -> np.ndarray:
        vec = self.vector(level)
        return np.outer(vec, vec.conj())

    def exchange(self) -> np.ndarray:
        """Unitary swapping the two basis vectors (dimension-2 bases only)."""
        if self.dimension != 2:
            raise ValueError("exchange is only defined for dimension-2 bases")
        v0, v1 = self._vectors[:, 0], self._vectors[:, 1]
        return np.outer(v0, v1.conj()) + np.outer(v1, v0.conj())

    def _check_level(self, level: int) -> None:
        if not 0 <= int(level) < self.dimension:
            raise ValueError(f"level {level} outside 0..{self.dimension - 1}")


_Z2 = LocalBasis("z", 2)
_X2 = LocalBasis("x", 2)
_Y2 = LocalBasis("y", 2)
_Z4 = LocalBasis("z", 4)
_F4 = LocalBasis("fourier", 4)

_QUBIT_BASES = {"z": _Z2, "x": _X2, "y": _Y2}
_QUDIT4_BASES = {"z": _Z4, "f": _F4}


class _OutcomeTables:
    """Integer outcome tables over the strings of one local setting (`setting`
    on every party): what correlator pairs and families hold."""

    def __post_init__(self) -> None:
        tables = tuple(np.asarray(table) for table in self.tables)
        if not tables:
            raise ValueError("needs at least one member table")
        if any(not np.issubdtype(t.dtype, np.integer) for t in tables):
            raise ValueError("outcome tables must be integer")
        shape = tables[0].shape
        if any(t.shape != shape for t in tables):
            raise ValueError("member tables must share one shape")
        if not shape or any(n != self.setting.dimension for n in shape):
            raise ValueError(f"table shape {shape} does not match setting dimension {self.setting.dimension}")
        cut_axes(shape, self.cut)
        object.__setattr__(self, "tables", tuple(_frozen(t.astype(np.int64)) for t in tables))

    def expectations(self, state) -> np.ndarray:
        """Every member's expectation at `state`: sum_s t[s] P(s), with P the
        state's outcome distribution in the setting."""
        probs = outcome_distribution(self.setting, state)
        if probs.shape != self.tables[0].shape:
            raise ValueError(f"party structures differ: {self.tables[0].shape} vs {probs.shape}")
        return np.array([np.vdot(table, probs) for table in self.tables])


@dataclass(frozen=True, eq=False)
class CorrelatorPair(_OutcomeTables):
    """Two correlators whose expectation product is a sign test for `cut`."""

    setting: LocalBasis
    tables: tuple[np.ndarray, np.ndarray]
    label: str
    cut: tuple[int, ...]

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.tables) != 2:
            raise ValueError(f"a pair needs two tables, got {len(self.tables)}")


@dataclass(frozen=True, eq=False)
class CorrelatorFamily(_OutcomeTables):
    """Correlators that must be jointly positive to certify correlation across `cut`."""

    setting: LocalBasis
    tables: tuple[np.ndarray, ...]
    label: str
    cut: tuple[int, ...]


#: Outcome strings as index grids: `_BITS[p - 1]` holds party p's outcome at
#: every four-qubit string, `_LEVELS[p - 1]` at every three-party four-level one.
_BITS = np.indices(QUBIT4.dims)
_LEVELS = np.indices(QUDIT4X3.dims)


@lru_cache(maxsize=32)
def _unitary(basis: LocalBasis, parties: int) -> np.ndarray:
    """`basis` on each of `parties` parties, as one read-only matrix."""
    return _frozen(reduce(np.kron, [basis._vectors] * parties))


def _operator(basis: LocalBasis, table: np.ndarray) -> HermitianOperator:
    """U diag(table) U^dagger, where U is `basis` on every party.

    This is the signed sum of basis-projector products that the integer
    outcome table counts: entry table[s] weighs the product state of outcome
    string s.
    """
    unitary = _unitary(basis, table.ndim)
    return HermitianOperator((unitary * table.reshape(-1)) @ unitary.conj().T, PartyStructure(table.shape))


def outcome_distribution(basis: LocalBasis, state) -> np.ndarray:
    """Probabilities of the outcome strings of `basis` on every party, shaped
    like the party structure (`core.outcome_probabilities`)."""
    dims = state.structure.dims
    if any(d != basis.dimension for d in dims):
        raise ValueError(f"state structure {dims} does not match setting dimension {basis.dimension}")
    return core.outcome_probabilities(state, [basis._vectors] * len(dims))


def _string(shape: tuple[int, ...], levels: tuple[int, ...]) -> np.ndarray:
    """Mask of the single outcome string `levels`."""
    mask = np.zeros(shape, dtype=bool)
    mask[levels] = True
    return mask


def _moved(mask: np.ndarray, shift: int, axes) -> np.ndarray:
    """The strings of `mask` minus the same strings with the outcome of every
    party on `axes` moved up by `shift` (cyclically), as an integer table."""
    mask = mask.astype(np.int64)
    return mask - np.roll(mask, shift, axes)


def _check_closed_form(name: str, table: np.ndarray, closed: np.ndarray) -> None:
    if not np.array_equal(table, closed):
        raise ArithmeticError(f"{name} table misses its closed form by {np.max(np.abs(table - closed))}")


def _check_qubit_party(n: int) -> None:
    if n not in (1, 2, 3, 4):
        raise ValueError(f"party index {n} outside 1..4")


def _qubit_pair(kind: str, tables, label: str, cut: tuple[int, ...]) -> CorrelatorPair:
    return CorrelatorPair(_QUBIT_BASES[kind], tables, label=label, cut=cut)


# ---------------------------------------------------------------------------
# Tunable four-qubit GHZ family


def _ghz4_z_tables(cut: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """0000 and 1111, each minus itself with the parties of `cut` flipped."""
    axes = tuple(p - 1 for p in cut)
    return tuple(_moved(_string(QUBIT4.dims, (j,) * 4), 1, axes) for j in (0, 1))


def _ghz4_x_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The even-weight strings with party n at 0 (resp. 1), minus them with party n flipped."""
    even = _BITS.sum(axis=0) % 2 == 0
    return tuple(_moved(even & (_BITS[n - 1] == j), 1, n - 1) for j in (0, 1))


def ghz4_party_z(n: int) -> CorrelatorPair:
    """z-setting pair testing correlation between party n and the other three."""
    _check_qubit_party(n)
    return _qubit_pair("z", _ghz4_z_tables((n,)), f"ghz4.z.n{n}", (n,))


def ghz4_pair_z(n: int, m: int) -> CorrelatorPair:
    """z-setting pair testing correlation between the group {n, m} and the other two."""
    _check_qubit_party(n)
    _check_qubit_party(m)
    if n == m:
        raise ValueError("pair correlator needs two distinct parties")
    cut = tuple(sorted((n, m)))
    return _qubit_pair("z", _ghz4_z_tables(cut), f"ghz4.z.n{n}m{m}", cut)


def ghz4_party_x(n: int) -> CorrelatorPair:
    """x-setting pair for party n: even x-parity sum on one side, odd on the other."""
    _check_qubit_party(n)
    return _qubit_pair("x", _ghz4_x_tables(n), f"ghz4.x.n{n}", (n,))


def ghz4_z_pairs() -> list[CorrelatorPair]:
    """The 4 + 3 z-setting pairs entering the combined GHZ operator."""
    return [ghz4_party_z(n) for n in (1, 2, 3, 4)] + [ghz4_pair_z(1, m) for m in (2, 3, 4)]


def ghz4_x_pairs() -> list[CorrelatorPair]:
    return [ghz4_party_x(n) for n in (1, 2, 3, 4)]


@lru_cache(maxsize=1)
def build_C_phi() -> HermitianOperator:
    """Sum of all GHZ correlator members, one dense product per setting.

    The member tables sum to 8([0000] + [1111]) - 1 in z, i.e.
    8(P_0000 + P_1111) - 1, and to 4(-1)^{|s|} in x, i.e. 4 sigma_x^{(x)4};
    both identities are checked exactly on every build.
    """
    cuts = [(n,) for n in (1, 2, 3, 4)] + [(1, m) for m in (2, 3, 4)]
    z = sum(sum(_ghz4_z_tables(cut)) for cut in cuts)
    x = sum(sum(_ghz4_x_tables(n)) for n in (1, 2, 3, 4))
    _check_closed_form("C_phi z", z, 8 * np.all(_BITS == _BITS[0], axis=0) - 1)
    _check_closed_form("C_phi x", x, 4 * (-1) ** _BITS.sum(axis=0))
    return _operator(_Z2, z) + _operator(_X2, x)


# ---------------------------------------------------------------------------
# Four-qubit singlet

#: (group, flip party) of the four group pairs of each setting.
_SINGLET_GROUPS = ((0, 1), (0, 2), (1, 3), (1, 4))


def _singlet_flip_tables(m: int) -> tuple[np.ndarray, np.ndarray]:
    """0011 and 1100, each minus itself with party m flipped."""
    return tuple(_moved(_string(QUBIT4.dims, (j, j, 1 - j, 1 - j)), 1, m - 1) for j in (0, 1))


def _singlet_group_tables(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The strings 01 (resp. 10) on group n times 01 or 10 on the other pair,
    minus them with party k flipped."""
    a, b, c, e = (1, 2, 3, 4) if n == 0 else (3, 4, 1, 2)
    rest = _BITS[c - 1] != _BITS[e - 1]
    return tuple(
        _moved(rest & (_BITS[a - 1] == j) & (_BITS[b - 1] == 1 - j), 1, k - 1) for j in (0, 1)
    )


def singlet_flip_pair(basis_kind: str, m: int) -> CorrelatorPair:
    """Pair comparing the 0011/1100 patterns with the same patterns flipped at party m.

    For the x and y settings the flip exchanges the two local basis vectors,
    so every setting shares the z tables.
    """
    _check_qubit_party(m)
    return _qubit_pair(basis_kind, _singlet_flip_tables(m), f"singlet4.{basis_kind}.m{m}", (m,))


def singlet_group_pair(basis_kind: str, n: int, k: int) -> CorrelatorPair:
    """Pair comparing a 01/10 pattern on one party pair, flipped at party k,
    multiplied by the symmetric 01+10 pattern on the complementary pair."""
    if n not in (0, 1):
        raise ValueError(f"group index must be 0 or 1, got {n}")
    group = (2 * n + 1, 2 * n + 2)
    if k not in group:
        raise ValueError(f"flip party {k} must be one of the group parties {group}")
    return _qubit_pair(basis_kind, _singlet_group_tables(n, k), f"singlet4.{basis_kind}.n{n}k{k}", (k,))


def singlet_correlators(basis_kind: str) -> list[CorrelatorPair]:
    """All eight correlator pairs of one setting: four flip pairs, four group pairs."""
    if basis_kind not in _QUBIT_BASES:
        raise ValueError(f"basis kind must be one of z/x/y, got {basis_kind!r}")
    pairs = [singlet_flip_pair(basis_kind, m) for m in (1, 2, 3, 4)]
    return pairs + [singlet_group_pair(basis_kind, n, k) for n, k in _SINGLET_GROUPS]


@lru_cache(maxsize=1)
def build_C_psi() -> HermitianOperator:
    """Weighted sum over the three settings: flip pairs x5, group pairs x1.

    The settings share one table, checked exactly on every build: 20 on
    0011/1100, 4 on the other weight-2 strings, -7 on odd weight, 0 on
    0000/1111.
    """
    table = 5 * sum(sum(_singlet_flip_tables(m)) for m in (1, 2, 3, 4))
    table += sum(sum(_singlet_group_tables(n, k)) for n, k in _SINGLET_GROUPS)
    weight = _BITS.sum(axis=0)
    two = np.where(_BITS[0] == _BITS[1], 20, 4)
    _check_closed_form("C_psi", table, np.where(weight % 2 == 1, -7, np.where(weight == 2, two, 0)))
    return _operator(_Z2, table) + _operator(_X2, table) + _operator(_Y2, table)


# ---------------------------------------------------------------------------
# Four-level tripartite GHZ


@lru_cache(maxsize=128)
def _ghz4x3_table(basis_kind: str, n: int, k: int, image: int) -> np.ndarray:
    """Member k of a party-n family: party n's level k moved to `image`, on the
    string kkk (z) or on the strings whose levels sum to 0 mod 4 (Fourier).

    Memoised read-only: the 216 members of the 54 families take 72 values.
    """
    if basis_kind == "z":
        mask = _string(QUDIT4X3.dims, (k,) * 3)
    else:
        mask = (_LEVELS[n - 1] == k) & (_LEVELS.sum(axis=0) % 4 == 0)
    return _frozen(_moved(mask, image - k, n - 1))


def ghz4x3_correlators(basis_kind: str, n: int, j: int) -> CorrelatorFamily:
    """Four-member correlator family for party n against the rest.

    `j` in 1..9 picks a fixed-point-free permutation s of the levels
    (lexicographic order, see DERANGEMENTS_4).  In the z setting member k is
    (k - s_k) on party n times level-k projectors on the others; in the
    Fourier setting the other two parties carry the level-sum-zero pair sum.
    """
    if basis_kind not in _QUDIT4_BASES:
        raise ValueError(f"basis kind must be z or f, got {basis_kind!r}")
    if n not in (1, 2, 3):
        raise ValueError(f"party index {n} outside 1..3")
    if not 1 <= j <= 9:
        raise ValueError(f"permutation index {j} outside 1..9")
    shifts = DERANGEMENTS_4[j - 1]
    return CorrelatorFamily(
        _QUDIT4_BASES[basis_kind],
        tuple(_ghz4x3_table(basis_kind, n, k, shifts[k]) for k in range(4)),
        label=f"ghz4x3.{basis_kind}.n{n}.j{j}",
        cut=(n,),
    )


def all_ghz4x3_families() -> list[CorrelatorFamily]:
    """The 54 families: both settings, all parties, all nine permutations.

    Member k depends on the permutation only through s_k, so the 216 member
    tables take 72 distinct values, each one memoised read-only table.
    """
    return [
        ghz4x3_correlators(kind, n, j)
        for kind in ("z", "f")
        for n in (1, 2, 3)
        for j in range(1, 10)
    ]


@lru_cache(maxsize=1)
def build_C_ghz4x3() -> HermitianOperator:
    """Weighted sum over all families: z members x1.5, Fourier members x1.

    The member tables of each setting are summed and checked exactly on every
    build: in z, 27 where all three levels agree, -3 where exactly two agree
    and 0 otherwise; in Fourier, 36 [s1+s2+s3 = 0 mod 4] - 9.
    """
    z, f = (
        sum(
            _ghz4x3_table(kind, n, k, shifts[k])
            for n in (1, 2, 3)
            for shifts in DERANGEMENTS_4
            for k in range(4)
        )
        for kind in ("z", "f")
    )
    agreeing = sum(_LEVELS[a] == _LEVELS[b] for a, b in ((0, 1), (0, 2), (1, 2)))
    _check_closed_form("C_ghz4x3 z", z, np.where(agreeing == 3, 27, -3 * (agreeing == 1)))
    _check_closed_form("C_ghz4x3 Fourier", f, 36 * (_LEVELS.sum(axis=0) % 4 == 0) - 9)
    return 1.5 * _operator(_Z4, z) + _operator(_F4, f)


# ---------------------------------------------------------------------------
# Sign tests and random product-state suites

#: Absolute margin of every sign test: an expectation value counts as positive
#: above +SIGN_MARGIN, as negative below -SIGN_MARGIN, and as zero in between.
#: Where a value is exactly zero, rounding leaves residues of order 1e-17
#: (basis product states of a correlator's own setting), which a bare `> 0`
#: would read as signs.
SIGN_MARGIN = 1e-12

#: Rows a sign suite draws and evaluates together; bounds its memory.
CHUNK_ROWS = 1024


def margin_sign(values) -> np.ndarray:
    """+1, -1 or 0 per value: its sign, or 0 within SIGN_MARGIN of zero."""
    values = np.asarray(values, dtype=float)
    return (values > SIGN_MARGIN).astype(np.int8) - (values < -SIGN_MARGIN).astype(np.int8)


def prop1_test(pair: CorrelatorPair, state) -> bool:
    """True iff the two expectation values share a sign beyond SIGN_MARGIN."""
    signs = margin_sign(pair.expectations(state))
    return bool(signs[0] * signs[1] > 0)


def prop2_test(family: CorrelatorFamily, state) -> bool:
    """True iff every member expectation exceeds SIGN_MARGIN."""
    return bool(np.all(margin_sign(family.expectations(state)) > 0))


def _side_vectors(dim_a: int, dim_b: int, trials: int, rng: np.random.Generator):
    """`trials` random unit vectors on each side of a cut, as (trials, dim_a)
    and (trials, dim_b) arrays.

    Each row comes from one row of normals holding the real and imaginary
    parts of side a, then those of side b.
    """
    normals = rng.standard_normal((trials, 2 * dim_a + 2 * dim_b))
    return unit_rows(normals[:, :2 * dim_a]), unit_rows(normals[:, 2 * dim_a:])


def random_product_states(
    structure: PartyStructure, cut, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """`trials` Haar-ish random product states across `cut`, as a (trials, D) array.

    The two `_side_vectors` of each row are joined in the global party order
    (`core.join_sides`).  Every row passes the norm check `PureState` runs.
    """
    order, dim_a = cut_axes(structure.dims, cut)
    vec_a, vec_b = _side_vectors(dim_a, structure.dim // dim_a, trials, rng)
    amps = join_sides(vec_a, vec_b, structure.dims, order)
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    dev = np.abs(np.linalg.norm(amps, axis=1) - 1.0)
    if not np.all(dev <= core.STRUCTURAL_TOL):
        raise ValueError(f"state norm differs from 1 by {np.max(dev)!r}, beyond tolerance")
    return amps


def random_product_state(structure: PartyStructure, cut, rng: np.random.Generator) -> PureState:
    """One random product state across `cut`: a one-row `random_product_states` draw."""
    return PureState(random_product_states(structure, cut, 1, rng)[0], structure)


def _suite_signs(record, trials: int, seed: int):
    """Margin signs of every member of `record` on `trials` random product
    states a (x) b across its cut, the states `random_product_states` draws.

    Table t gives sum t[s_a, s_b] P_a(s_a) P_b(s_b), with P_a and P_b the
    outcome distributions of the two sides in the setting, each checked to
    sum to 1; no state vector or dense member is formed.  Yields one
    (members, rows) array per chunk of at most CHUNK_ROWS states; successive
    chunks continue one generator, so the states do not depend on the
    chunking.
    """
    if trials < 1:
        raise ValueError(f"sign suite needs at least one trial, got {trials}")
    dims = record.tables[0].shape
    order, dim_a = cut_axes(dims, record.cut)
    stack = np.stack(record.tables).transpose([0, *(k + 1 for k in order)])
    stack = stack.reshape(len(record.tables), dim_a, -1).astype(float)
    n_a = len(record.cut)
    unitaries = [_unitary(record.setting, n_a), _unitary(record.setting, len(dims) - n_a)]
    rng = np.random.default_rng(seed)
    for start in range(0, trials, CHUNK_ROWS):
        sides = _side_vectors(dim_a, stack.shape[2], min(CHUNK_ROWS, trials - start), rng)
        probs_a, probs_b = (np.abs(v.conj() @ u) ** 2 for v, u in zip(sides, unitaries))
        dev = np.abs(np.concatenate([probs_a.sum(axis=1), probs_b.sum(axis=1)]) - 1.0)
        if not np.all(dev <= core.STRUCTURAL_TOL):
            raise ValueError(f"outcome probabilities sum to 1 +- {np.max(dev)!r}, beyond tolerance")
        yield margin_sign(np.sum((probs_a @ stack) * probs_b, axis=2))


def count_prop1_violations(pair: CorrelatorPair, trials: int, seed: int) -> int:
    """Sign-test failures of `pair` over random states product across its cut."""
    return sum(
        int(np.count_nonzero(signs[0] * signs[1] > 0)) for signs in _suite_signs(pair, trials, seed)
    )


def count_prop2_violations(family: CorrelatorFamily, trials: int, seed: int) -> int:
    """Joint-positivity failures of `family` over random states product across its cut."""
    return sum(
        int(np.count_nonzero(np.all(signs > 0, axis=0))) for signs in _suite_signs(family, trials, seed)
    )
