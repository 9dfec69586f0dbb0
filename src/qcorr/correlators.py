"""Correlator-operator families and the combined operators built from them.

Every correlator is an integer table t over the outcome strings of one local
setting, i.e. the operator U diag(t) U^dagger with U the setting's basis on
every party.  A record holds its member tables as one read-only int64 array
of shape (members, d, ..., d).  All records come from one rule
(`_support_tables`): member k is the strings of a named support whose split
party is at level k, minus the same strings with the parties of the
record's cut moved to s_k, for a derangement s of the levels; one step
builds the tables of every derangement of a (support, split party, cut).
The records are those of a GHZ state of n parties with d levels, GHZ(n, d),
split by cut[0] (`_ghz_records`: z on the strings with all levels equal, a
discrete-Fourier setting, x for d = 2, on those with level sum 0 mod d), for
the paper's tunable four-qubit GHZ states (pairs) and four-level tripartite
GHZ state (four-member families indexed by the nine fixed-point-free
permutations of {0,1,2,3}); and the four-qubit singlet's pairs in z, x and y
(`_singlet_records`: flip pairs on 0011/1100 split by party 1, group pairs
on b1 != b2 and b3 != b4 split by party 1 or 3).  Records are immutable and
memoised, and a constructor raises on an invalid argument before its cache
stores anything.

A correlator's expectation is sum_s t[s] P(s), with P the state's outcome
distribution in the setting; `member_expectations` reads P once per distinct
setting for a list of records, and no dense member is ever built.  One
builder (`_combined`) makes C_phi, C_psi and C_ghz4x3 from data: integer
record weights, each setting's closed-form table, checked exactly against
the summed record arrays on every build, and each setting's scale.  A
setting's operator is built from the basis's Gaussian-integer form (vectors
times sqrt(s), s = 1 for z, 2 for x and y, 4 for the four-level Fourier
basis) in integer steps and one division by a power of two, so the combined
operators carry no round-off: C_phi equals 8(P_0000 + P_1111) - 1 + 4
sigma_x^{(x)4} entry for entry, and 16 C_psi and 64 C_ghz4x3 are
Gaussian-integer matrices.

Each pair carries the bipartition it certifies (`cut`): for a state that is
product across that cut, the product of the two expectation values is <= 0
(sign test), while a four-member family of a product state can never be
positive throughout.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from . import core
from .core import HermitianOperator, PartyStructure, PureState
from .core import _frozen, cut_axes, join_sides, unit_rows
from .states import QUBIT4, QUDIT4X3


def _derangements(d: int) -> tuple[tuple[int, ...], ...]:
    """The fixed-point-free permutations of range(d), lexicographically ordered."""
    return tuple(p for p in itertools.permutations(range(d)) if all(p[i] != i for i in range(d)))


#: Index j-1 holds the images (s_0, s_1, s_2, s_3) of the j-th derangement of
#: {0,1,2,3}: the cyclic shift k -> k+1 sits at j=2, the shift by two at j=5.
DERANGEMENTS_4 = _derangements(4)


@dataclass(frozen=True, eq=False)
class LocalBasis:
    """Orthonormal single-party basis: z, x, y, or discrete Fourier."""

    kind: str
    dimension: int

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
            vectors = np.exp(phase * np.outer(levels, levels)) / np.sqrt(d)
        else:
            raise ValueError(f"unknown basis kind {self.kind!r}")
        gram_dev = float(np.max(np.abs(vectors.conj().T @ vectors - np.eye(d))))
        if gram_dev > core.STRUCTURAL_TOL:
            raise ValueError(f"basis vectors deviate from orthonormal by {gram_dev!r}")
        object.__setattr__(self, "_vectors", _frozen(vectors))


_Z2 = LocalBasis("z", 2)
_X2 = LocalBasis("x", 2)
_Y2 = LocalBasis("y", 2)
_Z4 = LocalBasis("z", 4)
_F4 = LocalBasis("fourier", 4)

_QUBIT_BASES = {"z": _Z2, "x": _X2, "y": _Y2}

#: Tables are held as int64; only an unsigned 64-bit table can exceed it.
_INT64_MAX = int(np.iinfo(np.int64).max)


class _OutcomeTables:
    """Integer outcome tables over the strings of one local setting (`setting`
    on every party): what correlator pairs and families hold, as one
    read-only int64 copy of shape (members, d, ..., d) that no caller can
    change."""

    def __post_init__(self) -> None:
        tables = [np.asarray(table) for table in self.tables]
        if not tables:
            raise ValueError("needs at least one member table")
        if any(not np.issubdtype(dtype, np.integer) for dtype in {t.dtype for t in tables}):
            raise ValueError("outcome tables must be integer")
        if any(t.dtype == np.uint64 and t.size and t.max() > _INT64_MAX for t in tables):
            raise ValueError(f"outcome table entries must lie within int64, up to {_INT64_MAX}")
        shape = tables[0].shape
        if any(t.shape != shape for t in tables):
            raise ValueError("member tables must share one shape")
        if not shape or any(n != self.setting.dimension for n in shape):
            raise ValueError(f"table shape {shape} does not match setting dimension {self.setting.dimension}")
        cut_axes(shape, self.cut)
        object.__setattr__(self, "tables", _frozen(np.array(tables, dtype=np.int64)))


def member_expectations(records, state) -> list[np.ndarray]:
    """Every member's expectation at `state`, one array per record of `records`.

    Member t's expectation is sum_s t[s] P(s), with P the state's outcome
    distribution in the record's setting (`core.outcome_probabilities` with
    the setting's basis on every party).  P is computed once per distinct
    setting and shared by every record measured in it; each record is read
    with its own contraction against P, so its values do not depend on the
    other records of the call.
    """
    distributions = {}
    values = []
    for record in records:
        probs = distributions.get(record.setting)
        if probs is None:
            unitaries = [record.setting._vectors] * len(state.structure.dims)
            probs = distributions[record.setting] = core.outcome_probabilities(state, unitaries)
        tables = record.tables
        if probs.shape != tables.shape[1:]:
            raise ValueError(f"party structures differ: {tables.shape[1:]} vs {probs.shape}")
        values.append(tables.reshape(len(tables), -1) @ probs.reshape(-1))
    return values


@dataclass(frozen=True, eq=False)
class CorrelatorPair(_OutcomeTables):
    """Two correlators whose expectation product is a sign test for `cut`."""

    setting: LocalBasis
    tables: np.ndarray
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
    tables: np.ndarray
    label: str
    cut: tuple[int, ...]


def _power(vectors: np.ndarray, parties: int) -> np.ndarray:
    """`vectors` on each of `parties` parties, as one matrix.

    Entry [s, t] is the product of the parties' entries [s_k, t_k], multiplied
    left to right as `reduce(np.kron, ...)` would, from one broadcast view per
    party (rows on axis k, columns on axis parties + k).
    """
    d = vectors.shape[0]
    factors = []
    for k in range(parties):
        shape = [1] * (2 * parties)
        shape[k] = shape[parties + k] = d
        factors.append(vectors.reshape(shape))
    return reduce(np.multiply, factors).reshape(d**parties, d**parties)


@lru_cache(maxsize=32)
def _unitary(basis: LocalBasis, parties: int) -> np.ndarray:
    """`basis` on each of `parties` parties, as one read-only matrix (`_power`)."""
    return _frozen(_power(basis._vectors, parties))


@lru_cache(maxsize=None)
def _integer_form(basis: LocalBasis) -> tuple[np.ndarray, int]:
    """(V, s) with V = vectors * sqrt(s) a Gaussian-integer matrix: s = 1 for
    z and s = d otherwise (2 for x and y, 4 for the four-level Fourier basis).

    A basis whose scaled vectors are not within `core.STRUCTURAL_TOL` of
    Gaussian integers (Fourier bases of most dimensions) raises
    `ValueError`.
    """
    vectors = basis._vectors
    d = vectors.shape[0]
    scale = 1 if basis.kind == "z" else d
    scaled = vectors * math.sqrt(scale)
    form = np.rint(scaled)  # rounds real and imaginary parts
    if np.max(np.abs(form - scaled)) > core.STRUCTURAL_TOL:
        raise ValueError(f"{basis.kind} basis of dimension {d} has no Gaussian-integer form")
    return _frozen(form), scale


def _operator(basis: LocalBasis, table: np.ndarray) -> HermitianOperator:
    """U diag(table) U^dagger, where U is `basis` on every party, exactly.

    This is the signed sum of basis-projector products that the integer
    outcome table counts: entry table[s] weighs the product state of outcome
    string s.  It is computed as (W diag(table) W^H) / s^n from the basis's
    Gaussian-integer form (`_integer_form`, W = V on each of the n parties):
    every intermediate is a small Gaussian integer, held exactly in floats,
    and the division is by a power of two for every basis used here, so the
    result carries no round-off and its zero entries are exact zeros.
    """
    form, scale = _integer_form(basis)
    power = _power(form, table.ndim)
    matrix = (power * table.reshape(-1)) @ power.conj().T
    matrix /= scale**table.ndim
    return HermitianOperator(matrix, PartyStructure(table.shape))


@lru_cache(maxsize=None)
def _grid(shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Sparse index grids of `shape`: entry k holds axis k's index."""
    return np.indices(shape, sparse=True)


#: The supports of the members: named sets of outcome strings, as masks over
#: the sparse index grids g of a shape with d levels per party.
_SUPPORTS = {
    "all levels equal": lambda g, d: reduce(np.logical_and, [x == g[0] for x in g]),
    "level sum 0 mod d": lambda g, d: sum(g) % d == 0,
    "0011/1100": lambda g, d: (g[0] == g[1]) & (g[2] == g[3]) & (g[0] != g[2]),
    "b1!=b2 and b3!=b4": lambda g, d: (g[0] != g[1]) & (g[2] != g[3]),
}


def _support_tables(support: np.ndarray, split: int, cut, derangements) -> np.ndarray:
    """The member tables of one record per derangement s of the levels, as one
    (derangements, levels, *support.shape) int64 array.

    Member k of s is the strings of `support` (a mask of `_SUPPORTS`) whose
    party `split` is at level k, minus the same strings with every party of
    `cut` moved up by s_k - k (cyclically).  One gather reads each member at
    its own shift, so only the shifts the derangements use are computed.
    """
    d, grid = support.shape[0], _grid(support.shape)
    levels = np.arange(d).reshape(d, *(1,) * support.ndim)
    members = (support & (grid[split - 1] == levels)).astype(np.int64)
    shifts = (np.array(derangements) - np.arange(d)).reshape(len(derangements), d, *(1,) * support.ndim)
    moved = tuple((g - shifts) % d if p in cut else g for p, g in enumerate(grid, 1))
    return members - members[(levels, *moved)]


def _combined(name: str, records, weights, forms: dict) -> HermitianOperator:
    """Sum over the settings of `forms` ({setting: (scale, closed table)}) of
    scale times the `_operator` of the setting's table: the member tables of
    its `records`, record i weighted by weights[i % len(weights)], summed
    exactly and checked against the closed table on every build."""
    sums = dict.fromkeys(forms, 0)
    for weight, record in zip(itertools.cycle(weights), records):
        sums[record.setting] = sums[record.setting] + weight * record.tables.sum(axis=0)
    matrices = []
    for setting, (scale, closed) in forms.items():
        if not np.array_equal(sums[setting], closed):
            miss = np.max(np.abs(sums[setting] - closed))
            raise ArithmeticError(f"{name} {setting.kind} table misses its closed form by {miss}")
        matrices.append(scale * _operator(setting, sums[setting]).matrix)
    return HermitianOperator(reduce(np.add, matrices), PartyStructure(closed.shape))


# ---------------------------------------------------------------------------
# Generalized GHZ states GHZ(n, d): n parties of d levels

#: The paper's two GHZ subjects by (parties n, levels d): record label prefix,
#: z setting, Fourier setting (the x basis for two levels) and its letter.
_GHZ_SUBJECTS = {(4, 2): ("ghz4", _Z2, _X2, "x"), (3, 4): ("ghz4x3", _Z4, _F4, "f")}


@lru_cache(maxsize=None)
def _ghz_records(n: int, d: int) -> tuple[CorrelatorPair | CorrelatorFamily, ...]:
    """Every record of GHZ(n, d): by setting, cut, then derangement s of the
    levels, split by party cut[0] (`_support_tables`): in z the support is
    the strings with all levels equal, in Fourier those with level sum 0 mod
    d.

    z has one record per bipartition, named by its smaller side (party 1's on
    a tie), by size, then lexicographically; Fourier one per single party.
    Labels are `<prefix>.<letter>.n<cut joined by m>`, plus `.j<j>` when d has
    more than one derangement.  Two-level records are pairs.
    """
    prefix, z, fourier, letter = _GHZ_SUBJECTS[n, d]
    parties = range(1, n + 1)
    sides = (c for r in range(1, n // 2 + 1) for c in itertools.combinations(parties, r))
    z_cuts = [c for c in sides if 2 * len(c) < n or 1 in c]
    derangements = _derangements(d)
    record = CorrelatorPair if d == 2 else CorrelatorFamily
    grid = _grid((d,) * n)
    return tuple(
        record(
            setting,
            tables,
            label=f"{prefix}.{kind}.n{'m'.join(map(str, cut))}" + (f".j{j}" if len(derangements) > 1 else ""),
            cut=cut,
        )
        for setting, kind, support, cuts in (
            (z, "z", _SUPPORTS["all levels equal"](grid, d), z_cuts),
            (fourier, letter, _SUPPORTS["level sum 0 mod d"](grid, d), [(p,) for p in parties]),
        )
        for cut in cuts
        for j, tables in enumerate(_support_tables(support, cut[0], cut, derangements), 1)
    )


def ghz4_z_pairs() -> list[CorrelatorPair]:
    """The 4 + 3 z-setting GHZ pairs: each party, then party 1 with each other."""
    return [record for record in _ghz_records(4, 2) if record.setting is _Z2]


def ghz4_x_pairs() -> list[CorrelatorPair]:
    """The four x-setting GHZ pairs, one per party."""
    return [record for record in _ghz_records(4, 2) if record.setting is _X2]


def ghz4x3_correlators(basis_kind: str, n: int, j: int) -> CorrelatorFamily:
    """The four-level family of party n in the z ("z") or Fourier ("f")
    setting for derangement `j` in 1..9 (DERANGEMENTS_4 order)."""
    if basis_kind not in ("z", "f"):
        raise ValueError(f"basis kind must be z or f, got {basis_kind!r}")
    cut_axes(QUDIT4X3.dims, (n,))
    if not 1 <= j <= 9:
        raise ValueError(f"permutation index {j} outside 1..9")
    # the records run by setting, then party, then j
    return _ghz_records(3, 4)[27 * ("z", "f").index(basis_kind) + 9 * (n - 1) + j - 1]


def all_ghz4x3_families() -> list[CorrelatorFamily]:
    """The 54 families: both settings, all parties, all nine derangements.
    Each holds its four member tables as one read-only (4, 4, 4, 4) array;
    member k depends on the derangement only through s_k, so the 216 member
    tables take 72 distinct values."""
    return list(_ghz_records(3, 4))


@lru_cache(maxsize=1)
def build_C_phi() -> HermitianOperator:
    """Sum of all four-qubit GHZ members, whose tables sum to 8([0000] + [1111])
    - 1 in z, i.e. 8(P_0000 + P_1111) - 1, and to 4(-1)^{|s|} in x, i.e.
    4 sigma_x^{(x)4}."""
    s = sum(_grid(QUBIT4.dims))
    forms = {_Z2: (1, 8 * ((s == 0) | (s == 4)) - 1), _X2: (1, 4 * (-1) ** s)}
    return _combined("C_phi", _ghz_records(4, 2), (1,), forms)


@lru_cache(maxsize=1)
def build_C_ghz4x3() -> HermitianOperator:
    """1.5 times the z members of the four-level GHZ families plus their
    Fourier members.  The tables sum to 27 where all three levels agree, -3
    where exactly two do and 0 otherwise in z, and to 36 [s1+s2+s3 = 0 mod 4]
    - 9 in Fourier."""
    levels = _grid(QUDIT4X3.dims)
    agreeing = sum(levels[a] == levels[b] for a, b in ((0, 1), (0, 2), (1, 2)))
    forms = {_Z4: (1.5, np.where(agreeing == 3, 27, -3 * (agreeing == 1)))}
    forms[_F4] = (1, 36 * (sum(levels) % 4 == 0) - 9)
    return _combined("C_ghz4x3", _ghz_records(3, 4), (1,), forms)


# ---------------------------------------------------------------------------
# Four-qubit singlet

#: The pairs of each setting: label suffix, support, split party and cut (the
#: flipped party).  Flip pair m flips party m; group pair (n, k) splits 01/10
#: on party pair n (1, 2 or 3, 4) by its first party and flips party k.
_SINGLET_PAIRS = tuple((f"m{m}", "0011/1100", 1, (m,)) for m in (1, 2, 3, 4)) + tuple(
    (f"n{n}k{k}", "b1!=b2 and b3!=b4", 1 + 2 * n, (k,)) for n, k in ((0, 1), (0, 2), (1, 3), (1, 4))
)


@lru_cache(maxsize=None)
def _singlet_records() -> tuple[CorrelatorPair, ...]:
    """The 24 singlet pairs: `_SINGLET_PAIRS` in z, x, then y, each flipping
    its party by (1, 0), the only derangement of two levels
    (`_support_tables`, built once per pair from one mask per support).  For
    the x and y settings the flip exchanges the two local basis vectors, so
    every setting holds the z tables."""
    grid = _grid((2,) * 4)
    supports = {name: _SUPPORTS[name](grid, 2) for name in ("0011/1100", "b1!=b2 and b3!=b4")}
    tables = [_support_tables(supports[name], split, cut, ((1, 0),))[0] for _, name, split, cut in _SINGLET_PAIRS]
    return tuple(
        CorrelatorPair(basis, table, f"singlet4.{kind}.{name}", cut)
        for kind, basis in _QUBIT_BASES.items()
        for (name, _, _, cut), table in zip(_SINGLET_PAIRS, tables)
    )


def singlet_correlators(basis_kind: str) -> list[CorrelatorPair]:
    """All eight correlator pairs of one setting: four flip pairs, four group pairs."""
    if basis_kind not in _QUBIT_BASES:
        raise ValueError(f"basis kind must be one of z/x/y, got {basis_kind!r}")
    return [record for record in _singlet_records() if record.setting is _QUBIT_BASES[basis_kind]]


@lru_cache(maxsize=1)
def build_C_psi() -> HermitianOperator:
    """Weighted sum of the singlet pairs in z, x and y: flip pairs (the first
    four of each setting) x5, group pairs x1.  The settings share one table,
    checked exactly on every build: 20 on 0011/1100, 4 on the other weight-2
    strings, -7 on odd weight, 0 on 0000/1111."""
    bits = _grid(QUBIT4.dims)
    weight, two = sum(bits), np.where(bits[0] == bits[1], 20, 4)
    closed = np.where(weight % 2 == 1, -7, np.where(weight == 2, two, 0))
    forms = dict.fromkeys((_Z2, _X2, _Y2), (1, closed))
    return _combined("C_psi", _singlet_records(), (5,) * 4 + (1,) * 4, forms)


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


def pair_positive(values) -> bool:
    """True iff the two values share a sign beyond SIGN_MARGIN."""
    signs = margin_sign(values)
    return bool(signs[0] * signs[1] > 0)


def family_positive(values) -> bool:
    """True iff every value exceeds SIGN_MARGIN."""
    return bool(np.all(margin_sign(values) > 0))


def prop1_test(pair: CorrelatorPair, state) -> bool:
    """True iff the two expectation values share a sign beyond SIGN_MARGIN."""
    return pair_positive(member_expectations([pair], state)[0])


def prop2_test(family: CorrelatorFamily, state) -> bool:
    """True iff every member expectation exceeds SIGN_MARGIN."""
    return family_positive(member_expectations([family], state)[0])


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
    dims = record.tables.shape[1:]
    order, dim_a = cut_axes(dims, record.cut)
    stack = record.tables.transpose([0, *(k + 1 for k in order)])
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
