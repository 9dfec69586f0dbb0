"""Dense single-party oracles of a `LocalBasis`, the GHZ and singlet records'
member tables string by string, and oracles of the Bell functional's single
correlators and settings.

The library reads a basis only as its matrix of column vectors; tests build
these dense objects from it to check the outcome tables against projector sums.
The GHZ and singlet oracles spell out the paper's member definitions, which
the library generates from one rule.  The Bell oracles read one setting vector, one
correlator or the projector witness's noise tolerance, which the library only
needs as whole tables and sums; `lhv_value` scores one deterministic
assignment term by term, apart from the library's `RESIDUES`.
`principal_minors_psd` decides semidefiniteness by the definition the
library's fraction-free LDL^T avoids: every principal minor non-negative.
`exact_operator` and `dense_members` build checked operators from exact
forms, which the library builds only for its combined witnesses.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from qcorr import core, correlators
from qcorr.bell import RESIDUES, LhvAssignment, MeasurementSetting, joint_prob, setting_basis
from qcorr.core import HermitianOperator, PartyStructure
from qcorr.correlators import DERANGEMENTS_4


def exact_operator(re, im, den, structure) -> HermitianOperator:
    """The checked operator (re + i*im) / den, carrying that exact form."""
    return HermitianOperator(core._divided(re, im, den), structure, (re, im, den))


def dense_members(record) -> tuple[HermitianOperator, ...]:
    """Each member of `record` as its dense operator U diag(t) U^dagger, from
    the exact form `correlators._operator` returns."""
    return tuple(
        exact_operator(*correlators._operator(record.setting, table), PartyStructure(table.shape))
        for table in record.tables
    )


def basis_vector(basis, level: int) -> np.ndarray:
    """Basis vector `level` of `basis`."""
    return basis._vectors[:, level]


def basis_projector(basis, level: int) -> np.ndarray:
    """Projector onto basis vector `level` of `basis`."""
    vec = basis_vector(basis, level)
    return np.outer(vec, vec.conj())


def basis_exchange(basis) -> np.ndarray:
    """Unitary swapping the two vectors of a dimension-2 basis."""
    v0, v1 = basis_vector(basis, 0), basis_vector(basis, 1)
    return np.outer(v0, v1.conj()) + np.outer(v1, v0.conj())


def _signed(strings, shape, cut, shift: int) -> np.ndarray:
    """+1 on each of `strings`, -1 on each of them with the level of every
    party of `cut` moved up by `shift` (mod the local dimension)."""
    table = np.zeros(shape, dtype=np.int64)
    for string in strings:
        table[string] += 1
        table[tuple((x + shift) % shape[0] if p in cut else x for p, x in enumerate(string, 1))] -= 1
    return table


def ghz_record_oracle(label: str):
    """(setting kind, setting dimension, cut, member tables) of the GHZ record
    `label`, from the paper's member definitions, string by string.

    * `ghz4.z.n<cut>`: 0000 and 1111, each minus itself with the parties of
      the cut (party n, or the pair n, m) flipped.
    * `ghz4.x.n<n>`: the even-weight strings with party n at 0 (resp. 1),
      minus them with party n flipped.
    * `ghz4x3.z.n<n>.j<j>`, s the j-th derangement of {0,1,2,3}: member k is
      kkk minus kkk with party n moved by s_k - k.
    * `ghz4x3.f.n<n>.j<j>`: member k is the strings with party n at level k
      and level sum 0 mod 4, minus them with party n moved to s_k.
    """
    subject, letter, rest = label.split(".", 2)
    cut_text, _, j = rest.partition(".j")
    cut = tuple(int(p) for p in cut_text[1:].split("m"))
    if subject == "ghz4":
        shape = (2,) * 4
        if letter == "z":
            return "z", 2, cut, [_signed([(b,) * 4], shape, cut, 1) for b in (0, 1)]
        even = [x for x in itertools.product((0, 1), repeat=4) if sum(x) % 2 == 0]
        return "x", 2, cut, [_signed([x for x in even if x[cut[0] - 1] == b], shape, cut, 1) for b in (0, 1)]
    (n,), s = cut, DERANGEMENTS_4[int(j) - 1]
    shape = (4,) * 3
    if letter == "z":
        return "z", 4, cut, [_signed([(k,) * 3], shape, cut, s[k] - k) for k in range(4)]
    strings = list(itertools.product(range(4), repeat=3))
    tables = [
        _signed([x for x in strings if x[n - 1] == k and sum(x) % 4 == 0], shape, cut, s[k] - k) for k in range(4)
    ]
    return "fourier", 4, cut, tables


def singlet_record_oracle(label: str):
    """(setting kind, cut, member tables) of the singlet record `label`, from
    the paper's member definitions, string by string.

    * `singlet4.<kind>.m<m>`: 0011 and 1100, each minus itself with party m
      flipped.
    * `singlet4.<kind>.n<n>k<k>`: 01 and 10 on party pair n (parties 1, 2 for
      n = 0, parties 3, 4 for n = 1) times 01+10 on the other pair, each
      minus itself with party k flipped.
    """
    _, kind, name = label.split(".")
    shape = (2,) * 4
    if name.startswith("m"):
        cut = (int(name[1:]),)
        return kind, cut, [_signed([string], shape, cut, 1) for string in ((0, 0, 1, 1), (1, 1, 0, 0))]
    n, k = (int(x) for x in name[1:].split("k"))
    cut = (k,)
    tables = []
    for pattern in ((0, 1), (1, 0)):
        strings = [pattern + other if n == 0 else other + pattern for other in ((0, 1), (1, 0))]
        tables.append(_signed(strings, shape, cut, 1))
    return kind, cut, tables


def setting_vector(ms: MeasurementSetting, l: int) -> np.ndarray:
    """Unit eigenvector l of a Bell observable: column l of `setting_basis`."""
    return setting_basis(ms)[:, l]


def correlator_m(state, i: int, j: int, m: int) -> float:
    """Correlator m of setting pair (i, j), from two joint probabilities at
    v2 = m: P(v1 + m = plus) - P(v1 + m = minus) (mod d), with the residues
    (plus, minus) of `RESIDUES`."""
    d = state.structure.dims[0]
    s1, s2 = MeasurementSetting(1, i, d), MeasurementSetting(2, j, d)
    plus, minus = RESIDUES[(i, j)]
    return joint_prob(state, s1, s2, (plus - m) % d, m) - joint_prob(state, s1, s2, (minus - m) % d, m)


def projector_witness_threshold(d: int) -> float:
    """Closed-form noise tolerance d/(d+1) of the projector witness
    (1/d)1 - |psi_d><psi_d|: it fires while (1-p) + p/d^2 > 1/d."""
    return d / (d + 1)


def lhv_value(a: LhvAssignment, d: int) -> int:
    """Functional value of one deterministic assignment (integer in [-4, 4]).

    Negated delta arguments use the canonical non-negative residue mod d.
    """
    for name in ("v11", "v21", "v12", "v22"):
        value = getattr(a, name)
        if not 0 <= value < d:
            raise ValueError(f"{name}={value} outside 0..{d - 1}")
    t11 = a.v11 + a.v21
    t12 = a.v11 + a.v22
    t22 = a.v12 + a.v22
    t21 = a.v12 + a.v21
    value = int(t11 % d == 0) - int((-t11) % d == 1)
    value += int(t12 % d == 0) - int(t12 % d == 1)
    value += int(t22 % d == 0) - int((-t22) % d == 1)
    value += int((-t21) % d == 1) - int(t21 % d == 0)
    return value


def _det(rows) -> Fraction:
    """Determinant of a square matrix of rationals, by Gaussian elimination in
    `Fraction`s with row swaps."""
    rows = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(len(rows)):
        pivot = next((i for i in range(k, len(rows)) if rows[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, len(rows)):
            ratio = rows[i][k] / rows[k][k]
            rows[i] = [x - ratio * y for x, y in zip(rows[i], rows[k])]
    return det


def principal_minors_psd(rows) -> bool:
    """Whether the symmetric rational matrix `rows` is positive semidefinite:
    every principal minor, over every subset of indices, is non-negative."""
    n = len(rows)
    return all(
        _det([[rows[i][j] for j in subset] for i in subset]) >= 0
        for size in range(1, n + 1)
        for subset in itertools.combinations(range(n), size)
    )
