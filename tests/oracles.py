"""Dense single-party oracles of a `LocalBasis`, and oracles of the Bell
functional's single correlators and settings.

The library reads a basis only as its matrix of column vectors; tests build
these dense objects from it to check the outcome tables against projector sums.
The Bell oracles read one setting vector, one correlator or the projector
witness's noise tolerance, which the library only needs as whole tables and
sums.
"""

import math

import numpy as np

from qcorr.bell import RESIDUES, MeasurementSetting, joint_prob, setting_basis


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
