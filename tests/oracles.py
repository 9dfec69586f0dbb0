"""Dense single-party oracles of a `LocalBasis`: its basis vectors, their
projectors and, for a qubit basis, the unitary exchanging its two vectors.

The library reads a basis only as its matrix of column vectors; tests build
these dense objects from it to check the outcome tables against projector sums.
"""

import numpy as np


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
