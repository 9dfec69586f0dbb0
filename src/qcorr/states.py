"""Constructors for the reference entangled states and white-noise mixing."""

from __future__ import annotations

import math

import numpy as np

from .core import PartyStructure, PureState, WhiteNoiseState, local_dimension

QUBIT4 = PartyStructure((2, 2, 2, 2))
QUDIT4X3 = PartyStructure((4, 4, 4))


def ghz4(theta: float, phi: float) -> PureState:
    """cos(theta)|0000> + e^{i phi} sin(theta)|1111> on four qubits, for
    theta in (0, pi/2) and phi in [0, pi/2)."""
    theta, phi = float(theta), float(phi)
    if not 0.0 < theta < math.pi / 2:
        raise ValueError(f"theta={theta} outside (0, pi/2)")
    if not 0.0 <= phi < math.pi / 2:
        raise ValueError(f"phi={phi} outside [0, pi/2)")
    amps = np.zeros(16, dtype=np.complex128)
    amps[0] = math.cos(theta)
    amps[15] = np.exp(1j * phi) * math.sin(theta)
    return PureState(amps, QUBIT4)


def singlet4() -> PureState:
    """The four-qubit singlet: (|0011>+|1100>)/sqrt(3) minus half the four mixed-weight terms."""
    amps = np.zeros(16, dtype=np.complex128)
    big = 1.0 / math.sqrt(3.0)
    small = -0.5 / math.sqrt(3.0)
    amps[0b0011] = big
    amps[0b1100] = big
    for idx in (0b0110, 0b1001, 0b0101, 0b1010):
        amps[idx] = small
    return PureState(amps, QUBIT4)


def ghz_4x3() -> PureState:
    """(1/2) sum_l |lll> for three four-level parties."""
    amps = np.zeros(64, dtype=np.complex128)
    for level in range(4):
        amps[level * 21] = 0.5
    return PureState(amps, QUDIT4X3)


def max_entangled_qudit(d: int) -> PureState:
    """(1/sqrt(d)) sum_l |ll> for two d-level parties."""
    d = local_dimension(d)
    amps = np.zeros(d * d, dtype=np.complex128)
    amps[:: d + 1] = 1.0 / math.sqrt(d)
    return PureState(amps, PartyStructure((d, d)))


def mix_white_noise(state: PureState, p: float) -> WhiteNoiseState:
    """Convex mixture of `state` with the maximally mixed state, noise fraction p,
    in factored form; `.matrix` gives the dense matrix on demand."""
    return WhiteNoiseState(state, p)
