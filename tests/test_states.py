import math

import numpy as np
import pytest

from qcorr import (
    build_C_ghz4x3,
    build_C_phi,
    build_C_psi,
    expectation,
    ghz4,
    ghz_4x3,
    max_entangled_qudit,
    min_eigenvalue,
    mix_white_noise,
    singlet4,
)
from qcorr.core import DensityMatrix, HermitianOperator, WhiteNoiseState


def test_ghz4_symmetric_case():
    state = ghz4(math.pi / 4, 0.0)
    expected = np.zeros(16)
    expected[0] = expected[15] = 1 / math.sqrt(2)
    assert np.allclose(state.amplitudes, expected)


def test_ghz4_phase_amplitude():
    state = ghz4(math.pi / 4, math.pi / 6)
    expected = (math.cos(math.pi / 6) + 1j * math.sin(math.pi / 6)) / math.sqrt(2)
    assert abs(state.amplitudes[15] - expected) < 1e-12
    assert abs(state.amplitudes[0] - 1 / math.sqrt(2)) < 1e-12


def test_ghz4_normalized_for_random_params():
    rng = np.random.default_rng(23)
    for _ in range(100):
        theta = rng.uniform(1e-6, math.pi / 2 - 1e-6)
        phi = rng.uniform(0.0, math.pi / 2 - 1e-6)
        state = ghz4(theta, phi)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12


def test_ghz_params_ranges():
    with pytest.raises(ValueError, match=r"^theta=0.0 outside \(0, pi/2\)$"):
        ghz4(0.0, 0.0)
    with pytest.raises(ValueError, match=r"^theta=1.5707963267948966 outside \(0, pi/2\)$"):
        ghz4(math.pi / 2, 0.0)
    with pytest.raises(ValueError, match=r"^phi=1.5707963267948966 outside \[0, pi/2\)$"):
        ghz4(math.pi / 4, math.pi / 2)
    with pytest.raises(ValueError, match=r"^phi=-0.1 outside \[0, pi/2\)$"):
        ghz4(math.pi / 4, -0.1)


def test_singlet_amplitudes():
    state = singlet4()
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12
    assert abs(state.amplitudes[0b0011] - 1 / math.sqrt(3)) < 1e-12
    assert abs(state.amplitudes[0b0101] + 0.5 / math.sqrt(3)) < 1e-12
    assert abs(state.amplitudes[0b1010] + 0.5 / math.sqrt(3)) < 1e-12
    assert state.amplitudes[0b0001] == 0.0


def test_ghz_4x3_amplitudes():
    state = ghz_4x3()
    assert state.structure.dims == (4, 4, 4)
    for level in range(4):
        assert abs(state.amplitudes[level * 21] - 0.5) < 1e-12
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12


def test_max_entangled_qudit():
    bell = max_entangled_qudit(2)
    assert np.allclose(bell.amplitudes, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])
    three = max_entangled_qudit(3)
    assert abs(three.amplitudes[4] - 1 / math.sqrt(3)) < 1e-12
    for d in range(2, 33):
        state = max_entangled_qudit(d)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        max_entangled_qudit(1)


def test_mix_white_noise_limits():
    state = ghz4(math.pi / 4, 0.0)
    pure = mix_white_noise(state, 0.0)
    assert np.allclose(pure.matrix, np.outer(state.amplitudes, state.amplitudes.conj()))
    mixed = mix_white_noise(state, 1.0)
    assert np.allclose(mixed.matrix, np.eye(16) / 16)
    with pytest.raises(ValueError):
        mix_white_noise(state, 1.5)


def test_mix_white_noise_is_a_state():
    rng = np.random.default_rng(29)
    state = singlet4()
    for _ in range(10):
        rho = mix_white_noise(state, float(rng.uniform(0.0, 1.0)))
        assert abs(np.trace(rho.matrix).real - 1.0) < 1e-12
        lowest = min_eigenvalue(HermitianOperator(rho.matrix, rho.structure))
        assert lowest > -1e-12


def test_mix_white_noise_spectrum_is_closed_form():
    state = singlet4()
    for p in (0.0, 0.25, 1.0):
        rho = mix_white_noise(state, p)
        closed = np.sort(np.r_[np.full(15, p / 16), (1 - p) + p / 16])
        assert np.allclose(np.linalg.eigvalsh(rho.matrix), closed, atol=1e-12)


def test_mix_white_noise_rejects_bad_fractions():
    state = max_entangled_qudit(3)
    for p in (-1e-9, 1.0 + 1e-9, float("nan")):
        with pytest.raises(ValueError):
            mix_white_noise(state, p)
        with pytest.raises(ValueError):
            WhiteNoiseState(state, p)


@pytest.mark.parametrize(
    "build, target",
    [
        (build_C_phi, ghz4(math.pi / 4, math.pi / 6)),
        (build_C_psi, singlet4()),
        (build_C_ghz4x3, ghz_4x3()),
    ],
)
def test_noisy_expectation_dense_matches_factored(build, target):
    op = build()
    for p in (0.0, 0.2, 0.7, 1.0):
        noisy = mix_white_noise(target, p)
        dense = expectation(op, DensityMatrix(noisy.matrix, noisy.structure))
        assert abs(expectation(op, noisy) - dense) < 1e-12


def test_max_entangled_qudit_refuses_non_integral_dimension():
    for bad in (2.9, np.float64(3.0)):
        with pytest.raises(ValueError, match="integer"):
            max_entangled_qudit(bad)
    assert max_entangled_qudit(np.int64(3)).structure.dims == (3, 3)
