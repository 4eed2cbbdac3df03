import cmath
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from slhnet import kernels
from slhnet.selector import (TWO_PI, SelectorSpec, canonical_phase, eval_selector,
                             staircase_arrays)


def _chain_reference(thetas, phases, ports):
    # independent fold, written matrix-by-matrix with no shared code
    s = np.eye(2, dtype=complex)
    for i, t in enumerate(thetas):
        s = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]) @ s
        if i < len(phases):
            p = np.eye(2, dtype=complex)
            p[ports[i] - 1, ports[i] - 1] = np.exp(1j * phases[i])
            s = p @ s
    return s


def _sequential_fold(thetas, phases, ports):
    # the plain cell-by-cell fold: one 2x2 product per cell, then the phase
    # on its row; the blocked kernel must equal it bit for bit up to BLOCK cells
    s = np.eye(2, dtype=np.complex128)
    for i in range(len(thetas)):
        c, sn = np.cos(thetas[i]), np.sin(thetas[i])
        s = np.array([[c, -sn], [sn, c]], dtype=np.complex128) @ s
        if i < len(phases):
            s[ports[i] - 1, :] *= np.exp(1j * phases[i])
    return s


def _random_chain(rng, length):
    thetas = rng.uniform(-math.pi, math.pi, size=length)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=length - 1)
    ports = rng.integers(1, 3, size=length - 1).astype(np.int8)
    return thetas, phases, ports


def test_chain_unitary_against_reference():
    rng = np.random.default_rng(19)
    for _ in range(30):
        thetas, phases, ports = _random_chain(rng, int(rng.integers(1, 12)))
        got = kernels.chain_unitary(thetas, phases, ports)
        assert_allclose(got, _chain_reference(thetas, phases, ports), atol=1e-13)


def test_chain_unitary_of_one_block_is_the_sequential_fold_bit_for_bit():
    rng = np.random.default_rng(29)
    assert kernels.BLOCK == 64
    for length in range(1, kernels.BLOCK + 1):
        for _ in range(3):
            chain = _random_chain(rng, length)
            assert np.array_equal(kernels.chain_unitary(*chain), _sequential_fold(*chain))
    assert np.array_equal(kernels.chain_unitary([], [], []), np.eye(2))


def test_chain_unitary_across_block_boundaries():
    rng = np.random.default_rng(31)
    for length in (63, 64, 65, 127, 128, 129, 4097):
        thetas, phases, ports = _random_chain(rng, length)
        got = kernels.chain_unitary(thetas, phases, ports)
        assert_allclose(got, _chain_reference(thetas, phases, ports), atol=1e-13)


@pytest.mark.parametrize("n", [4096, 100_000])
def test_chain_unitary_long_staircase_contracts(n):
    rng = np.random.default_rng(n)
    mu = rng.uniform(0.0, TWO_PI, size=n)
    bits = rng.integers(0, 2, size=n)
    spec = SelectorSpec.from_selector(bits, mu)
    out = kernels.chain_unitary(*staircase_arrays(spec)) @ np.array([1.0, 0.0])
    diff = abs(canonical_phase(cmath.phase(out[0])) - eval_selector(mu, bits))
    assert min(diff, TWO_PI - diff) <= 1e-9
    assert abs(out[1]) <= 1e-10


def test_selector_batch_matches_chain_rows():
    rng = np.random.default_rng(23)
    for n in range(0, 5):
        mu = rng.uniform(0.0, 2.0 * math.pi, size=n)
        rows = []
        specs = []
        for _ in range(6):
            bits = rng.integers(0, 2, size=n)
            spec = SelectorSpec.from_selector(bits, mu)
            rows.append(list(spec.control_phases) + [spec.tail_phase])
            specs.append(spec)
        batch = kernels.selector_batch_amplitudes(mu, np.array(rows))
        for row, spec in zip(batch, specs):
            thetas, phases, ports = staircase_arrays(spec)
            s = kernels.chain_unitary(thetas, phases, ports)
            assert_allclose(row, s @ np.array([1.0, 0.0]), atol=1e-13)


def test_weighted_phase_grid_values():
    phis = np.array([0.3, 1.0, 2.5])
    mus = np.array([-2.0, 0.4, 3.0])
    got = kernels.weighted_phase_grid(phis, mus)
    for i, phi in enumerate(phis):
        for j, mu in enumerate(mus):
            z = (np.exp(1j * mu) - math.cos(phi)) / (1.0 - np.exp(1j * mu) * math.cos(phi))
            assert got[i, j] == pytest.approx(np.angle(z), abs=1e-15)
