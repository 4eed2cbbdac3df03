import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from slhnet import (
    ArityError,
    DomainError,
    DrivenCircuitError,
    beamsplitter,
    coherent_drive,
    output_amplitudes,
    phase_shift,
    series,
)
from slhnet.selector import crossing


def test_phase_shift():
    g = phase_shift(0.7)
    assert g.ports == 1
    assert_allclose(g.scattering, [[np.exp(0.7j)]], atol=1e-15)
    with pytest.raises(DomainError):
        phase_shift(math.inf)
    with pytest.raises(DomainError):
        phase_shift(math.nan)
    # a batch names its first non-finite angle in C order
    with pytest.raises(DomainError) as info:
        phase_shift([[0.1, 0.2], [-math.inf, math.nan]])
    assert str(info.value) == "phase must be finite, got -inf"


def test_beamsplitter_is_a_rotation():
    theta = 0.3
    g = beamsplitter(theta)
    c, s = math.cos(theta), math.sin(theta)
    assert_allclose(g.scattering, [[c, -s], [s, c]], atol=1e-15)
    assert_allclose(np.linalg.det(g.scattering), 1.0, atol=1e-15)
    with pytest.raises(DomainError):
        beamsplitter(math.nan)


def test_coherent_drive():
    g = coherent_drive([1.0 + 2.0j, 3.0])
    assert g.ports == 2
    assert_allclose(g.scattering, np.eye(2), atol=1e-15)
    assert_allclose(g.coupling, [1.0 + 2.0j, 3.0], atol=1e-15)
    assert not g.is_passive()
    assert g.is_passive(tol=5.0)
    for bad in ([], [[1.0], [2.0]]):
        with pytest.raises(ArityError, match="non-empty vector"):
            coherent_drive(bad)


def test_output_amplitudes():
    g = beamsplitter(math.pi / 4)
    out = output_amplitudes(g, [1.0, 0.0])
    r = 1.0 / math.sqrt(2.0)
    assert_allclose(out, [r, r], atol=1e-15)
    with pytest.raises(ArityError):
        output_amplitudes(g, [1.0, 0.0, 0.0])
    with pytest.raises(DrivenCircuitError):
        output_amplitudes(coherent_drive([1.0]), [0.0])


def test_driven_beamsplitter_mixes_amplitudes():
    # drive folded through a pi/4 splitter lands on ((a1-a2), (a1+a2))/sqrt(2)
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        g = series(beamsplitter(math.pi / 4), coherent_drive(a))
        expect = np.array([a[0] - a[1], a[0] + a[1]]) / math.sqrt(2.0)
        assert_allclose(g.coupling, expect, atol=1e-12)


def test_crossing_swaps_the_ports():
    out = output_amplitudes(crossing(), [0.8 - 0.1j, 0.0])
    assert_allclose(out, [0.0, 0.8 - 0.1j], atol=1e-15)
    twice = series(crossing(), crossing())
    assert_allclose(twice.scattering, np.eye(2), atol=1e-15)
