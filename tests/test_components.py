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


def test_phase_shift_of_a_float_equals_the_array_route_bit_for_bit():
    # a Python float skips the arrays: cmath.exp must round as np.exp does
    rng = np.random.default_rng(71)
    angles = np.concatenate([
        rng.uniform(-10.0, 10.0, 700_000),
        rng.uniform(-1e6, 1e6, 100_000),
        # every binade of the doubles, subnormals included
        np.ldexp(rng.uniform(-1.0, 1.0, 200_000), rng.integers(-1074, 1025, 200_000)),
    ])
    assert np.isfinite(angles).all()
    batch = phase_shift(angles).scattering
    fast = b"".join([phase_shift(x).scattering.tobytes() for x in angles.tolist()])
    assert fast == batch.tobytes()
    big = 1.7976931348623157e308
    for x in (0.0, 5e-324, math.pi, 1e300, big, -0.0, -5e-324, -math.pi, -1e300, -big):
        for value in (x, np.float64(x)):
            g, ref = phase_shift(value), phase_shift(np.array(x))
            assert g.scattering.tobytes() == ref.scattering.tobytes(), x
            assert g.scattering.shape == ref.scattering.shape == (1, 1)
            assert g.coupling.tobytes() == ref.coupling.tobytes() and g.coupling.shape == (1,)
            assert type(g.hamiltonian) is float and g.hamiltonian == ref.hamiltonian == 0.0
    with pytest.raises(DomainError, match="phase must be finite, got nan"):
        phase_shift(np.float64("nan"))


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
    # a non-finite real or imaginary part is refused, as a netlist drive refuses it
    for bad, shown in (([math.nan], "nan"), ([1.0, complex(2.0, -math.inf)], "-inf")):
        with pytest.raises(DomainError) as info:
            coherent_drive(bad)
        assert str(info.value) == f"drive amplitude must be finite, got {shown}"
    # a strided view is read as its values
    assert_allclose(coherent_drive(np.arange(6.0, dtype=complex)[::2]).coupling, [0, 2, 4])


@pytest.mark.parametrize("build, value, message", [
    (beamsplitter, np.array([1.0, 2.0]), "mixing angle must be a single angle, got shape (2,)"),
    (beamsplitter, "x", "mixing angle must be real, got 'x'"),
    (beamsplitter, 1j, "mixing angle must be real, got 1j"),
    (beamsplitter, np.complex128(0.5), "mixing angle must be real, got np.complex128(0.5+0j)"),
    (phase_shift, "x", "phase must be real, got 'x'"),
    (coherent_drive, (1, "x"), "drive amplitude must be real or complex, got (1, 'x')"),
    # a boolean is no number here, as parse_angle refuses ``phi: true``
    (phase_shift, True, "phase must be real, got True"),
    (beamsplitter, np.True_, "mixing angle must be real, got np.True_"),
    (coherent_drive, [True], "drive amplitude must be real or complex, got [True]"),
], ids=["beamsplitter-array", "beamsplitter-str", "beamsplitter-complex",
        "beamsplitter-numpy-complex", "phase-str", "drive-str", "phase-bool",
        "beamsplitter-numpy-bool", "drive-bool"])
def test_builders_refuse_values_numpy_cannot_read_as_numbers(build, value, message):
    with pytest.raises(DomainError) as info:
        build(value)
    assert str(info.value) == message


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
