"""Elementary passive components and the driven-circuit evaluator.

Port convention: port 1 is the "left" optical path, port 2 the "right"
path in every circuit diagram built from these parts.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .core import (ArityError, DrivenCircuitError, SlhModel, _check_angle, _check_finite, _model,
                   _product)

__all__ = ["phase_shift", "beamsplitter", "coherent_drive", "output_amplitudes"]


def phase_shift(phi) -> SlhModel:
    """One-port phase shifter: ``S = [e^{i phi}]``.

    An array of angles gives a batch of shifters of the same shape."""
    if isinstance(phi, float):  # _check_angle's fast path; cmath.exp rounds as np.exp does
        s = np.array([[cmath.exp(1j * _check_angle(phi, "phase"))]])
    else:
        s = np.exp(1j * _check_finite(phi, "phase"))[..., None, None]
    return _model(s, None, 0.0)


def beamsplitter(theta: float) -> SlhModel:
    """Two-port rotation-matrix beamsplitter.

    ``S = [[cos t, -sin t], [sin t, cos t]]``.  theta = +-pi/4 gives the
    50/50 splitter.  Only real rotation mixing is provided; general complex
    beamsplitters are out of scope.
    """
    theta = _check_angle(theta, "mixing angle")
    c, s = math.cos(theta), math.sin(theta)
    return _model(np.array([[c, -s], [s, c]], dtype=np.complex128), None, 0.0)


def coherent_drive(alpha) -> SlhModel:
    """Coherent input drive displacing the n-mode vacuum to amplitudes alpha.

    ``(S, L, H) = (I_n, alpha, 0)``.  Compose with a passive circuit via
    ``series(circuit, coherent_drive(alpha))`` to drive it.
    """
    l = _check_finite(alpha, "drive amplitude", np.complex128)
    if l.ndim != 1 or l.size == 0:
        raise ArityError("drive amplitudes must be a non-empty vector")
    return SlhModel(np.eye(l.size, dtype=np.complex128), l)


def output_amplitudes(circuit: SlhModel, alpha) -> np.ndarray:
    """Output field amplitudes ``S @ alpha`` of an undriven passive circuit.

    For unitary S this conserves power: ``||S alpha|| == ||alpha||``.
    """
    if not circuit.is_passive():
        raise DrivenCircuitError(
            "output_amplitudes expects an undriven circuit (coupling must be zero)"
        )
    a = np.atleast_1d(_check_finite(alpha, "drive amplitude", np.complex128))
    if a.shape[0] != circuit.ports:
        raise ArityError(
            f"drive vector length {a.shape[0]} does not match {circuit.ports} ports"
        )
    return _product(circuit.scattering, a)
