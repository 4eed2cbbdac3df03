"""Hot numeric kernels with a numba fast path and a pure-numpy fallback.

The expensive inner loops of this package are (a) folding long staircase
chains of 2x2 beamsplitter/phase scattering matrices, (b) exhaustive
selector sweeps that fold one such chain per selector vector, and (c) dense
transfer-function grids for the feedback readout circuit.  Each kernel
exists twice with identical semantics:

* ``*_numba`` -- ``@njit``-compiled, used by default when numba imports;
* ``*_numpy`` -- vectorized/looped numpy, always available.

Backend selection is pinned at import time by the ``SLHNET_BACKEND``
environment variable: ``numba``, ``numpy``, or ``auto`` (default).  The
module-level names ``chain_unitary``, ``selector_batch_amplitudes`` and
``weighted_phase_grid`` are bound to the selected backend;
``benchmarks/bench_kernels.py`` times the two side by side.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "BACKEND",
    "HAVE_NUMBA",
    "chain_unitary",
    "selector_batch_amplitudes",
    "weighted_phase_grid",
]

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAVE_NUMBA = False


# ---------------------------------------------------------------------------
# pure-numpy implementations
# ---------------------------------------------------------------------------

def chain_unitary_numpy(thetas, phases, ports) -> np.ndarray:
    """Scattering matrix of a two-path chain, input side first.

    ``thetas`` are the beamsplitter mixing angles in order; after
    beamsplitter ``i`` the relative phase ``phases[i]`` is applied to path
    ``ports[i]`` (1 = left, 2 = right).  ``len(phases) == len(thetas) - 1``.
    """
    s = np.eye(2, dtype=np.complex128)
    for i in range(len(thetas)):
        c, sn = np.cos(thetas[i]), np.sin(thetas[i])
        s = np.array([[c, -sn], [sn, c]], dtype=np.complex128) @ s
        if i < len(phases):
            w = np.exp(1j * phases[i])
            s[ports[i] - 1, :] *= w
    return s


def selector_batch_amplitudes_numpy(mu, controls) -> np.ndarray:
    """Left/right output amplitudes of selector staircases, drive ``(1, 0)``.

    ``controls`` holds one staircase per row: columns ``0..n-1`` are the
    in-chain control phases, column ``n`` is the tail phase, and all rows
    share the memory phases ``mu`` (length ``n``).  Returns an ``(m, 2)``
    complex array.  This walks the full chain product row by row; it never
    shortcuts through the switch dichotomy.
    """
    mu = np.asarray(mu, dtype=np.float64)
    controls = np.atleast_2d(np.asarray(controls, dtype=np.float64))
    m, w = controls.shape
    n = w - 1
    amps = np.zeros((m, 2), dtype=np.complex128)
    amps[:, 0] = 1.0
    c45 = np.cos(np.pi / 4)

    def mix(a, sign):
        # B(+-pi/4) applied to every row at once
        left = c45 * a[:, 0] - sign * c45 * a[:, 1]
        right = sign * c45 * a[:, 0] + c45 * a[:, 1]
        return np.stack([left, right], axis=1)

    for i in range(n):
        amps = mix(amps, 1.0)
        amps[:, 0] *= np.exp(1j * controls[:, i])
        amps = mix(amps, -1.0)
        amps[:, 1] *= np.exp(1j * mu[i])
    amps = mix(amps, 1.0)
    amps[:, 0] *= np.exp(1j * controls[:, n])
    amps = mix(amps, -1.0)
    return amps


def weighted_phase_grid_numpy(phis, mus) -> np.ndarray:
    """Output phase of the weighted feedback selector on a product grid.

    Entry ``[i, j]`` is ``arg((e^{i mu_j} - cos phi_i) / (1 - e^{i mu_j}
    cos phi_i))`` in ``(-pi, pi]``.  Evaluated as the argument of
    numerator times conjugated denominator, which skips the complex
    division and lands the phi = pi collapse line on exactly 0.  Singular
    grid points are the caller's problem; this only evaluates.
    """
    phis = np.asarray(phis, dtype=np.float64)
    mus = np.asarray(mus, dtype=np.float64)
    e_mu = np.exp(1j * mus)[None, :]
    cos_phi = np.cos(phis)[:, None]
    # the same operations as (e_mu - cos_phi) * conj(1 - e_mu cos_phi), done
    # in place so that two grid-sized complex arrays are alive, not five
    den = e_mu * cos_phi
    np.subtract(1.0, den, out=den)
    np.conjugate(den, out=den)
    w = e_mu - cos_phi
    w *= den
    del den
    return np.angle(w)


# ---------------------------------------------------------------------------
# numba implementations
# ---------------------------------------------------------------------------

if HAVE_NUMBA:

    @njit(cache=True)
    def chain_unitary_numba(thetas, phases, ports):  # pragma: no cover - jit
        s00 = 1.0 + 0.0j
        s01 = 0.0 + 0.0j
        s10 = 0.0 + 0.0j
        s11 = 1.0 + 0.0j
        for i in range(thetas.shape[0]):
            c = np.cos(thetas[i])
            sn = np.sin(thetas[i])
            t00 = c * s00 - sn * s10
            t01 = c * s01 - sn * s11
            t10 = sn * s00 + c * s10
            t11 = sn * s01 + c * s11
            s00, s01, s10, s11 = t00, t01, t10, t11
            if i < phases.shape[0]:
                w = np.exp(1j * phases[i])
                if ports[i] == 1:
                    s00 *= w
                    s01 *= w
                else:
                    s10 *= w
                    s11 *= w
        out = np.empty((2, 2), dtype=np.complex128)
        out[0, 0] = s00
        out[0, 1] = s01
        out[1, 0] = s10
        out[1, 1] = s11
        return out

    @njit(cache=True)
    def selector_batch_amplitudes_numba(mu, controls):  # pragma: no cover - jit
        m, w = controls.shape
        n = w - 1
        out = np.empty((m, 2), dtype=np.complex128)
        c45 = np.cos(np.pi / 4)
        for r in range(m):
            a_l = 1.0 + 0.0j
            a_r = 0.0 + 0.0j
            for i in range(n):
                a_l, a_r = c45 * a_l - c45 * a_r, c45 * a_l + c45 * a_r
                a_l *= np.exp(1j * controls[r, i])
                a_l, a_r = c45 * a_l + c45 * a_r, -c45 * a_l + c45 * a_r
                a_r *= np.exp(1j * mu[i])
            a_l, a_r = c45 * a_l - c45 * a_r, c45 * a_l + c45 * a_r
            a_l *= np.exp(1j * controls[r, n])
            a_l, a_r = c45 * a_l + c45 * a_r, -c45 * a_l + c45 * a_r
            out[r, 0] = a_l
            out[r, 1] = a_r
        return out

    @njit(cache=True)
    def weighted_phase_grid_numba(phis, mus):  # pragma: no cover - jit
        out = np.empty((phis.shape[0], mus.shape[0]), dtype=np.float64)
        e_mu = np.exp(1j * mus)
        for i in range(phis.shape[0]):
            cos_phi = np.cos(phis[i])
            for j in range(mus.shape[0]):
                w = (e_mu[j] - cos_phi) * np.conj(1.0 - e_mu[j] * cos_phi)
                out[i, j] = np.arctan2(w.imag, w.real)
        return out


def _pick_backend() -> str:
    requested = os.environ.get("SLHNET_BACKEND", "auto").strip().lower()
    if requested in ("", "auto"):
        return "numba" if HAVE_NUMBA else "numpy"
    if requested == "numpy":
        return "numpy"
    if requested == "numba":
        if not HAVE_NUMBA:
            raise ImportError("SLHNET_BACKEND=numba but numba is not importable")
        return "numba"
    raise ValueError(
        f"SLHNET_BACKEND={requested!r} not understood (use 'numba', 'numpy' or 'auto')"
    )


BACKEND = _pick_backend()

if BACKEND == "numba":
    def chain_unitary(thetas, phases, ports) -> np.ndarray:
        return chain_unitary_numba(
            np.ascontiguousarray(thetas, dtype=np.float64),
            np.ascontiguousarray(phases, dtype=np.float64),
            np.ascontiguousarray(ports, dtype=np.int8),
        )

    def selector_batch_amplitudes(mu, controls) -> np.ndarray:
        return selector_batch_amplitudes_numba(
            np.ascontiguousarray(mu, dtype=np.float64),
            np.ascontiguousarray(np.atleast_2d(controls), dtype=np.float64),
        )

    def weighted_phase_grid(phis, mus) -> np.ndarray:
        return weighted_phase_grid_numba(
            np.ascontiguousarray(phis, dtype=np.float64),
            np.ascontiguousarray(mus, dtype=np.float64),
        )
else:
    chain_unitary = chain_unitary_numpy
    selector_batch_amplitudes = selector_batch_amplitudes_numpy
    weighted_phase_grid = weighted_phase_grid_numpy
