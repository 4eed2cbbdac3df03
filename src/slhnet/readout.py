"""Selector circuits built from a feedback loop instead of a staircase.

Closing output 1 of a two-rail switch chain back onto input 1 turns the
Mach-Zehnder selector cell into a one-port device: the probe either
bounces straight off (control phase 0) or takes one trip around the loop
and through the memory phase (control phase pi).  The resulting 1x1
scattering is unit modulus, so the device is a pure phase readout.

The closed forms here were derived by applying the generic feedback
elimination rule to the component chain and are pinned against that rule
by the test suite; a sign in the loop denominator is easy to get wrong,
and the wrong sign visibly breaks the phi = 0 bypass case.

A second, weighted variant replaces the binary control by an arbitrary
angle phi, giving output phase arg((e^{i mu} - cos phi)/(1 - e^{i mu}
cos phi)) with small-signal gain cot^2(phi/2): a tunable, non-binary
selection weight.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import (
    ArityError,
    DomainError,
    SingularLoopError,
    SlhModel,
    _as_real,
    _check_angle,
    _check_binary_phases,
    _check_finite,
    _feedback_masked,
    _model,
    feedback,
    identity,
    is_singular_loop,
    series,
)
from .components import phase_shift
from .selector import _phase_on_port, canonical_phase, mz

__all__ = [
    "TransferCurve",
    "build_feedback_selector",
    "build_weighted_selector",
    "chain_feedback_selectors",
    "feedback_selector_scattering",
    "principal_phase",
    "sweep_transfer",
    "weighted_output_phase",
    "weighted_selector_scattering",
    "weighted_small_mu_gain",
]


def principal_phase(z: complex) -> float:
    """Argument of ``z`` canonicalized to (-pi, pi]."""
    a = cmath.phase(z)
    return math.pi if a == -math.pi else a


# ---------------------------------------------------------------------------
# binary feedback selector
# ---------------------------------------------------------------------------

def _selector_loop(phi, mu) -> SlhModel:
    # (Phi_mu + I) <| B(-pi/4) <| (Phi_phi + I) <| B(pi/4), not yet closed
    return series(_phase_on_port(mu, 1), mz(math.pi / 4, -math.pi / 4, phi))


def build_feedback_selector(phi, mu) -> SlhModel:
    """One-port selector: the switch loop closed from output 1 to input 1.

    Array angles broadcast to a batch of selectors.  Singular exactly at
    (phi, mu) = (0, 0) mod 2*pi, where the loop gain hits the
    well-posedness threshold; a batch raises SingularLoopError for its
    first singular element.  The limit of the scattering there is 1 from
    every direction, which ``chain_feedback_selectors`` substitutes.
    """
    return feedback(_selector_loop(phi, mu), 1, 1)


def feedback_selector_scattering(phi: float, mu: float) -> complex:
    """Closed-form scattering of the feedback selector.

    S = (1 + e^{i phi} - 2 e^{i(phi+mu)}) / (2 - e^{i mu} - e^{i(phi+mu)}).
    The numerator equals -e^{i(mu+phi)} times the conjugate of the
    denominator, which forces |S| = 1 wherever the loop is well posed.
    The denominator is 2(1 - S_11), S_11 that of the open loop.
    """
    phi, mu = _check_angle(phi, "phi"), _check_angle(mu, "mu")
    e_mu = cmath.exp(1j * mu)
    e_pm = cmath.exp(1j * (phi + mu))
    den = 2.0 - e_mu - e_pm
    if is_singular_loop(den / 2.0):
        raise SingularLoopError(1, 1, 1.0 - den / 2.0,
                                f"feedback selector singular at phi={phi!r}, mu={mu!r}: "
                                f"|loop denominator| = {abs(den / 2.0):.3e}")
    return (1.0 + cmath.exp(1j * phi) - 2.0 * e_pm) / den


def chain_feedback_selectors(mu, phi):
    """Output phase of n feedback selectors in series, in [0, 2*pi).

    With binary controls the selector vector is read off directly as
    s = phi / pi; no banded-matrix compilation and no tail phase are
    needed, unlike the staircase layout.  All stages are built in one
    batched generic feedback elimination and series-composed in order.
    ``phi`` may also be an (m, n) matrix of control rows sharing the
    memory bank ``mu``; the result is then an array of the m output
    phases, each ``canonical_phase`` of ``principal_phase`` of its row.
    """
    mu_arr = _check_finite(mu, "memory phase")
    phi_arr = _as_real(phi, "control phase")
    if mu_arr.ndim != 1 or phi_arr.ndim not in (1, 2) or phi_arr.shape[-1:] != mu_arr.shape:
        raise ArityError("memory and control vectors must have equal length")
    _check_binary_phases(phi_arr.ravel())
    # stage axis first, rows after; (0, 0) is the removable bypass: reading
    # a zero phase is a no-op, S = 1; the loop is undriven, so L and H are
    # already 0 there
    stages, bypass = _feedback_masked(
        _selector_loop(phi_arr.T, np.broadcast_to(mu_arr, phi_arr.shape).T), 1, 1)
    stages = _model(np.where(bypass[..., None, None], 1.0 + 0.0j, stages.scattering),
                    stages.coupling, stages.hamiltonian)
    model = identity(1)
    for i in range(mu_arr.shape[0]):
        model = series(stages.at(i), model)
    out = np.broadcast_to(model.scattering[..., 0, 0], phi_arr.shape[:-1])
    # principal_phase per row: np.angle can differ from cmath in the last bit
    return canonical_phase(np.reshape([principal_phase(z) for z in out.ravel()], out.shape))


# ---------------------------------------------------------------------------
# weighted selector
# ---------------------------------------------------------------------------

def _weighted_loop(phi: float | np.ndarray, mu: float | np.ndarray) -> SlhModel:
    return _selector_loop(2.0 * phi, mu - phi)


def build_weighted_selector(phi: float | np.ndarray,
                            mu: float | np.ndarray) -> SlhModel:
    """One-port weighted selector: closed loop plus an outer phase pi - phi.

    Array angles broadcast to a batch of selectors, built by one batched
    generic feedback elimination; on a 4 x 5 (phi, mu) grid each element
    matches ``weighted_selector_scattering`` to 3.3e-15.  Singular where
    1 - e^{i mu} cos phi vanishes, i.e. at (0, 0) and (pi, pi) mod 2*pi;
    a batch raises SingularLoopError for its first singular element.
    """
    phi, mu = _check_finite(phi, "phi"), _check_finite(mu, "mu")
    closed = feedback(_weighted_loop(phi, mu), 1, 1)
    return series(phase_shift(math.pi - phi), closed)


def weighted_selector_scattering(phi: float, mu: float) -> complex:
    """Closed-form scattering (e^{i mu} - cos phi) / (1 - e^{i mu} cos phi).

    |1 - e^{i mu} cos phi| equals |1 - S_11| of the open loop."""
    phi, mu = _check_angle(phi, "phi"), _check_angle(mu, "mu")
    e_mu = cmath.exp(1j * mu)
    cos_phi = math.cos(phi)
    den = 1.0 - e_mu * cos_phi
    if is_singular_loop(den):
        raise SingularLoopError(1, 1, e_mu * cos_phi,
                                f"weighted selector singular at phi={phi!r}, mu={mu!r}: "
                                f"|loop denominator| = {abs(den):.3e}")
    return (e_mu - cos_phi) / den


def weighted_output_phase(phi: float, mu: float) -> float:
    """Output phase of the weighted selector, canonical range (-pi, pi].

    Equals mu at phi = pi/2, collapses to 0 at phi = pi, and interpolates
    non-linearly in between; the small-mu slope is cot^2(phi/2).
    """
    return principal_phase(weighted_selector_scattering(phi, mu))


def weighted_small_mu_gain(phi: float) -> float:
    """Small-signal phase gain d(mu_out)/d(mu) at mu = 0: cot^2(phi/2)."""
    phi = _check_angle(phi, "phi")
    den = 1.0 - math.cos(phi)
    if den == 0.0:
        raise DomainError(f"gain diverges at phi = 0 (mod 2*pi), got {phi!r}")
    return (1.0 + math.cos(phi)) / den


# ---------------------------------------------------------------------------
# transfer sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TransferCurve:
    """Sampled weighted-selector response.

    ``samples`` is an (N, 3) float array with columns (mu, phi, mu_out),
    grouped by phi in sweep order with mu ascending inside each group.
    Every row is finite and avoids the singular set.
    """

    samples: np.ndarray

    def __post_init__(self):
        arr = np.array(_check_finite(self.samples, "transfer curve sample"))
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ArityError("samples must be an (N, 3) array")
        _init_curve(self, arr)

    def column(self, phi: float) -> np.ndarray:
        """The (mu, mu_out) rows for one swept control value, in sweep order;
        a phi equal to no swept value raises DomainError."""
        rows = self.samples[self.samples[:, 1] == _as_real(phi, "phi")]
        if not rows.size:
            raise DomainError(f"no sweep column has phi = {float(phi)!r}")
        return rows[:, [0, 2]]


def _init_curve(curve: TransferCurve, samples: np.ndarray) -> TransferCurve:
    # freezes and adopts ``samples`` with no copy and no check
    samples.setflags(write=False)
    object.__setattr__(curve, "samples", samples)
    return curve


def _interior_grid(lo: float, hi: float, points: int) -> np.ndarray:
    # strictly interior points of a (points + 1)-cell split, so the
    # (-pi, pi) range can never touch the singular line mu = +-pi at phi = pi;
    # points >= 1 is the callers' rule (cli's --points range)
    if not hi > lo:
        raise ValueError(f"empty sweep range [{lo}, {hi}]")
    return lo + (np.arange(points) + 1) * ((hi - lo) / (points + 1))


def sweep_transfer(phis, mu_grid) -> TransferCurve:
    """Evaluate the weighted selector over a (phi, mu) product grid.

    phis are swept in the order given; the mu grid is sorted ascending
    once and shared by every phi.  A non-finite angle is refused up front
    with DomainError naming the first one, phis before mus, each in the
    order given.  Any grid point on the singular set aborts the sweep with
    an error naming the point.
    """
    phis_arr = _check_finite(phis, "sweep phi")
    mus = _check_finite(mu_grid, "sweep mu")
    if phis_arr.ndim != 1 or mus.ndim != 1:
        raise ArityError("phi list and mu grid must be 1-D")
    mus = np.sort(mus)
    samples = np.empty((phis_arr.size, mus.size, 3), dtype=np.float64)
    for rows, out in kernels._phase_blocks(phis_arr, mus):
        out[out == -math.pi] = math.pi
        block = samples[rows]
        block[..., 0], block[..., 1], block[..., 2] = mus, phis_arr[rows, None], out
    return _init_curve(object.__new__(TransferCurve), samples.reshape(-1, 3))
