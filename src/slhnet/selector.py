"""Mach-Zehnder switching and the binary phase-selector staircase.

A Mach-Zehnder cell with internal phase 0 or pi acts as an exact identity
or swap on its two rails, so a ladder of such cells can route a probe beam
past a row of memory phases and accumulate exactly the subset selected by
a binary vector s.  The probe enters on the top rail, dips onto the bottom
rail wherever a control phase of pi flips the switch state, picks up the
memory phase stored there, and is returned to the top rail by the tail
phase.  The output phase is then the dot product s . mu modulo 2*pi.

Control schedules are compiled by the banded matrix Gamma, which is pi
times the first difference, and recovered by its inverse L, prefix sums
mod 2; both run in integer space, so both are exact.  The dense matrices
are the reference route the checks compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import (ArityError, DomainError, SlhModel, _as_real, _check_angle,
                   _check_binary_phases, _check_finite, concat, identity, series)
from .components import beamsplitter, phase_shift

TWO_PI = 2.0 * math.pi

__all__ = [
    "CompilationMatrices",
    "MatrixProductSpec",
    "SelectorSpec",
    "build_selector_chain",
    "canonical_phase",
    "compilation_matrices",
    "compile_selector",
    "compile_selector_matrix",
    "crossing",
    "eval_matrix_product",
    "eval_selector",
    "mz",
    "mz_switch",
    "recover_selector",
    "recover_selector_matrix",
    "selector_scattering",
    "selector_sweep_amplitudes",
    "staircase_arrays",
]


def canonical_phase(x):
    """Reduce a phase to the canonical range [0, 2*pi): a float for a scalar,
    an array of its shape for an array; a NaN or infinite phase raises DomainError."""
    r = np.mod(_check_finite(x, "phase"), TWO_PI)
    # mod of a tiny negative number can round up to exactly 2*pi
    r = np.where(r >= TWO_PI, 0.0, r)
    return r if r.ndim else float(r)


def _as_bits(s, what: str = "selector") -> np.ndarray:
    arr = np.asarray(s)
    if arr.dtype == np.bool_ or np.issubdtype(arr.dtype, np.integer):
        # bool and integer bits are checked as they are, without a float copy
        ok = not arr.size or (arr.min() >= 0 and arr.max() <= 1)
    elif np.issubdtype(arr.dtype, np.number):
        ok = np.all((arr == 0) | (arr == 1))
    else:
        ok = not arr.size
    if not ok:
        raise DomainError(f"{what} entries must be 0 or 1")
    return arr.real.astype(np.int64, copy=False)


def _check_memory_phases(mem: np.ndarray) -> None:
    bad = np.flatnonzero(~((mem >= 0.0) & (mem < TWO_PI)))  # NaN fails too
    if bad.size:
        raise DomainError(f"memory phase {mem.flat[bad[0]].item()!r} outside [0, 2*pi)")


def _tail_phases(control) -> np.ndarray:
    """The tails returning the probe to the top rail: pi times each column's parity."""
    return math.pi * (np.count_nonzero(np.asarray(control) == math.pi, axis=0) % 2)


def _check_staircase(mem: np.ndarray, ctrl: np.ndarray, tail: np.ndarray) -> None:
    """Refuse a staircase bank unless memory (n, m) lies in [0, 2*pi), controls
    (n, k) and tails (k,) are exactly 0 or pi, and tails are ``_tail_phases``."""
    _check_memory_phases(mem)
    _check_binary_phases(np.concatenate([ctrl.ravel(), tail]))
    if not np.array_equal(_tail_phases(ctrl), tail):
        raise DomainError("tail phase must equal the mod-2 sum of the control phases")


# ---------------------------------------------------------------------------
# Mach-Zehnder cells
# ---------------------------------------------------------------------------

def mz(theta1: float, theta2: float, phi: float) -> SlhModel:
    """Mach-Zehnder interferometer: B(theta2) after a port-1 phase after B(theta1).

    The scattering matrix is R(theta2) @ diag(e^{i phi}, 1) @ R(theta1).
    """
    inner = series(_phase_on_port(phi, 1), beamsplitter(theta1))
    return series(beamsplitter(theta2), inner)


def mz_switch(phi: float) -> SlhModel:
    """The balanced Mach-Zehnder used as a binary switch.

    phi must be exactly 0 or pi (the float ``math.pi``); the cell is then
    exactly the identity or the swap.  Anything else raises DomainError,
    because a partial switch is never a valid control setting here.
    """
    _check_binary_phases(phi, what="switch control phase")
    return mz(math.pi / 4, -math.pi / 4, phi)


def crossing() -> SlhModel:
    """A waveguide crossing: the fully switched Mach-Zehnder, i.e. a swap."""
    return mz_switch(math.pi)


# ---------------------------------------------------------------------------
# staircase description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelectorSpec:
    """Phase settings of one selector staircase.

    ``memory_phases`` are the n stored phases in [0, 2*pi).
    ``control_phases`` are the n switch settings, each exactly 0 or pi.
    ``tail_phase`` is the final switch setting returning the probe to the
    top rail; it must equal the mod-2 sum of the control phases, otherwise
    the staircase leaks power out the wrong port.
    """

    memory_phases: tuple
    control_phases: tuple
    tail_phase: float

    def __post_init__(self):
        mem = _as_real(self.memory_phases, "memory phase")
        ctrl = _as_real(self.control_phases, "control phase")
        if mem.ndim != 1 or ctrl.ndim != 1:
            raise ArityError("memory and control phases must be 1-D")
        object.__setattr__(self, "memory_phases", tuple(mem.tolist()))
        object.__setattr__(self, "control_phases", tuple(ctrl.tolist()))
        object.__setattr__(self, "tail_phase", _check_angle(self.tail_phase, "tail phase"))
        if len(mem) != len(ctrl):
            raise ArityError(
                f"{len(mem)} memory phases need {len(mem)} control phases, got {len(ctrl)}"
            )
        _check_staircase(mem[:, None], ctrl[:, None], np.array([self.tail_phase]))

    @property
    def n(self) -> int:
        return len(self.memory_phases)

    @classmethod
    def from_selector(cls, s, mu) -> "SelectorSpec":
        """Compile selector bits ``s`` and attach the memory bank ``mu``."""
        control, tail = compile_selector(s)
        return cls(mu, control, tail)


def staircase_arrays(spec: SelectorSpec):
    """Angles, interleaved phases, and phase ports of the staircase.

    Beamsplitter angles alternate +pi/4, -pi/4 over 2(n+1) cells.  Control
    phase i sits inside cell i on the top rail (port 1); memory phase i
    sits between cells i and i+1 on the bottom rail (port 2); the tail
    phase sits inside the last cell on the top rail.  Everything is listed
    input side first, matching ``kernels.chain_unitary``.
    """
    n = spec.n
    thetas = np.empty(2 * (n + 1), dtype=np.float64)
    thetas[0::2] = math.pi / 4
    thetas[1::2] = -math.pi / 4
    phases = np.empty(2 * n + 1, dtype=np.float64)
    ports = np.empty(2 * n + 1, dtype=np.int8)
    phases[0 : 2 * n : 2] = spec.control_phases
    ports[0 : 2 * n : 2] = 1
    phases[1 : 2 * n : 2] = spec.memory_phases
    ports[1 : 2 * n : 2] = 2
    phases[2 * n] = spec.tail_phase
    ports[2 * n] = 1
    return thetas, phases, ports


def _phase_on_port(value: float, port: int) -> SlhModel:
    if port == 1:
        return concat(phase_shift(value), identity(1))
    return concat(identity(1), phase_shift(value))


def build_selector_chain(spec: SelectorSpec) -> SlhModel:
    """Fold the staircase through the generic circuit algebra.

    This is the slow reference route: 2(n+1) beamsplitters and 2n+1 phase
    components combined one series product at a time.  The fast route,
    ``selector_scattering``, must agree with it exactly up to float
    associativity.
    """
    thetas, phases, ports = staircase_arrays(spec)
    model = identity(2)
    for i in range(len(thetas)):
        model = series(beamsplitter(thetas[i]), model)
        if i < len(phases):
            model = series(_phase_on_port(phases[i], int(ports[i])), model)
    return model


def selector_scattering(spec: SelectorSpec) -> np.ndarray:
    """2x2 scattering of the staircase via the chain kernel."""
    thetas, phases, ports = staircase_arrays(spec)
    return kernels.chain_unitary(thetas, phases, ports)


def selector_sweep_amplitudes(mu, selectors) -> np.ndarray:
    """Output amplitudes for many selectors sharing one memory bank.

    Each row of ``selectors`` is compiled to its control schedule and the
    corresponding staircase is folded against the drive (1, 0).  Returns
    an (m, 2) complex array of (top, bottom) output amplitudes.
    """
    bits = np.atleast_2d(_as_bits(selectors))
    mu_arr = _as_real(mu, "memory phase")
    if bits.ndim != 2 or mu_arr.ndim != 1:
        raise ArityError(
            f"need 1-D memory phases and 1-D or 2-D selectors, got {mu_arr.ndim}-D "
            f"and {bits.ndim}-D"
        )
    if bits.shape[1] != mu_arr.shape[0]:
        raise ArityError(
            f"selector length {bits.shape[1]} != memory length {mu_arr.shape[0]}"
        )
    _check_memory_phases(mu_arr)
    return kernels.selector_batch_amplitudes(mu_arr, _compile_bits(bits.T).T)


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CompilationMatrices:
    """The compile/recover matrix pair for length-n selectors.

    ``lower`` is L with entries (1/pi) on and below the diagonal; ``gamma``
    is its inverse, pi on the diagonal and -pi on the first subdiagonal.
    L @ Gamma == Gamma @ L == I holds exactly, not just to rounding, since
    each nonzero product is (1/pi)*pi == 1.0 and the sums are small
    integers.  Exactness requires per-element rounding: BLAS matmul may
    fuse multiply-adds and leak the 1/pi rounding into the sums, so the
    identity must be evaluated with scalar products (the test suite does).
    """

    lower: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        for name in ("lower", "gamma"):
            # its own copies, so that freezing them leaves the caller's arrays alone
            arr = np.array(_as_real(getattr(self, name), name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def compilation_matrices(n: int) -> CompilationMatrices:
    """Dense L and Gamma for length n, the reference for the fast compile."""
    if n < 0:
        raise ArityError(f"selector length must be nonnegative, got {n}")
    lower = np.tril(np.ones((n, n))) / math.pi
    gamma = math.pi * (np.eye(n) - np.eye(n, k=-1))
    return CompilationMatrices(lower, gamma)


def compile_selector(s):
    """Control schedule (phi vector, tail phase) for selector bits ``s``.

    The single-column case of ``compile_selector_matrix``: pi where bits
    i-1 and i differ, 0.0 elsewhere; the tail is the schedule's mod-2 sum.
    """
    bits = _as_bits(s)
    if bits.ndim != 1:
        raise ArityError("selector must be a 1-D vector")
    schedule = _compile_bits(bits[:, None])
    return schedule[:-1, 0], float(schedule[-1, 0])


def recover_selector(control) -> np.ndarray:
    """Invert a control schedule back to selector bits, exactly.

    The single-column case of ``recover_selector_matrix``: L then mod 2,
    i.e. prefix sums of the schedule over pi, in integer space.
    """
    phi = _as_real(control, "control phase")
    if phi.ndim != 1:
        raise ArityError("control schedule must be a 1-D vector")
    return recover_selector_matrix(phi[:, None])[:, 0]


def eval_selector(mu, s) -> float:
    """Output phase of the staircase: ``canonical_phase`` of s . mu, 0.0 if empty.

    This is the closed-form route; it must match the argument of the top
    output amplitude of the built chain.
    """
    mu_arr = _check_finite(mu, "memory phase")
    bits = _as_bits(s)
    if mu_arr.ndim != 1 or bits.ndim != 1:
        raise ArityError("memory phases and selector must be 1-D vectors")
    if mu_arr.shape != bits.shape:
        raise ArityError(
            f"memory length {mu_arr.shape} != selector length {bits.shape}"
        )
    return canonical_phase(bits @ mu_arr)


# ---------------------------------------------------------------------------
# matrix extension
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MatrixProductSpec:
    """A bank of m memory columns read by k selector columns.

    ``memory_matrix`` is n x m with entries in [0, 2*pi); ``control_matrix``
    is the n x k compiled schedule with entries exactly 0 or pi;
    ``tail_phases`` holds the k tail settings, one per selector column,
    each the mod-2 column sum of the schedule.
    """

    memory_matrix: np.ndarray
    control_matrix: np.ndarray
    tail_phases: np.ndarray

    def __post_init__(self):
        # the spec's own copies, so that freezing them leaves the caller's arrays alone
        mem = np.array(_as_real(self.memory_matrix, "memory phase"))
        ctrl = np.array(_as_real(self.control_matrix, "control phase"))
        tail = np.array(_as_real(self.tail_phases, "tail phase"))
        if mem.ndim != 2 or ctrl.ndim != 2 or tail.ndim != 1:
            raise ArityError("memory/control must be matrices, tails a vector")
        if mem.shape[0] != ctrl.shape[0]:
            raise ArityError(
                f"memory rows {mem.shape[0]} != control rows {ctrl.shape[0]}"
            )
        if tail.shape[0] != ctrl.shape[1]:
            raise ArityError(
                f"{ctrl.shape[1]} selector columns need {ctrl.shape[1]} tails"
            )
        _check_staircase(mem, ctrl, tail)
        for name, arr in zip(("memory_matrix", "control_matrix", "tail_phases"),
                             (mem, ctrl, tail)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_selector_matrix(cls, selectors, memories) -> "MatrixProductSpec":
        phi, tail = compile_selector_matrix(selectors)
        return cls(memories, phi, tail)


def compile_selector_matrix(selectors):
    """Columnwise control schedule (Phi, tails) for a binary matrix.

    Phi = Gamma @ S reduced into {0, pi}; the tails are the mod-2 column
    sums.  Gamma @ S is pi times the first difference down each column,
    -pi lifting to pi, so that difference gives it exactly in O(nk).
    """
    bits = _as_bits(selectors, what="selector matrix")
    if bits.ndim != 2:
        raise ArityError("selector matrix must be 2-D")
    schedule = _compile_bits(bits)
    return schedule[:-1], schedule[-1]


def _compile_bits(bits: np.ndarray) -> np.ndarray:
    # compile_selector_matrix on an (n, k) integer 0/1 array already
    # validated, as one (n + 1, k) array: the schedule, then the tails.  The
    # schedule's mod-2 column sum telescopes to the last bit, so each tail
    # is pi times that bit
    n, k = bits.shape
    if not n:
        return np.zeros((1, k))
    schedule = np.empty((n + 1, k))
    np.multiply(bits[0] != 0, math.pi, out=schedule[0])
    np.multiply(bits[1:] != bits[:-1], math.pi, out=schedule[1:n])
    np.multiply(bits[-1] != 0, math.pi, out=schedule[n])
    return schedule


def recover_selector_matrix(control_matrix) -> np.ndarray:
    """Columnwise schedule inversion; see ``recover_selector``."""
    phi = _as_real(control_matrix, "control phase")
    if phi.ndim != 2:
        raise ArityError("control matrix must be 2-D")
    _check_binary_phases(phi.ravel())
    steps = (phi == math.pi).astype(np.int64)
    return np.cumsum(steps, axis=0) % 2


def eval_matrix_product(spec: MatrixProductSpec) -> np.ndarray:
    """All m*k output phases at once: mod(M^T S, 2*pi).

    S is recovered from the stored control schedule, so the result reflects
    what the compiled hardware would read, not the selectors the caller
    thinks they compiled.
    """
    bits = recover_selector_matrix(spec.control_matrix)
    return canonical_phase(spec.memory_matrix.T @ bits.astype(np.float64))
