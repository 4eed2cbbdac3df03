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
from .core import (TWO_PI, ArityError, DomainError, SlhModel, _as_real, _check_angle,
                   _check_binary_phases, _check_finite, _check_integers, _check_memory_phases,
                   _freeze, _product, concat, identity, series)
from .components import beamsplitter, phase_shift

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
    # 0/1 bits of any numeric dtype, checked and returned as they are (complex
    # ones as their real part), with no copy
    arr = np.asarray(s)
    kind = arr.dtype.kind
    if kind in "biufc" and (not arr.size or (arr.min() >= 0 and arr.max() <= 1 if kind in "biu"
                                             else np.all((arr == 0) | (arr == 1)))):
        return arr.real
    raise DomainError(f"{what} entries must be 0 or 1")


def _check_staircase(mem: np.ndarray, ctrl: np.ndarray, tail: np.ndarray) -> None:
    """Refuse a staircase bank unless memory (n, m) lies in [0, 2*pi), controls
    (n, k) and tails (k,) are exactly 0 or pi, and each tail is pi times its column's parity."""
    _check_memory_phases(mem)
    parity = np.count_nonzero(_check_binary_phases(ctrl), axis=0) % 2
    if not np.array_equal(parity, _check_binary_phases(tail, "tail phase")):
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
        _freeze(self, memory_phases=tuple(mem.tolist()), control_phases=tuple(ctrl.tolist()),
                tail_phase=_check_angle(self.tail_phase, "tail phase"))
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
    """Fold the staircase through the generic circuit algebra, as the paper draws it.

    The slow reference route: each control's ``mz_switch`` cell, then its memory
    shifter on port 2, one series product at a time, closed by the tail's switch.
    It does not read ``staircase_arrays``, the layout of the fast route
    ``selector_scattering``; the two agree exactly up to float associativity.
    """
    model = identity(2)
    for control, memory in zip(spec.control_phases, spec.memory_phases):
        model = series(_phase_on_port(memory, 2), series(mz_switch(control), model))
    return series(mz_switch(spec.tail_phase), model)


def selector_scattering(spec: SelectorSpec) -> np.ndarray:
    """2x2 scattering of the staircase via the chain kernel."""
    thetas, phases, ports = staircase_arrays(spec)
    return kernels.chain_unitary(thetas, phases, ports)


def selector_sweep_amplitudes(mu, selectors) -> np.ndarray:
    """Output amplitudes for many selectors sharing one memory bank.

    Each row's switch states come straight from its bits, with no control
    schedule, and its staircase is folded against the drive (1, 0).  Returns
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
    return kernels._switch_batch(mu_arr, _switch_states(bits.T))


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
        # its own copies, so that freezing them leaves the caller's arrays alone
        _freeze(self, lower=np.array(_check_finite(self.lower, "lower"), order="C"),
                gamma=np.array(_check_finite(self.gamma, "gamma"), order="C"))


def compilation_matrices(n: int) -> CompilationMatrices:
    """Dense L and Gamma for length n, the reference for the fast compile."""
    (n,) = _check_integers("selector length", n)
    if n < 0:
        raise ArityError(f"selector length must be nonnegative, got {n}")
    try:
        lower = np.tril(np.ones((n, n))) / math.pi
    except ValueError:  # numpy's "Maximum allowed dimension exceeded" or "array is too big"
        raise ArityError(f"selector length {n} exceeds numpy's array size limit") from None
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
    schedule = math.pi * _switch_states(bits[:, None])
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
    output amplitude of the built chain and refuse the memory phases it refuses.
    """
    mu_arr = _check_finite(mu, "memory phase")
    bits = _as_bits(s)
    if mu_arr.ndim != 1 or bits.ndim != 1:
        raise ArityError("memory phases and selector must be 1-D vectors")
    if mu_arr.shape != bits.shape:
        raise ArityError(
            f"memory length {mu_arr.shape} != selector length {bits.shape}"
        )
    _check_memory_phases(mu_arr)
    # contiguous operands, as every cast gives: a strided dot product sums in another order
    return canonical_phase(_product(np.ascontiguousarray(bits), np.ascontiguousarray(mu_arr)))


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
        # the spec's own C-ordered copies: freezing them leaves the caller's arrays alone
        mem = np.array(_as_real(self.memory_matrix, "memory phase"), order="C")
        ctrl = np.array(_as_real(self.control_matrix, "control phase"), order="C")
        tail = np.array(_as_real(self.tail_phases, "tail phase"), order="C")
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
        _freeze(self, memory_matrix=mem, control_matrix=ctrl, tail_phases=tail)

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
    schedule = math.pi * _switch_states(bits)
    return schedule[:-1], schedule[-1]


def _switch_states(bits: np.ndarray) -> np.ndarray:
    # validated (n, k) 0/1 bits as the (n + 1, k) bool switch states: where
    # bits i - 1 and i differ, bits -1 and n read as 0, so the tail is the last
    # bit.  pi times it is compile_selector_matrix's schedule, then its tails
    edges = np.zeros((bits.shape[0] + 2, bits.shape[1]), dtype=bool)
    # bool bits as they are, other bits cast once: assigning them uncast is far slower
    edges[1:-1] = bits.astype(bool, copy=False)
    return np.not_equal(edges[1:], edges[:-1])


def recover_selector_matrix(control_matrix) -> np.ndarray:
    """Columnwise schedule inversion; see ``recover_selector``."""
    phi = _as_real(control_matrix, "control phase")
    if phi.ndim != 2:
        raise ArityError("control matrix must be 2-D")
    return np.cumsum(_check_binary_phases(phi), axis=0) % 2


def eval_matrix_product(spec: MatrixProductSpec) -> np.ndarray:
    """All m*k output phases at once: mod(M^T S, 2*pi).

    S is recovered from the stored control schedule, so the result reflects
    what the compiled hardware would read, not the selectors the caller
    thinks they compiled.
    """
    bits = recover_selector_matrix(spec.control_matrix)
    return canonical_phase(_product(spec.memory_matrix.T, bits.astype(np.float64)))
