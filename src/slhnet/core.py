"""SLH triplets and the Gough-James composition rules for passive circuits.

An open system coupled to ``n`` field modes is parametrized by a triplet
``(S, L, H)``: an ``n x n`` scattering matrix, an ``n``-vector of coupling
amplitudes, and a scalar Hamiltonian constant.  This module specializes the
algebra to passive linear optics, where every entry is a plain complex (or
real) number rather than an operator, and implements the three composition
rules:

* series product       ``G2 <| G1``  -- all outputs of G1 feed G2
* concatenation        ``G1 [+] G2`` -- side-by-side, non-interacting
* feedback             ``[G]_{k->l}`` -- output k closed onto input l

All values are immutable after construction and all operations are pure
functions, so models can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SlhModel",
    "identity",
    "series",
    "concat",
    "feedback",
    "check_unitary",
    "is_singular_loop",
    "CircuitError",
    "ArityError",
    "DomainError",
    "DrivenCircuitError",
    "SingularLoopError",
    "FEEDBACK_SINGULAR_TOL",
]

# Loop is treated as ill-posed when |1 - S_kl| falls at or below this.
FEEDBACK_SINGULAR_TOL = 1e-9


class CircuitError(Exception):
    """Base class for circuit-algebra errors."""


class ArityError(CircuitError, ValueError):
    """Port counts, vector lengths, or matrix shapes do not line up."""


class DomainError(CircuitError, ValueError):
    """A parameter is outside its admissible domain (non-finite angle,
    non-binary control phase, non-binary selector bit, ...)."""


class DrivenCircuitError(CircuitError, ValueError):
    """An operation requiring an undriven passive model received a driven one."""


class SingularLoopError(CircuitError, ArithmeticError):
    """Feedback loop is singular: ``|1 - S_kl|`` is below the well-posedness
    threshold.  Carries the offending ports and scattering entry."""

    def __init__(self, k: int, l: int, s_kl: complex, message: str | None = None):
        self.k = k
        self.l = l
        self.s_kl = complex(s_kl)
        if message is None:
            message = (
                f"singular feedback loop: output {k} -> input {l}, "
                f"S_kl = {self.s_kl}"
            )
        super().__init__(message)


def is_singular_loop(d):
    """The one singular-loop rule, elementwise on the loop denominator
    ``d = 1 - S_kl``: refuse when ``|d| <= FEEDBACK_SINGULAR_TOL``."""
    return abs(d) <= FEEDBACK_SINGULAR_TOL


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SlhModel:
    """A passive-circuit SLH triplet.

    Attributes:
        scattering: ``(n, n)`` complex scattering matrix.
        coupling: length-``n`` complex coupling vector (sqrt(photons/time)).
        hamiltonian: real scalar Hamiltonian constant (frequency units).

    Undriven passive components have ``coupling == 0`` and
    ``hamiltonian == 0``; their scattering stays unitary under composition.
    Ports are 1-indexed everywhere in the public interface.
    """

    scattering: np.ndarray
    coupling: np.ndarray
    hamiltonian: float = 0.0

    def __post_init__(self):
        s = np.array(self.scattering, dtype=np.complex128)
        l = np.array(self.coupling, dtype=np.complex128).reshape(-1)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ArityError(f"scattering must be square, got shape {s.shape}")
        if s.shape[0] == 0:
            raise ArityError("model must have at least one port")
        if l.shape[0] != s.shape[0]:
            raise ArityError(
                f"coupling length {l.shape[0]} does not match {s.shape[0]} ports"
            )
        object.__setattr__(self, "scattering", _readonly(s))
        object.__setattr__(self, "coupling", _readonly(l))
        object.__setattr__(self, "hamiltonian", float(self.hamiltonian))

    @property
    def ports(self) -> int:
        return self.scattering.shape[0]

    def is_passive(self, tol: float = 0.0) -> bool:
        """True when the coupling vector vanishes (to within ``tol``)."""
        return bool(np.all(np.abs(self.coupling) <= tol))


def identity(n: int) -> SlhModel:
    """The trivial n-port "no component": ``(I_n, 0, 0)``.

    It is the unit of the series product.
    """
    if n < 1:
        raise ArityError(f"identity needs at least one port, got n={n}")
    return SlhModel(np.eye(n, dtype=np.complex128), np.zeros(n, dtype=np.complex128))


def series(g2: SlhModel, g1: SlhModel) -> SlhModel:
    """Series product ``g2 <| g1``: g1 acts on the input first.

    Returns ``(S2 S1, S2 L1 + L2, H1 + H2 + Im(L2^dag S2 L1))``.
    """
    if g1.ports != g2.ports:
        raise ArityError(
            f"series needs equal port counts, got {g2.ports} <| {g1.ports}"
        )
    s = g2.scattering @ g1.scattering
    l = g2.scattering @ g1.coupling + g2.coupling
    cross = np.vdot(g2.coupling, g2.scattering @ g1.coupling)
    h = g1.hamiltonian + g2.hamiltonian + cross.imag
    return SlhModel(s, l, h)


def concat(g1: SlhModel, g2: SlhModel) -> SlhModel:
    """Concatenation ``g1 [+] g2``: block-diagonal scattering with g1 in the
    upper-left block, stacked coupling ``(L1; L2)``, summed Hamiltonian.

    The block order follows the coupling stack, so the first operand owns
    the first ``g1.ports`` ports of the result.
    """
    n1, n2 = g1.ports, g2.ports
    s = np.zeros((n1 + n2, n1 + n2), dtype=np.complex128)
    s[:n1, :n1] = g1.scattering
    s[n1:, n1:] = g2.scattering
    l = np.concatenate([g1.coupling, g2.coupling])
    return SlhModel(s, l, g1.hamiltonian + g2.hamiltonian)


def feedback(g: SlhModel, k: int = 1, l: int = 1) -> SlhModel:
    """Close output port ``k`` onto input port ``l`` (both 1-indexed).

    The reduced ``(n-1)``-port triplet is

        S_fb = S[del k, del l] + S[del k, col l] (1 - S_kl)^-1 S[row k, del l]
        L_fb = L[del k]        + S[del k, col l] (1 - S_kl)^-1 L_k
        H_fb = H + Im( (sum_j L_j^* S_jl) (1 - S_kl)^-1 L_k )

    Raises SingularLoopError when ``|1 - S_kl| <= FEEDBACK_SINGULAR_TOL``.
    """
    n = g.ports
    if n < 2:
        raise ArityError("feedback needs at least two ports")
    if not (1 <= k <= n and 1 <= l <= n):
        raise ArityError(f"feedback ports ({k}, {l}) out of range for {n}-port model")
    ki, li = k - 1, l - 1
    s = g.scattering
    d = 1.0 - s[ki, li]
    if is_singular_loop(d):
        raise SingularLoopError(k, l, s[ki, li])
    keep_r = np.arange(n) != ki
    keep_c = np.arange(n) != li
    col = s[keep_r, li]          # column l with row k removed
    row = s[ki, keep_c]          # row k with column l removed
    s_fb = s[np.ix_(keep_r, keep_c)] + np.outer(col, row) / d
    l_fb = g.coupling[keep_r] + col * (g.coupling[ki] / d)
    h_fb = g.hamiltonian + (np.vdot(g.coupling, s[:, li]) * g.coupling[ki] / d).imag
    return SlhModel(s_fb, l_fb, h_fb)


def check_unitary(s: np.ndarray, tol: float) -> bool:
    """True iff ``max |S^dag S - I| <= tol``."""
    s = np.asarray(s, dtype=np.complex128)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ArityError(f"expected a square matrix, got shape {s.shape}")
    resid = s.conj().T @ s - np.eye(s.shape[0])
    return bool(np.abs(resid).max() <= tol)
