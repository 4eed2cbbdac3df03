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

import functools
import math
import operator
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
    """A parameter is outside its admissible domain: a non-finite angle or drive
    amplitude; a string, bool or complex angle or a string or bool amplitude; or a
    non-binary control phase or selector bit."""


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


def _as_real(values, what: str, dtype=np.float64) -> np.ndarray:
    """The one conversion rule for caller numbers: ``values`` as a float64 (or
    complex128) array, refused with DomainError unless numpy casts them within their
    kind (no booleans, strings, objects or complex angles)."""
    try:
        arr = np.asarray(values)
        if arr.dtype.kind == "b":  # a bool is no number, as in parse_angle and _check_integers
            raise TypeError
        return arr.astype(dtype, casting="same_kind", copy=False)
    except (TypeError, ValueError):
        kind = "real" if dtype is np.float64 else "real or complex"
        raise DomainError(f"{what} must be {kind}, got {values!r}") from None


def _check_finite(values, what: str, dtype=np.float64) -> np.ndarray:
    """The one finite-value rule: ``_as_real``, then DomainError unless all parts are finite."""
    arr = _as_real(values, what, dtype)
    parts = arr if arr.dtype.kind == "f" else np.stack((arr.real, arr.imag), axis=-1)
    finite = np.isfinite(parts)
    # a single angle is tested by truth value, which skips a reduction
    if not (finite if parts.ndim == 0 else finite.all()):
        raise DomainError(f"{what} must be finite, got {parts[~finite][0].item()!r}")
    return arr


def _check_angle(value, what: str) -> float:
    """One finite angle as a Python float, else DomainError; a finite float skips the arrays."""
    if isinstance(value, float) and math.isfinite(value):
        return float(value)
    arr = _check_finite(value, what)
    if arr.ndim:
        raise DomainError(f"{what} must be a single angle, got shape {arr.shape}")
    return float(arr)


def _check_integers(what: str, *values) -> tuple[int, ...]:
    """The one integer rule for port counts and port numbers: each value is
    taken through ``operator.index``, so any integer type passes and floats
    and strings do not, and a Python or numpy ``bool`` is refused, so
    ``True`` is never port 1.  Raises ArityError naming ``what``."""
    try:
        # bool is an int subclass; operator.index refuses numpy's bool itself
        if bool not in map(type, values):
            return tuple(map(operator.index, values))
    except TypeError:
        pass
    shown, noun = (values[0], "an integer") if len(values) == 1 else (values, "integers")
    raise ArityError(f"{what} must be {noun}, got {shown!r}")


def _check_binary_phases(values, what: str = "control phase") -> None:
    """Refuse a scalar or 1-D ``values`` unless all are exactly 0.0 or math.pi,
    naming the first offending entry by its Python value."""
    arr = _as_real(values, what)
    bad = np.flatnonzero((arr != 0.0) & (arr != math.pi))
    if bad.size:
        x = np.asarray(values if arr.ndim == 0 else values[bad[0]]).item()
        raise DomainError(f"{what} must be exactly 0 or pi, got {x!r}")


@dataclass(frozen=True, eq=False)
class SlhModel:
    """A passive-circuit SLH triplet, or a batch of them.

    Attributes:
        scattering: ``(..., n, n)`` complex scattering matrix.
        coupling: ``(..., n)`` complex coupling vector (sqrt(photons/time)).
        hamiltonian: real Hamiltonian constant (frequency units); a float
            when the batch shape ``scattering.shape[:-2]`` is ``()``, else a
            float array of the batch shape.

    The leading batch axes hold independent models with the same port
    count; every operation acts on each element as it would on that model
    alone, and batch shapes broadcast against each other.
    Undriven passive components have ``coupling == 0`` and
    ``hamiltonian == 0``; their scattering stays unitary under composition.
    Ports are 1-indexed everywhere in the public interface.
    """

    scattering: np.ndarray
    coupling: np.ndarray
    hamiltonian: float = 0.0

    def __post_init__(self):
        s = np.array(_as_real(self.scattering, "scattering", np.complex128))
        l = np.array(_as_real(self.coupling, "coupling", np.complex128))
        if s.ndim < 2 or s.shape[-1] != s.shape[-2]:
            raise ArityError(f"scattering must be square, got shape {s.shape}")
        if s.shape[-1] == 0:
            raise ArityError("model must have at least one port")
        if s.ndim == 2:
            l = l.reshape(-1)
        if l.shape != s.shape[:-1]:
            raise ArityError(
                f"coupling length {l.shape[-1]} does not match {s.shape[-1]} ports"
                if s.ndim == 2 else
                f"coupling shape {l.shape} does not match scattering shape {s.shape}"
            )
        h = _as_real(self.hamiltonian, "hamiltonian")
        try:
            h = h if h.shape == s.shape[:-2] else np.broadcast_to(h, s.shape[:-2])
        except ValueError:
            raise ArityError(f"hamiltonian shape {h.shape} does not broadcast to batch shape "
                             f"{s.shape[:-2]}") from None
        _init(self, s, l, h if s.ndim == 2 else np.array(h))

    @property
    def ports(self) -> int:
        return self.scattering.shape[-1]

    def at(self, index) -> "SlhModel":
        """The model at ``index`` of the batch axes; a bool (numpy's mask) is refused."""
        if not isinstance(index, tuple):
            index = (index,)
        if any(isinstance(i, (bool, np.bool_)) for i in index):
            raise ArityError(f"batch index must not be a bool, got {index}")
        if len(index) > self.scattering.ndim - 2:
            raise ArityError(
                f"index {index} has more axes than batch shape {self.scattering.shape[:-2]}"
            )
        return _model(self.scattering[index], self.coupling[index],
                      np.asarray(self.hamiltonian)[index])

    def is_passive(self, tol: float = 0.0) -> bool:
        """True when the coupling vector vanishes (to within ``tol``), for
        every element of a batch."""
        return bool(np.all(np.abs(self.coupling) <= tol))


def _init(m: SlhModel, s: np.ndarray, l: np.ndarray, h) -> SlhModel:
    s.setflags(write=False)
    l.setflags(write=False)
    if s.ndim == 2:
        h = float(h)
    else:
        h.setflags(write=False)
    # the frozen fields are written straight into the instance dict, which is
    # what object.__setattr__ does for a dataclass without slots
    fields = m.__dict__
    fields["scattering"] = s
    fields["coupling"] = l
    fields["hamiltonian"] = h
    return m


def _model(s: np.ndarray, l: np.ndarray, h) -> SlhModel:
    """An SlhModel from arrays the algebra itself produced, skipping
    validation: ``s`` and ``l`` are complex128 of shapes ``(..., n, n)`` and
    ``(..., n)``, and ``h`` is real and broadcasts to the batch shape."""
    if s.ndim > 2 and np.shape(h) != s.shape[:-2]:
        h = np.array(np.broadcast_to(h, s.shape[:-2]), dtype=np.float64)
    return _init(object.__new__(SlhModel), s, l, h)


def identity(n: int) -> SlhModel:
    """The trivial n-port "no component": ``(I_n, 0, 0)``.

    It is the unit of the series product.
    """
    (n,) = _check_integers("identity port count", n)
    if n < 1:
        raise ArityError(f"identity needs at least one port, got n={n}")
    return _model(np.eye(n, dtype=np.complex128), np.zeros(n, dtype=np.complex128), 0.0)


def series(g2: SlhModel, g1: SlhModel) -> SlhModel:
    """Series product ``g2 <| g1``: g1 acts on the input first.

    Returns ``(S2 S1, S2 L1 + L2, H1 + H2 + Im(L2^dag S2 L1))``, elementwise
    over the broadcast batch shape.
    """
    if g1.ports != g2.ports:
        raise ArityError(
            f"series needs equal port counts, got {g2.ports} <| {g1.ports}"
        )
    s2 = g2.scattering
    # products with unit axes keep the per-element BLAS calls of the
    # matrix-vector and conjugated dot products, so a batch element rounds
    # exactly as the same model composed alone
    s2l1 = s2 @ g1.coupling[..., None]
    l = s2l1[..., 0] + g2.coupling
    cross = (g2.coupling.conj()[..., None, :] @ s2l1)[..., 0, 0]
    h = g1.hamiltonian + g2.hamiltonian + cross.imag
    return _model(s2 @ g1.scattering, l, h)


def concat(g1: SlhModel, g2: SlhModel) -> SlhModel:
    """Concatenation ``g1 [+] g2``: block-diagonal scattering with g1 in the
    upper-left block, stacked coupling ``(L1; L2)``, summed Hamiltonian.

    The block order follows the coupling stack, so the first operand owns
    the first ``g1.ports`` ports of the result.
    """
    n1, n2 = g1.ports, g2.ports
    b1, b2 = g1.scattering.shape[:-2], g2.scattering.shape[:-2]
    batch = b1 if b1 == b2 else np.broadcast_shapes(b1, b2)
    s = np.zeros(batch + (n1 + n2, n1 + n2), dtype=np.complex128)
    s[..., :n1, :n1] = g1.scattering
    s[..., n1:, n1:] = g2.scattering
    l = np.empty(batch + (n1 + n2,), dtype=np.complex128)
    l[..., :n1] = g1.coupling
    l[..., n1:] = g2.coupling
    return _model(s, l, g1.hamiltonian + g2.hamiltonian)


@functools.lru_cache(maxsize=1024)
def _feedback_indices(n: int, ki: int, li: int):
    """Read-only flat index arrays for closing output ``ki`` onto input
    ``li`` (0-indexed) of an n-port.  The first indexes the last two axes of
    the scattering flattened to ``n * n``: the kept ``(n-1) x (n-1)`` block
    in C order, then column ``li`` with row ``ki`` removed, then row ``ki``
    with column ``li`` removed, then ``S_kl``.  The second indexes the
    coupling: the kept entries in order, then ``L_k``."""
    keep_r = [i for i in range(n) if i != ki]
    keep_c = [j for j in range(n) if j != li]
    flat = ([i * n + j for i in keep_r for j in keep_c]
            + [i * n + li for i in keep_r]
            + [ki * n + j for j in keep_c]
            + [ki * n + li])
    arrays = np.array(flat), np.array(keep_r + [ki])
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _feedback_masked(g: SlhModel, k: int, l: int):
    """Feedback elimination of every batch element, and the boolean mask of
    the elements whose loop is singular.  Masked elements are divided by a
    unit denominator instead, so their values are meaningless but finite.

    One ``take`` with the flat indices of ``_feedback_indices``, cached per
    ``(n, k, l)``, gathers the kept block, column l, row k and ``S_kl``; a
    second gathers the kept coupling and ``L_k``.  An unbatched model's
    ``S_kl`` and ``L_k`` come out as numpy scalars, as single-element
    indexing gives them, so its divisions stay numpy's scalar ones."""
    s, c = g.scattering, g.coupling
    n = s.shape[-1]
    if n < 2:
        raise ArityError("feedback needs at least two ports")
    k, l = _check_integers("feedback ports", k, l)
    if not (1 <= k <= n and 1 <= l <= n):
        raise ArityError(f"feedback ports ({k}, {l}) out of range for {n}-port model")
    ki, li = k - 1, l - 1
    m = n - 1
    batch = s.shape[:-2]
    flat, cflat = _feedback_indices(n, ki, li)
    gathered = s.reshape(batch + (n * n,)).take(flat, axis=-1)
    block = gathered[..., :m * m].reshape(batch + (m, m))
    col = gathered[..., m * m:m * m + m]      # column l with row k removed
    row = gathered[..., m * m + m:-1]         # row k with column l removed
    d = 1.0 - gathered[..., -1]
    singular = is_singular_loop(d)
    if np.count_nonzero(singular):
        d = np.where(singular, 1.0, d)
    coupling = c.take(cflat, axis=-1)
    lk = coupling[..., m]
    s_fb = block + col[..., :, None] * row[..., None, :] / d[..., None, None]
    l_fb = coupling[..., :m] + col * (lk / d)[..., None]
    # free the gather before the H term's temporaries, so a large batch
    # does not hold both at its peak
    del gathered, block, col, row
    v = (c.conj()[..., None, :] @ s[..., :, li, None])[..., 0, 0]
    # (sum_j L_j^* S_jl) L_k as Re(v) L_k + Im(v) (i L_k): each real product
    # is rounded once, as in numpy's scalar complex product, where its
    # vectorized complex multiply may fuse a product into the sum
    vlk = v.real * lk + v.imag * (1j * lk)
    h_fb = g.hamiltonian + (vlk / d).imag
    return _model(s_fb, l_fb, h_fb), singular


def feedback(g: SlhModel, k: int = 1, l: int = 1) -> SlhModel:
    """Close output port ``k`` onto input port ``l`` (both 1-indexed).

    The reduced ``(n-1)``-port triplet is

        S_fb = S[del k, del l] + S[del k, col l] (1 - S_kl)^-1 S[row k, del l]
        L_fb = L[del k]        + S[del k, col l] (1 - S_kl)^-1 L_k
        H_fb = H + Im( (sum_j L_j^* S_jl) (1 - S_kl)^-1 L_k )

    Raises SingularLoopError when ``|1 - S_kl| <= FEEDBACK_SINGULAR_TOL``,
    for the first such element of a batch in C order.
    """
    model, singular = _feedback_masked(g, k, l)
    if np.count_nonzero(singular):
        first = np.unravel_index(np.argmax(singular), singular.shape)
        raise SingularLoopError(k, l, g.scattering[first + (k - 1, l - 1)])
    return model


def check_unitary(s: np.ndarray, tol: float) -> bool:
    """True iff ``max |S^dag S - I| <= tol``."""
    s = _as_real(s, "matrix", np.complex128)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ArityError(f"expected a square matrix, got shape {s.shape}")
    resid = s.conj().T @ s - np.eye(s.shape[0])
    return bool(np.abs(resid).max() <= tol)
