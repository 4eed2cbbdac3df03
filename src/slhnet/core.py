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

TWO_PI = 2.0 * math.pi

# a 0-d complex zero, which numpy adds to an array faster than a Python 0j
_POSITIVE_ZERO = np.zeros((), dtype=np.complex128)
_POSITIVE_ZERO.setflags(write=False)


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
    ``d = 1 - S_kl``: refuse when ``|d| <= FEEDBACK_SINGULAR_TOL``.  A ``d``
    with no absolute value (a string, None) raises DomainError."""
    try:
        return abs(d) <= FEEDBACK_SINGULAR_TOL
    except TypeError:  # caught, not converted first: every feedback runs this rule
        raise DomainError(f"loop denominator must be a number, got {d!r}") from None


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
    finite = np.isfinite(arr)
    if not finite.all():
        parts = arr if arr.dtype.kind == "f" else np.stack((arr.real, arr.imag), axis=-1)
        raise DomainError(f"{what} must be finite, got {parts[~np.isfinite(parts)][0].item()!r}")
    return arr


def _check_angle(value, what: str, noun: str = "angle") -> float:
    """One finite angle as a Python float, else DomainError; a finite float skips the arrays."""
    if isinstance(value, float) and math.isfinite(value):
        return float(value)
    arr = _check_finite(value, what)
    if arr.ndim:
        raise DomainError(f"{what} must be a single {noun}, got shape {arr.shape}")
    return float(arr)


def _check_tolerance(tol) -> float:
    """The one tolerance rule: a single finite number >= 0 as a float, else DomainError."""
    tol = _check_angle(tol, "tolerance", "number")
    if tol < 0.0:
        raise DomainError(f"tolerance must not be negative, got {tol!r}")
    return tol


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


def _check_binary_phases(values, what: str = "control phase") -> np.ndarray:
    """The one reading of 0/pi schedules: the bool switch states ``values == math.pi``
    in the shape and layout of ``values``, once every entry is exactly 0.0 or math.pi;
    else DomainError naming the first offending entry, in memory order, by its Python value."""
    arr = _as_real(values, what)
    bad = np.flatnonzero(((arr != 0.0) & (arr != math.pi)).ravel(order="K"))
    if bad.size:
        x = np.asarray(values).ravel(order="K")[bad[0]].item()
        raise DomainError(f"{what} must be exactly 0 or pi, got {x!r}")
    return arr == math.pi


def _check_memory_phases(mem: np.ndarray) -> None:
    """The one range rule for memory phases: DomainError unless every entry of the
    float array ``mem`` lies in [0, 2*pi), naming the first offending one in C order."""
    # NaN fails both range tests; the mask is built for the message only
    if mem.size and not (mem.min() >= 0.0 and mem.max() < TWO_PI):
        bad = np.flatnonzero(~((mem >= 0.0) & (mem < TWO_PI)))
        raise DomainError(f"memory phase {mem.flat[bad[0]].item()!r} outside [0, 2*pi)")


# the one-entry float64 operand of _settle's comparison
_SETTLE = np.zeros(1)
_SETTLE.setflags(write=False)


def _settle() -> None:
    """The one settle rule, run after every BLAS product.

    OpenBLAS's AVX-512 (SkylakeX) kernels can return with the upper halves of the
    vector registers dirty.  Until a vectorized loop clears them, legacy-SSE code in
    CPython and libm runs slower: a scalar loop right after a 2x2 complex product ran
    2.6-3x slower on an AVX-512 Xeon.  A one-entry float64 comparison runs numpy's
    vectorized loop, whose exit clears that state; a float64 add, ``take``,
    ``np.count_nonzero`` or ``np.isfinite`` does not (CHANGES.md has the table)."""
    np.less_equal(_SETTLE, _SETTLE)


def _product(a, b):
    """``a @ b``, bit for bit, then ``_settle()``: the one matrix product of the library."""
    out = a @ b
    _settle()
    return out


def _freeze(obj, **fields):
    """The one freeze rule for every value type: store ``fields`` on the frozen
    dataclass ``obj`` and make each ndarray among them read-only; returns ``obj``.

    The fields are written straight into the instance dict, which is what
    ``object.__setattr__`` does for a dataclass without slots.  A caller that
    must leave its input writeable passes its own copy."""
    obj.__dict__.update(fields)
    for value in fields.values():
        if type(value) is np.ndarray:
            value.setflags(False)  # write=False, by position: numpy reads keywords slowly
    return obj


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
    The unbatched undriven results of the builders (``phase_shift`` of any
    unbatched angle among them), ``series``, ``feedback`` and ``concat`` of
    two such share one read-only zero coupling per port count
    (``np.array(model.coupling)`` copies it); a batched result holds its own.
    Ports are 1-indexed; a NaN or infinite entry raises DomainError.
    """

    scattering: np.ndarray
    coupling: np.ndarray
    hamiltonian: float = 0.0

    def __post_init__(self):
        # C-ordered copies, as a product's bytes follow the strides of its operands
        s = np.array(_check_finite(self.scattering, "scattering", np.complex128), order="C")
        # adding +0 turns each -0.0 into +0.0 and keeps every other value, so no
        # composition result carries a -0.0 and the undriven shortcuts of series
        # and feedback equal their generic formulas bit for bit
        l = np.add(_check_finite(self.coupling, "coupling", np.complex128), _POSITIVE_ZERO,
                   order="C")
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
        h = _check_finite(self.hamiltonian, "hamiltonian")
        try:
            h = h if h.shape == s.shape[:-2] else np.broadcast_to(h, s.shape[:-2])
        except ValueError:
            raise ArityError(f"hamiltonian shape {h.shape} does not broadcast to batch shape "
                             f"{s.shape[:-2]}") from None
        _freeze(self, scattering=s, coupling=l, _undriven=not np.count_nonzero(l),
                hamiltonian=float(h) + 0.0 if s.ndim == 2 else h + 0.0)

    @property
    def ports(self) -> int:
        return self.scattering.shape[-1]

    def at(self, index) -> "SlhModel":
        """The model at integer or slice ``index`` of the batch axes; a bool (a mask) is refused."""
        if not isinstance(index, tuple):
            index = (index,)
        if any(isinstance(i, (bool, np.bool_)) for i in index):
            raise ArityError(f"batch index must not be a bool, got {index}")
        _check_integers("batch index", *[i for i in index if type(i) is not slice])
        if len(index) > self.scattering.ndim - 2:
            raise ArityError(
                f"index {index} has more axes than batch shape {self.scattering.shape[:-2]}"
            )
        try:
            s = self.scattering[index]
        except IndexError:  # numpy's out-of-bounds and does-not-fit-an-index errors
            raise ArityError(f"index {index} out of range for batch shape "
                             f"{self.scattering.shape[:-2]}") from None
        return _model(s, self.coupling[index], np.asarray(self.hamiltonian)[index])

    def is_passive(self, tol: float = 0.0) -> bool:
        """True when the coupling vector vanishes (to within ``tol``), for
        every element of a batch."""
        return bool(np.all(np.abs(self.coupling) <= _check_tolerance(tol)))


def _model(s: np.ndarray, l: np.ndarray | None, h) -> SlhModel:
    """An SlhModel from arrays the algebra itself produced, skipping
    validation: ``s`` and ``l`` are complex128 of shapes ``(..., n, n)`` and
    ``(..., n)``, and ``h`` is real and broadcasts to the batch shape, a float if ``()``.
    ``l=None`` is the one undriven rule: an unbatched ``s`` gets the shared
    ``_no_coupling(n)``, a batched one a zero coupling of its own.  The ``_undriven``
    mark the algebra reads is set here and in ``SlhModel.__post_init__`` alone."""
    undriven = l is None or not np.count_nonzero(l)
    if s.ndim == 2:
        h = float(h)
        l = _no_coupling(len(s)) if l is None else l
    else:
        l = np.zeros(s.shape[:-1], dtype=np.complex128) if l is None else l
        if np.shape(h) != s.shape[:-2]:
            h = np.array(np.broadcast_to(h, s.shape[:-2]), dtype=np.float64)
    return _freeze(object.__new__(SlhModel), scattering=s, coupling=l, hamiltonian=h,
                   _undriven=undriven)


@functools.lru_cache(maxsize=128)
def _no_coupling(n: int) -> np.ndarray:
    """The read-only zero coupling of every unbatched undriven n-port ``_model``
    builds; storage only, as the ``_undriven`` mark tells a model undriven."""
    zero = np.zeros(n, dtype=np.complex128)
    zero.setflags(write=False)
    return zero


def identity(n: int) -> SlhModel:
    """The trivial n-port "no component": ``(I_n, 0, 0)``.

    It is the unit of the series product.
    """
    (n,) = _check_integers("identity port count", n)
    if n < 1:
        raise ArityError(f"identity needs at least one port, got n={n}")
    try:
        s = np.eye(n, dtype=np.complex128)
    except ValueError:  # numpy's "Maximum allowed dimension exceeded" or "array is too big"
        raise ArityError(f"identity of {n} ports exceeds numpy's array size limit") from None
    return _model(s, None, 0.0)


def series(g2: SlhModel, g1: SlhModel) -> SlhModel:
    """Series product ``g2 <| g1``: g1 acts on the input first.

    Returns ``(S2 S1, S2 L1 + L2, H1 + H2 + Im(L2^dag S2 L1))``, elementwise
    over the broadcast batch shape.
    """
    n = g1.scattering.shape[-1]
    if n != g2.scattering.shape[-1]:
        raise ArityError(
            f"series needs equal port counts, got {g2.ports} <| {g1.ports}"
        )
    s2, s1 = g2.scattering, g1.scattering
    try:
        s = _product(s2, s1)
    except ValueError:  # numpy's "operands could not be broadcast together"
        raise ArityError(f"series batch shapes {s2.shape[:-2]} <| {s1.shape[:-2]} "
                         "do not broadcast") from None
    if g1._undriven and g2._undriven:
        # undriven: the L and cross terms below are exact zeros
        return _model(s, None, g1.hamiltonian + g2.hamiltonian)
    # products with unit axes keep the per-element BLAS calls of the
    # matrix-vector and conjugated dot products, so a batch element rounds
    # exactly as the same model composed alone
    s2l1 = _product(s2, g1.coupling[..., None])
    l = s2l1[..., 0] + g2.coupling
    cross = _product(g2.coupling.conj()[..., None, :], s2l1)[..., 0, 0]
    h = g1.hamiltonian + g2.hamiltonian + cross.imag
    return _model(s, l, h)


def concat(g1: SlhModel, g2: SlhModel) -> SlhModel:
    """Concatenation ``g1 [+] g2``: block-diagonal scattering with g1 in the
    upper-left block, stacked coupling ``(L1; L2)``, summed Hamiltonian.

    The block order follows the coupling stack, so the first operand owns
    the first ``g1.ports`` ports of the result.
    """
    n1, n2 = g1.ports, g2.ports
    b1, b2 = g1.scattering.shape[:-2], g2.scattering.shape[:-2]
    try:
        batch = b1 if b1 == b2 else np.broadcast_shapes(b1, b2)
    except ValueError:  # numpy's "shape mismatch"
        raise ArityError(f"concat batch shapes {b1} [+] {b2} do not broadcast") from None
    s = np.zeros(batch + (n1 + n2, n1 + n2), dtype=np.complex128)
    s[..., :n1, :n1] = g1.scattering
    s[..., n1:, n1:] = g2.scattering
    if g1._undriven and g2._undriven:
        l = None
    else:
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
    """Feedback elimination of every batch element, the boolean mask of the
    elements whose loop is singular, and the number of them.  Masked
    elements are divided by a unit denominator instead, so their values are
    meaningless but finite.

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
    count = np.count_nonzero(singular)
    if count:
        d = np.where(singular, 1.0, d)
    # block + col row / d, its three operations in that order in one buffer
    s_fb = np.multiply(col[..., :, None], row[..., None, :])
    np.divide(s_fb, d[..., None, None], out=s_fb)
    np.add(block, s_fb, out=s_fb)
    if g._undriven:
        # undriven: the L and H terms below are exact zeros
        return _model(s_fb, None, g.hamiltonian), singular, count
    coupling = c.take(cflat, axis=-1)
    lk = coupling[..., m]
    l_fb = coupling[..., :m] + col * (lk / d)[..., None]
    v = _product(c.conj()[..., None, :], s[..., :, li, None])[..., 0, 0]
    # (sum_j L_j^* S_jl) L_k as Re(v) L_k + Im(v) (i L_k): each real product
    # is rounded once, as in numpy's scalar complex product, where its
    # vectorized complex multiply may fuse a product into the sum
    vlk = v.real * lk + v.imag * (1j * lk)
    h_fb = g.hamiltonian + (vlk / d).imag
    return _model(s_fb, l_fb, h_fb), singular, count


def feedback(g: SlhModel, k: int = 1, l: int = 1) -> SlhModel:
    """Close output port ``k`` onto input port ``l`` (both 1-indexed).

    The reduced ``(n-1)``-port triplet is

        S_fb = S[del k, del l] + S[del k, col l] (1 - S_kl)^-1 S[row k, del l]
        L_fb = L[del k]        + S[del k, col l] (1 - S_kl)^-1 L_k
        H_fb = H + Im( (sum_j L_j^* S_jl) (1 - S_kl)^-1 L_k )

    Raises SingularLoopError when ``|1 - S_kl| <= FEEDBACK_SINGULAR_TOL``,
    for the first such element of a batch in C order.
    """
    model, singular, count = _feedback_masked(g, k, l)
    if count:
        first = np.unravel_index(np.argmax(singular), singular.shape)
        raise SingularLoopError(k, l, g.scattering[first + (k - 1, l - 1)])
    return model


def _unitarity_residual(s: np.ndarray):
    """``max |S^dag S - I|`` over the last two axes of a ``(..., n, n)`` scattering, unchecked."""
    n = s.shape[-1]
    resid = _product(s.conj().swapaxes(-1, -2), s) - np.eye(n)
    # a max is exact in any order, so one pass over the flattened matrix
    return np.abs(resid).reshape(s.shape[:-2] + (n * n,)).max(axis=-1)


def check_unitary(s: np.ndarray, tol: float) -> bool:
    """True iff ``max |S^dag S - I| <= tol``."""
    s = _as_real(s, "matrix", np.complex128)
    tol = _check_tolerance(tol)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ArityError(f"expected a square matrix, got shape {s.shape}")
    if not s.size:
        raise ArityError(f"expected at least one port, got shape {s.shape}")
    return bool(_unitarity_residual(s) <= tol)
