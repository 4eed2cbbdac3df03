"""Hot numeric kernels, one numpy implementation each: the staircase chain
fold, the batched selector sweep and the weighted transfer grid."""

from __future__ import annotations

import numpy as np

from .core import (FEEDBACK_SINGULAR_TOL, ArityError, DomainError, SingularLoopError,
                   _as_real, _check_binary_phases, _check_finite, _check_memory_phases,
                   _product, is_singular_loop)

__all__ = ["BACKEND", "chain_unitary", "selector_batch_amplitudes",
           "weighted_phase_grid"]

# kept because perfbench/run.py records it in every run's environment block
BACKEND = "numpy"

# cells per block of the chain fold
BLOCK = 64

# np.exp(1j * phi) of the two switch states, phi = 0 and phi = pi
SWITCH_FACTORS = np.exp(1j * np.array([0.0, np.pi]))
# [part, state, 2]: the real (part 0) and imaginary (part 1) parts of
# SWITCH_FACTORS, each twice, to scale both floats of a complex rail entry
SWITCH_PAIRS = np.repeat(
    np.array([SWITCH_FACTORS.real, SWITCH_FACTORS.imag])[:, :, None], 2, axis=2)

# B(+-pi/4) weight
C45 = np.cos(np.pi / 4)

# rows per block of the selector sweep, and grid points per block of the
# transfer sweep (at least one row): a block's complex arrays stay within a
# core's L2 cache
ROW_BLOCK = 8192
GRID_BLOCK = 16384
# columns every stage of the selector sweep's prefix table runs on, at
# least: a stage on fewer costs about as much
TABLE_BASE = 256


def chain_unitary(thetas, phases, ports) -> np.ndarray:
    """Scattering matrix of a two-path chain, input side first.

    ``thetas`` are the beamsplitter mixing angles in order; after
    beamsplitter ``i`` the relative phase ``phases[i]`` is applied to path
    ``ports[i]`` (1 = left, 2 = right).  ``len(phases) == len(ports) ==
    len(thetas) - 1`` (0 for no beamsplitter), else ArityError; a port that
    is not an integer 1 or 2 (a bool or a float included), or a non-finite
    angle or phase, raises DomainError.

    The cells are folded in blocks of ``BLOCK`` = 64 cells, the last one
    padded with identity cells; a chain of at most 64 cells is one block of
    its own length.  All blocks are folded side by side, one cell at a
    time: the 2x2 product of cell j with each block's running product, then
    each row scaled by its phase factor (1 on the unphased row).  The block
    products are then folded in order.  A chain of at most 64 cells thus
    equals the plain sequential fold bit for bit.  On a longer chain of N
    cells each element passes through B + N/B sequential products (B = 64)
    instead of N, and the rounding error bound of a product grows with that
    count (Higham 2002, ch. 3).
    """
    thetas = _check_finite(thetas, "chain mixing angle")
    phases = _check_finite(phases, "chain phase")
    ports = np.asarray(ports)
    want = (max(thetas.size - 1, 0),)
    if thetas.ndim != 1 or not phases.shape == ports.shape == want:
        raise ArityError(f"need 1-D thetas and one phase and port per cell but the last, "
                         f"got shapes {thetas.shape}, {phases.shape} and {ports.shape}")
    # a bool or a float is no port, whatever its value
    bad = np.flatnonzero((ports != 1) & (ports != 2) | (ports.dtype.kind not in "iu"))
    if bad.size:
        raise DomainError(f"chain port must be 1 or 2, got {ports.tolist()[bad[0]]!r}")
    cells = max(len(thetas), 1)
    width = min(BLOCK, cells)
    blocks = -(-cells // width)
    angles = np.zeros(blocks * width)
    angles[: len(thetas)] = thetas
    c, sn = np.cos(angles), np.sin(angles)
    rot = np.empty((blocks * width, 2, 2), dtype=np.complex128)
    rot[:, 0, 0] = c
    rot[:, 0, 1] = -sn
    rot[:, 1, 0] = sn
    rot[:, 1, 1] = c
    factor = np.ones((blocks * width, 2), dtype=np.complex128)
    rows = ports.astype(np.intp) - 1
    factor[np.arange(len(phases)), rows] = np.exp(1j * phases)
    rot = rot.reshape(blocks, width, 2, 2)
    factor = factor.reshape(blocks, width, 2, 1)
    s = np.tile(np.eye(2, dtype=np.complex128), (blocks, 1, 1))
    for j in range(width):
        s = _product(rot[:, j], s)
        s *= factor[:, j]
    out = s[0]
    for k in range(1, blocks):
        out = _product(s[k], out)
    return out


def _turner(rail, w):
    """A function ``turn(factor)`` that does ``rail *= factor[0] + 1j *
    factor[1]`` in place, as real arithmetic on the float64 view of
    ``rail`` with every product rounded once: ``(zr*fr - zi*fi, zr*fi +
    zi*fr)``.  ``w`` is ``(2, 2 * len(rail))`` float scratch; ``factor``
    broadcasts against the float64 view (``(2, 1)``, or ``w`` itself)."""
    z = rail.view(np.float64)
    zr, zi = z[0::2], z[1::2]
    # w[0] holds (zr*fr, zi*fr) interleaved, w[1] (zr*fi, zi*fi)
    rr, ir = w[0, 0::2], w[0, 1::2]
    ri, ii = w[1, 0::2], w[1, 1::2]

    def turn(factor):
        np.multiply(z, factor, out=w)
        np.subtract(rr, ii, out=zr)
        np.add(ri, ir, out=zi)
    return turn


def _stager(rails, n, memory):
    """A function ``stage(i, on_i)`` that runs stage ``i`` of a staircase
    with ``n`` memory phases, in place on every column of the ``(4, k)``
    complex ``rails`` (top, bot and the p/q scratch): B(+pi/4), the switch
    factor on top (pi where ``on_i``), B(-pi/4), then memory phase ``i`` on
    bot unless ``i`` is the tail."""
    top, bot, p, q = rails
    pair, scratch = rails[:2], rails[2:]
    # the free p/q pair as (2, 2 * k) float scratch for _turner
    w = scratch.view(np.float64)
    switch = w.reshape(2, -1, 2)
    turn_top, turn_bot = _turner(top, w), _turner(bot, w)

    def stage(i, on_i):
        # B(+pi/4): (p - q, p + q) from p = c45 * top, q = c45 * bot
        np.multiply(C45, pair, out=scratch)
        np.subtract(p, q, out=top)
        np.add(p, q, out=bot)
        SWITCH_PAIRS.take(on_i, axis=1, out=switch, mode="clip")
        turn_top(w)
        # B(-pi/4): (p + q, q - p)
        np.multiply(C45, pair, out=scratch)
        np.add(p, q, out=top)
        np.subtract(q, p, out=bot)
        if i < n:
            turn_bot(memory[i])
    return stage


def selector_batch_amplitudes(mu, controls) -> np.ndarray:
    """Left/right output amplitudes of selector staircases, drive ``(1, 0)``.

    ``controls`` holds one staircase per row: columns ``0..n-1`` are the
    in-chain control phases, column ``n`` is the tail phase, and all rows
    share the memory phases ``mu`` (length ``n``); other shapes raise
    ArityError.  Returns an ``(m, 2)`` complex array.  Every row still takes
    all ``n + 1`` stages of its chain product; the result is never read off
    the switch dichotomy.

    A row's state after stage ``i`` depends only on its first ``i + 1``
    switch states, so rows that share a switch prefix share its partial
    product.  The first ``depth = min(n + 1, floor(log2 m), log2
    ROW_BLOCK)`` stages run once on a table of all ``2**depth`` prefixes,
    in the rails of one block, each column with the switch bits of its
    column number, so column ``c < 2**depth`` holds prefix ``c``.  The table
    is built by doubling: stage ``i`` runs on the first ``max(2**(i + 1),
    TABLE_BASE)`` columns only, and each time that count doubles, the new
    half starts as a copy of the old.  Every column still takes the same
    operations in the same order.  Each block of
    ``ROW_BLOCK`` rows then gathers its starting state from the table, at
    prefix index ``sum(on[j] << j for j < depth)``, and runs the remaining
    ``n + 1 - depth`` stages.  Nothing row-sized is allocated beyond the
    switch states and the output.

    Every memory phase must be finite and in [0, 2*pi), and every control
    exactly 0.0 or pi, else DomainError; ``on`` is True where a control is
    pi, and its factor's real and imaginary parts are looked up in ``SWITCH_PAIRS``.
    A block is held as two contiguous rails, and B(+-pi/4) writes both from
    the products ``p = c45 * top`` and ``q = c45 * bot``.  The switch factor
    and the memory phase turn a rail in place by the unfused complex
    product, each real product rounded once (``_turner``), never by a
    fused multiply-add.  B(+-pi/4) needs no such care: c45 is real, so one
    of the two products in each part of ``c45 * z`` is an exact zero and a
    fused multiply-add rounds it the same.  So every row of a batch equals
    its one-row call bit for bit, whatever the batch size and the CPU's
    SIMD path.
    """
    mu = _check_finite(mu, "memory phase")
    controls = np.atleast_2d(_as_real(controls, "control phase"))
    if mu.ndim != 1 or controls.ndim != 2 or controls.shape[1] != mu.size + 1:
        raise ArityError(f"need 1-D memory phases and (m, n + 1) controls for n of them, "
                         f"got shapes {mu.shape} and {controls.shape}")
    _check_memory_phases(mu)
    return _switch_batch(mu, _check_binary_phases(controls).T)


def _switch_batch(mu, on) -> np.ndarray:
    # selector_batch_amplitudes on checked mu and (n + 1, m) bool switch states
    n, m = on.shape[0] - 1, on.shape[1]
    e = np.exp(1j * mu)
    # (real, imag) of each memory factor, as a column for _turner
    memory = np.stack([e.real, e.imag], axis=1)[:, :, None]
    depth = min(n + 1, max(m.bit_length() - 1, 0), ROW_BLOCK.bit_length() - 1)
    out = np.empty((m, 2), dtype=np.complex128)
    # one block's rails and prefix indices, reused by every block
    width = min(m, ROW_BLOCK)
    rails = np.empty(4 * width, dtype=np.complex128)
    prefix = np.empty(width, dtype=np.intp)
    block = rails.reshape(4, width)
    stage = _stager(block, n, memory)
    # the prefix table, by doubling: column c runs with switch bits c
    cols = min(width, TABLE_BASE)
    table_stage = stage if cols == width else _stager(block[:, :cols], n, memory)
    block[0], block[1] = 1.0, 0.0
    for i in range(depth):
        if 2 << i > cols:
            block[:2, cols : 2 * cols] = block[:2, :cols]
            cols *= 2
            table_stage = stage if cols == width else _stager(block[:, :cols], n, memory)
        bits = prefix[:cols]
        np.right_shift(np.arange(cols), i, out=bits)
        table_stage(i, np.bitwise_and(bits, 1, out=bits))
    table = block[:2, : 1 << depth].copy()
    for lo in range(0, m, ROW_BLOCK):
        rows = slice(lo, min(lo + ROW_BLOCK, m))
        if rows.stop - lo < width:
            # the last, shorter block
            block = rails[: 4 * (rows.stop - lo)].reshape(4, -1)
            stage = _stager(block, n, memory)
        index = prefix[: rows.stop - lo]
        index.fill(0)
        for j in reversed(range(depth)):
            np.left_shift(index, 1, out=index)
            np.bitwise_or(index, on[j, rows], out=index)
        table.take(index, axis=1, out=block[:2], mode="clip")
        for i in range(depth, n + 1):
            stage(i, on[i, rows])
        out[rows, 0] = block[0]
        out[rows, 1] = block[1]
    return out


def _grid_angles(phis, mus):
    """The one reader of sweep angles: finite phis, then finite mus, both 1-D."""
    phis, mus = _check_finite(phis, "sweep phi"), _check_finite(mus, "sweep mu")
    if phis.ndim != 1 or mus.ndim != 1:
        raise ArityError("phi list and mu grid must be 1-D")
    return phis, mus


def _phase_grid(phis, mus, out) -> None:
    """``weighted_phase_grid`` of finite 1-D angles, written into ``out``."""
    e_mu = np.exp(1j * mus)[None, :]
    e_bar = np.conjugate(e_mu)
    cos_phi = np.cos(phis)[:, None]
    # Re d = fl(1 - fl(e_r c)) with |e_r| <= 1, and rounding is monotone, so
    # fl(e_r c) <= |c| and |d| >= Re d >= fl(1 - |c|): a row with fl(1 - |c|)
    # above the tolerance holds no singular point
    safe = 1.0 - np.abs(cos_phi[:, 0]) > FEEDBACK_SINGULAR_TOL
    step = max(1, GRID_BLOCK // max(1, mus.size))
    # one block's conjugated denominator and numerator, reused by every block
    buffers = np.empty((2, min(step, phis.size), mus.size), dtype=np.complex128)
    for lo in range(0, phis.size, step):
        rows = slice(lo, lo + step)
        c = cos_phi[rows]
        den, w = buffers[:, : c.size]
        # conj(1 - e_mu c) as 1 - conj(e_mu) c, one pass fewer; a zero imaginary
        # part may differ in sign, but the phases do not (tests/test_kernels.py)
        np.multiply(e_bar, c, out=den)
        np.subtract(1.0, den, out=den)
        if not safe[rows].all():
            bad = np.flatnonzero(is_singular_loop(den))
            if bad.size:
                i, j = divmod(lo * mus.size + int(bad[0]), mus.size)
                raise SingularLoopError(
                    1, 1, np.exp(1j * mus[j]) * np.cos(phis[i]),
                    f"sweep grid touches the singular set at phi={float(phis[i])!r}, "
                    f"mu={float(mus[j])!r}",
                )
        np.subtract(e_mu, c, out=w)
        w *= den
        # arctan2 reads contiguous parts faster than strided ones, to the same
        # bits; the denominator's memory holds them
        parts = den.reshape(-1).view(np.float64).reshape((2,) + den.shape)
        parts[0], parts[1] = w.real, w.imag
        np.arctan2(parts[1], parts[0], out=out[rows])


def weighted_phase_grid(phis, mus) -> np.ndarray:
    """Output phase of the weighted feedback selector on a product grid.

    Entry ``[i, j]`` is ``arg((e^{i mu_j} - cos phi_i) / (1 - e^{i mu_j}
    cos phi_i))`` in ``[-pi, pi]`` (``sweep_transfer`` maps -pi to pi), as
    the argument of numerator times conjugated denominator, which skips the
    complex division; the phi = pi collapse line keeps ~1e-17 of dust.

    The grid is computed in blocks of ``max(1, GRID_BLOCK // len(mus))``
    rows, in row order, in two block-sized complex buffers that stay in a
    core's L2 cache; every element takes the same operations in any block.
    ``np.arctan2``, the ufunc ``np.angle`` calls, reads each block's real
    and imaginary parts from a contiguous copy, to the bits it gives on the
    strided parts, and writes the phases straight into the output.  Each
    block's conjugated denominator, formed directly as ``1 - conj(e^{i mu})
    cos phi``, is tested with ``is_singular_loop``: the first grid point on
    the singular set, in C order, raises SingularLoopError naming that
    (phi, mu).  A block whose rows all have ``1 - |cos phi| >
    FEEDBACK_SINGULAR_TOL`` skips the test, since ``|d| >= Re d >= 1 - |cos
    phi|`` and none of its points can be singular.  A non-finite angle
    raises DomainError before any of that, phis before mus, and angles that
    are not 1-D raise ArityError, as in ``sweep_transfer``.
    """
    phis, mus = _grid_angles(phis, mus)
    out = np.empty((phis.size, mus.size))
    _phase_grid(phis, mus, out)
    return out
