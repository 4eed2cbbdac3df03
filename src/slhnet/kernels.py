"""Hot numeric kernels, one numpy implementation each: the staircase chain
fold, the batched selector sweep and the weighted transfer grid."""

from __future__ import annotations

import math

import numpy as np

from .core import (FEEDBACK_SINGULAR_TOL, ArityError, DomainError, SingularLoopError,
                   _check_binary_phases, _check_finite, is_singular_loop)

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


def chain_unitary(thetas, phases, ports) -> np.ndarray:
    """Scattering matrix of a two-path chain, input side first.

    ``thetas`` are the beamsplitter mixing angles in order; after
    beamsplitter ``i`` the relative phase ``phases[i]`` is applied to path
    ``ports[i]`` (1 = left, 2 = right).  ``len(phases) == len(ports) ==
    len(thetas) - 1`` (0 for no beamsplitter), else ArityError; a port other
    than 1 or 2, or a non-finite angle or phase, raises DomainError.

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
    thetas = np.asarray(thetas, dtype=np.float64)
    phases = np.asarray(phases, dtype=np.float64)
    ports = np.asarray(ports)
    want = (max(thetas.size - 1, 0),)
    if thetas.ndim != 1 or not phases.shape == ports.shape == want:
        raise ArityError(f"need 1-D thetas and one phase and port per cell but the last, "
                         f"got shapes {thetas.shape}, {phases.shape} and {ports.shape}")
    bad = np.flatnonzero((ports != 1) & (ports != 2))
    if bad.size:
        raise DomainError(f"chain port must be 1 or 2, got {ports[bad[0]].item()!r}")
    _check_finite(thetas, "chain mixing angle")
    _check_finite(phases, "chain phase")
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
        s = rot[:, j] @ s
        s *= factor[:, j]
    out = s[0]
    for k in range(1, blocks):
        out = s[k] @ out
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
    ROW_BLOCK)`` stages run once on a table of all ``2**depth`` prefixes:
    the rails of one block run them, each column with the switch bits of
    its column number, so column ``c < 2**depth`` holds prefix ``c``.  Each
    block of ``ROW_BLOCK`` rows then gathers its starting state from the
    table, at prefix index ``sum(on[j] << j for j < depth)``, and runs the
    remaining ``n + 1 - depth`` stages.  Nothing row-sized is allocated
    beyond the switch states and the output.

    Every memory phase must be finite and every control exactly 0.0 or pi,
    else DomainError; a control's factor is looked up in ``SWITCH_FACTORS``.
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
    mu = np.asarray(mu, dtype=np.float64)
    controls = np.atleast_2d(np.asarray(controls, dtype=np.float64))
    if mu.ndim != 1 or controls.ndim != 2 or controls.shape[1] != mu.size + 1:
        raise ArityError(f"need 1-D memory phases and (m, n + 1) controls for n of them, "
                         f"got shapes {mu.shape} and {controls.shape}")
    _check_finite(mu, "memory phase")
    ctl = controls.T
    _check_binary_phases(np.ravel(ctl, order="K"))
    on = ctl == math.pi
    n, m = ctl.shape[0] - 1, ctl.shape[1]
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
    # the prefix table: column c runs with switch bits c
    block[0], block[1] = 1.0, 0.0
    for i in range(depth):
        np.right_shift(np.arange(width), i, out=prefix)
        stage(i, np.bitwise_and(prefix, 1, out=prefix))
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


def _phase_blocks(phis, mus):
    """Yield ``(rows, phase)``: ``weighted_phase_grid`` one block of rows at a time."""
    e_mu = np.exp(1j * mus)[None, :]
    cos_phi = np.cos(phis)[:, None]
    step = max(1, GRID_BLOCK // max(1, mus.size))
    for lo in range(0, phis.size, step):
        rows = slice(lo, lo + step)
        c = cos_phi[rows]
        # the same operations as (e_mu - c) * conj(1 - e_mu c), done in
        # place so that two block-sized complex arrays are alive, not five
        den = e_mu * c
        np.subtract(1.0, den, out=den)
        near = np.flatnonzero(np.abs(den.real) <= FEEDBACK_SINGULAR_TOL)
        bad = near[is_singular_loop(den.reshape(-1)[near])]
        if bad.size:
            i, j = divmod(lo * mus.size + int(bad[0]), mus.size)
            raise SingularLoopError(
                1, 1, np.exp(1j * mus[j]) * np.cos(phis[i]),
                f"sweep grid touches the singular set at phi={float(phis[i])!r}, "
                f"mu={float(mus[j])!r}",
            )
        np.conjugate(den, out=den)
        w = e_mu - c
        w *= den
        yield rows, np.angle(w)


def weighted_phase_grid(phis, mus) -> np.ndarray:
    """Output phase of the weighted feedback selector on a product grid.

    Entry ``[i, j]`` is ``arg((e^{i mu_j} - cos phi_i) / (1 - e^{i mu_j}
    cos phi_i))`` in ``[-pi, pi]`` (``sweep_transfer`` maps -pi to pi), as
    the argument of numerator times conjugated denominator, which skips the
    complex division; the phi = pi collapse line keeps ~1e-17 of dust.

    The grid is computed in blocks of ``max(1, GRID_BLOCK // len(mus))``
    rows, in row order, so that a block's complex temporaries stay in a
    core's L2 cache; every element takes the same six operations in any
    block.  Each block's denominator is formed once and tested with
    ``is_singular_loop``: the first grid point on the singular set, in C
    order, raises SingularLoopError naming that (phi, mu).  Only the points
    with ``|Re d| <= FEEDBACK_SINGULAR_TOL`` are tested, since ``|d| >=
    |Re d|`` and no other point can be singular.  A non-finite angle
    raises DomainError before any of that, phis before mus.
    """
    phis = np.asarray(phis, dtype=np.float64)
    mus = np.asarray(mus, dtype=np.float64)
    _check_finite(phis, "sweep phi")
    _check_finite(mus, "sweep mu")
    out = np.empty((phis.size, mus.size))
    for rows, phase in _phase_blocks(phis, mus):
        out[rows] = phase
    return out
