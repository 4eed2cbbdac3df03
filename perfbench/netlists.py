"""Seeded netlist documents for the ``netlist`` workload.

Both generators write the flow-style YAML that slhnet's netlist format
defines, and work out what the document must denote with plain numpy, not
with slhnet, so the workload's oracles stay independent of the package.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def _angle(x: float) -> str:
    return "pi" if x == math.pi else ("0" if x == 0.0 else repr(float(x)))


def _doc(components, circuit) -> str:
    lines = ["version: 1", "components:"]
    lines += [f"  - {{{c}}}" for c in components]
    lines.append("circuit:")
    lines += [f"  - {{{c}}}" for c in circuit]
    return "\n".join(lines) + "\n"


def staircase(rng, n: int):
    """A length-``n`` selector staircase, one cell per selector bit.

    Returns ``(text, bits, mu)``.  The control phase of cell i is pi
    exactly when bits i-1 and i differ (the banded compile matrix), and the
    tail phase is pi when the last bit is set, so the top output phase must
    equal ``bits . mu`` mod 2*pi.
    """
    bits = rng.integers(0, 2, size=n)
    mu = rng.uniform(0.0, TWO_PI, size=n)
    prev = np.concatenate([[0], bits[:-1]])
    control = np.where(bits != prev, math.pi, 0.0)
    tail = math.pi if bits[-1] else 0.0
    comps = ["name: bp, kind: beamsplitter, theta: pi/4",
             "name: bm, kind: beamsplitter, theta: -pi/4",
             "name: w, kind: identity, ports: 1",
             f"name: t, kind: phase, phi: {_angle(tail)}"]
    circ = []
    for i in range(n):
        comps.append(f"name: c{i}, kind: phase, phi: {_angle(control[i])}")
        comps.append(f"name: m{i}, kind: phase, phi: {_angle(mu[i])}")
        circ.append(f"name: ac{i}, op: concat, of: [c{i}, w]")
        circ.append(f"name: am{i}, op: concat, of: [w, m{i}]")
        # leftmost acts last: B(pi/4), control on the top rail, B(-pi/4),
        # memory on the bottom rail
        circ.append(f"name: cell{i}, op: series, of: [am{i}, bm, ac{i}, bp]")
    circ.append("name: at, op: concat, of: [t, w]")
    circ.append("name: tailcell, op: series, of: [bm, at, bp]")
    cells = ", ".join(["tailcell"] + [f"cell{i}" for i in reversed(range(n))])
    circ.append(f"name: stair, op: series, of: [{cells}]")
    return _doc(comps, circ), bits, mu


def _layer(rng, ports: int, tag: str, comps: list):
    """One column of beamsplitters and phases covering ``ports`` rails.
    Appends its components; returns (operand names, scattering matrix)."""
    names, blocks = [], []
    left = ports
    while left > 0:
        j = len(comps)
        if left >= 2 and rng.uniform() < 0.5:
            theta = rng.uniform(-math.pi, math.pi)
            comps.append(f"name: {tag}b{j}, kind: beamsplitter, theta: {_angle(theta)}")
            c, s = math.cos(theta), math.sin(theta)
            blocks.append(np.array([[c, -s], [s, c]], dtype=complex))
            names.append(f"{tag}b{j}")
            left -= 2
        else:
            phi = rng.uniform(0.0, TWO_PI)
            comps.append(f"name: {tag}p{j}, kind: phase, phi: {_angle(phi)}")
            blocks.append(np.array([[np.exp(1j * phi)]]))
            names.append(f"{tag}p{j}")
            left -= 1
    mat = np.zeros((ports, ports), dtype=complex)
    at = 0
    for b in blocks:
        k = b.shape[0]
        mat[at:at + k, at:at + k] = b
        at += k
    return names, mat


def _close(s: np.ndarray, k: int, l: int) -> np.ndarray:
    """Scattering after closing output k onto input l (0-indexed)."""
    keep_r = np.arange(s.shape[0]) != k
    keep_c = np.arange(s.shape[0]) != l
    col, row = s[keep_r, l], s[k, keep_c]
    return s[np.ix_(keep_r, keep_c)] + np.outer(col, row) / (1.0 - s[k, l])


def mesh(rng, depth: int = 12, tail_depth: int = 16, min_loop_gap: float = 0.1) -> str:
    """An 8-rail beamsplitter/phase mesh closed by two feedback loops down
    to 6 ports, followed by a long series chain of 6-port columns.

    Each loop is drawn until ``|1 - S_kl| >= min_loop_gap``, far from the
    package's singular threshold, so elaboration never refuses the document.
    """
    comps, circ = [], []
    s = np.eye(8, dtype=complex)
    layers = []
    for d in range(depth):
        names, mat = _layer(rng, 8, "a", comps)
        circ.append(f"name: la{d}, op: concat, of: [{', '.join(names)}]")
        layers.append(f"la{d}")
        s = mat @ s
    circ.append(f"name: front, op: series, of: [{', '.join(reversed(layers))}]")
    current = "front"
    for loop in range(2):
        while True:
            k, l = (int(x) for x in rng.integers(0, s.shape[0], size=2))
            if abs(1.0 - s[k, l]) >= min_loop_gap:
                break
        circ.append(f"name: fb{loop}, op: feedback, of: [{current}], "
                    f"output: {k + 1}, input: {l + 1}")
        current = f"fb{loop}"
        s = _close(s, k, l)
    layers = [current]
    for d in range(tail_depth):
        names, _ = _layer(rng, 6, "z", comps)
        circ.append(f"name: lz{d}, op: concat, of: [{', '.join(names)}]")
        layers.append(f"lz{d}")
    circ.append(f"name: mesh, op: series, of: [{', '.join(reversed(layers))}]")
    return _doc(comps, circ)
