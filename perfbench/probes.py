"""Per-layer timings on fixed, seeded inputs, made in every traced run.

Each probe times one layer's public entry point directly, with the tracer
removed, so a per-call figure carries no wrapper cost.  The sizes match the
``bulk`` workload where a probe stands for one of its calls.  Kernel operation and
byte counts are computed from array sizes, not measured.
"""

from __future__ import annotations

import math
import re
import statistics
import sys
import time

import numpy as np

import netlists
import workloads as wl
from tracer import Tracer

TWO_PI = 2.0 * math.pi


def per_call(fn, *args, reps: int = 5, batch_s: float = 0.01) -> float:
    """Median seconds per call over ``reps`` batches of about ``batch_s``."""
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn(*args)
        if time.perf_counter() - t0 >= batch_s or n >= 1 << 16:
            break
        n *= 4
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(n):
            fn(*args)
        samples.append((time.perf_counter() - t0) / n)
    return statistics.median(samples)


def once(fn, *args, reps: int = 3) -> float:
    """Median seconds of ``reps`` single calls, for calls of 10 ms and up."""
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn(*args)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _non_singular(rng, make, k, l):
    while True:
        m = make(rng)
        if abs(1.0 - m.scattering[k - 1, l - 1]) > 0.1:
            return m


def layer_probes(slh, seed: int) -> dict:
    core, comp, sel, ro = slh.core, slh.components, slh.selector, slh.readout
    kern, net = slh.kernels, slh.netlist
    rng = np.random.default_rng(seed)
    out = {}

    def bs(r):
        return comp.beamsplitter(r.uniform(-math.pi, math.pi))

    def six(r):
        return core.concat(bs(r), core.concat(bs(r), bs(r)))

    s2 = np.array([[0.6, -0.8], [0.8, 0.6]], dtype=complex)
    out["core.model_init_us"] = per_call(core.SlhModel, s2, np.zeros(2)) * 1e6
    out["core.series_us.2p"] = per_call(core.series, bs(rng), bs(rng)) * 1e6
    out["core.series_us.6p"] = per_call(core.series, six(rng), six(rng)) * 1e6
    out["core.concat_us"] = per_call(core.concat, bs(rng), bs(rng)) * 1e6
    out["core.feedback_us.2p"] = per_call(core.feedback, _non_singular(rng, bs, 1, 1), 1, 1) * 1e6
    out["core.feedback_us.6p"] = per_call(core.feedback, _non_singular(rng, six, 2, 5), 2, 5) * 1e6

    bits8 = rng.integers(0, 2, size=8)
    mu8 = rng.uniform(0.0, TWO_PI, size=8)
    spec8 = sel.SelectorSpec.from_selector(bits8, mu8)
    out["selector.scattering_us.n8"] = per_call(sel.selector_scattering, spec8) * 1e6
    out["selector.build_chain_us.n8"] = per_call(sel.build_selector_chain, spec8) * 1e6

    phi, mu = rng.uniform(0.5, TWO_PI - 0.5, size=2)
    out["readout.build_feedback_us"] = per_call(ro.build_feedback_selector, phi, mu) * 1e6
    out["readout.closed_form_us"] = per_call(ro.feedback_selector_scattering, phi, mu) * 1e6
    out["readout.chain_feedback_ms.n8"] = per_call(
        ro.chain_feedback_selectors, mu8, bits8 * math.pi) * 1e3

    # kernels and the long entry points, at the bulk workload's sizes
    bits = rng.integers(0, 2, size=wl.STAIR_N)
    mem = rng.uniform(0.0, TWO_PI, size=wl.STAIR_N)
    long_spec = sel.SelectorSpec.from_selector(bits, mem)
    thetas, phases, ports = sel.staircase_arrays(long_spec)
    out["selector.compile_s.long"] = once(sel.SelectorSpec.from_selector, bits, mem)
    chain_s = once(kern.chain_unitary, thetas, phases, ports)
    out["kernels.chain_ns_per_cell"] = chain_s / thetas.size * 1e9

    rows = wl.all_selectors(wl.ROW_N)
    row_mu = rng.uniform(0.0, TWO_PI, size=wl.ROW_N)
    # the schedule compile_selector produces: pi where adjacent bits differ,
    # tail pi when the last bit is set
    prev = np.concatenate([np.zeros((rows.shape[0], 1), dtype=rows.dtype), rows[:, :-1]], axis=1)
    controls = np.concatenate([(rows != prev) * math.pi, rows[:, -1:] * math.pi], axis=1)
    kernel_s = once(kern.selector_batch_amplitudes, row_mu, controls)
    out["kernels.batch_ns_per_row"] = kernel_s / rows.shape[0] * 1e9
    sweep_s = once(sel.selector_sweep_amplitudes, row_mu, rows, reps=1)
    out["selector.sweep_self_s"] = sweep_s - kernel_s

    tracer = Tracer()
    tracer.install()
    try:
        sel.selector_sweep_amplitudes(row_mu, rows[:4096])
    finally:
        tracer.uninstall()
    spans = tracer.summary()["spans"]
    out["selector.gamma_builds_per_row"] = spans.get(
        "selector.compilation_matrices", {"calls": 0})["calls"] / 4096

    phis = rng.uniform(0.1, math.pi - 0.1, size=wl.GRID_PHIS)
    mus = rng.uniform(-math.pi, math.pi, size=wl.GRID_MUS)
    grid_s = once(kern.weighted_phase_grid, phis, np.sort(mus))
    out["kernels.grid_ns_per_point"] = grid_s / (phis.size * mus.size) * 1e9
    out["readout.sweep_self_s"] = once(ro.sweep_transfer, phis, mus) - grid_s

    sel_m = rng.integers(0, 2, size=(wl.MAT_N, wl.MAT_K))
    mem_m = rng.uniform(0.0, TWO_PI, size=(wl.MAT_N, wl.MAT_M))
    out["selector.matrix_spec_s"] = once(sel.MatrixProductSpec.from_selector_matrix, sel_m, mem_m)
    mspec = sel.MatrixProductSpec.from_selector_matrix(sel_m, mem_m)
    out["selector.matrix_eval_s"] = once(sel.eval_matrix_product, mspec)

    out.update(kernel_counts())

    import yaml

    text, _, _ = netlists.staircase(rng, wl.STAIR_CELLS)
    doc = net.parse_netlist(text)
    out["netlist.yaml_load_ms"] = once(yaml.safe_load, text) * 1e3
    out["netlist.parse_ms"] = once(net.parse_netlist, text) * 1e3
    out["netlist.elaborate_ms"] = once(net.elaborate, doc) * 1e3
    out["netlist.serialize_ms"] = once(net.serialize_netlist, doc) * 1e3
    return out


def kernel_counts() -> dict:
    """Floating-point operations and bytes moved per call at the bulk sizes,
    computed from array sizes for the numpy kernels' arithmetic.

    Complex multiply = 6 flops, complex add = 2, real-by-complex = 2; each
    exp, cos, sin or angle counts as one.  Bytes are inputs read plus
    outputs written, once each."""
    cells = 2 * (wl.STAIR_N + 1)
    # per cell: cos, sin, 2x2 complex product (8 mul + 4 add = 56);
    # per phase: exp + two complex multiplies (13)
    chain_flops = cells * (2 + 56) + (cells - 1) * 13
    chain_bytes = cells * 8 + (cells - 1) * (8 + 1) + 4 * 16
    rows, n = 2 ** wl.ROW_N, wl.ROW_N
    # per row and cell: two mixes (4 real-by-complex + 2 adds = 12 each),
    # the control factor (exp + multiply = 7), the memory factor (multiply,
    # its exp is shared by all rows); the tail cell has no memory factor
    batch_flops = rows * (n * (2 * 12 + 7 + 6) + 2 * 12 + 7) + n
    batch_bytes = rows * (n + 1) * 8 + n * 8 + rows * 2 * 16
    points = wl.GRID_PHIS * wl.GRID_MUS
    # per point: e_mu - cos (1), 1 - e_mu cos (3), complex multiply (6), angle (1)
    grid_flops = points * 11 + wl.GRID_MUS * 2 + wl.GRID_PHIS
    grid_bytes = (wl.GRID_PHIS + wl.GRID_MUS) * 8 + points * 8
    return {
        "kernels.chain.flops": chain_flops, "kernels.chain.bytes": chain_bytes,
        "kernels.batch.flops": batch_flops, "kernels.batch.bytes": batch_bytes,
        "kernels.grid.flops": grid_flops, "kernels.grid.bytes": grid_bytes,
    }


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)\s*$")


def cli_probes(cli) -> dict:
    """Interpreter floor, import times and one call of each CLI command.

    ``cli`` is a ``CliWorkload``; its per-command samples are extended, so
    on the ``cli`` workload the figures also cover the timed invocations."""
    out = {}
    interp = [wl.run_child([sys.executable, "-c", "pass"], cli.workdir, cli.env)[0]
              for _ in range(5)]
    out["cli.interp_ms"] = statistics.median(interp) * 1e3
    imports = {"numpy": [], "yaml": [], "slhnet": []}
    for _ in range(3):
        wl.run_child([sys.executable, "-X", "importtime", "-c", "import slhnet"],
                     cli.workdir, cli.env)
        with open(f"{cli.workdir}/.child.err") as handle:
            for line in handle:
                m = _IMPORT_LINE.match(line)
                if m and m.group(4) in imports:
                    imports[m.group(4)].append(int(m.group(2)) / 1e3)
    for name, values in imports.items():
        out[f"cli.import_ms.{name}"] = statistics.median(values)
    for name, argv in wl.CLI_CYCLE:
        cli.samples[name].append(cli.invoke(name, argv)[0])
        out[f"cli.cmd_p50_ms.{name}"] = statistics.median(cli.samples[name]) * 1e3
    return out
