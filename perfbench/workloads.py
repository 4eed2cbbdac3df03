"""The four benchmark workloads.

Each workload is a closed loop with one caller in one process.  Its
constructor generates the seeded inputs, ``warmup`` makes the untimed pass
that lets lazy set-up finish, and ``op`` runs one operation: the calls into
slhnet are timed through ``timer`` and the outputs are then checked, outside
the timed region, by an independent route at the package's own tolerances.
slhnet's modules are reached through their attributes at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import netlists

TWO_PI = 2.0 * math.pi
HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Outcome:
    attempted: int
    failed: int = 0
    # failures that are not the documented standing ones
    unexpected: list = field(default_factory=list)
    work: float = 0.0


class Timer:
    """Times the calls of one operation, stage by stage.  With a tracer,
    its wrappers are installed for each timed call only, so the oracles'
    calls stay out of the spans, and each stage is itself a span:
    ``bench.<stage>``, or the stage name when it names a layer
    (``cli.<command>``)."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.stages = {}

    def __call__(self, stage, call):
        """Time ``call()``.  Calls are written as lambdas so that slhnet's
        functions are looked up after the tracer's wrappers are installed."""
        if self.tracer is None:
            t0 = time.perf_counter()
            out = call()
            elapsed = time.perf_counter() - t0
        else:
            self.tracer.install()
            try:
                t0 = time.perf_counter()
                with self.tracer.span(stage if "." in stage else f"bench.{stage}"):
                    out = call()
                elapsed = time.perf_counter() - t0
            finally:
                self.tracer.uninstall()
        self.stages[stage] = self.stages.get(stage, 0.0) + elapsed
        return out

    @property
    def seconds(self) -> float:
        return sum(self.stages.values())


def _wrapped(a, b):
    """Distance on the phase circle."""
    return np.abs(np.mod(np.asarray(a) - np.asarray(b) + math.pi, TWO_PI) - math.pi)


class Workload:
    name = ""
    why = ""
    round_ops = 1   # a run makes whole rounds of operations
    # wall seconds of one round, its checks included, on a 2-core x86-64
    # VM; sets how many rounds a run of --seconds makes (run.planned_ops)
    round_s = 1.0

    def report(self, ops) -> dict:
        """Workload-specific end-to-end figures: {name: (value, unit)}."""
        return {}

    def peak_rss_mb(self) -> float:
        """Peak RSS of the process running the workload."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self):
        pass


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

# Known, standing failure: on some seeds (203 and 206 of 201..210) the
# random compositions close a nearly singular feedback loop (|1 - S_kl| =
# 4e-8 at seed 203, against the 1e-9 refusal threshold), and the rounding
# it amplifies breaks the 1e-10 unitarity tolerance (error 9.7e-10).
# Counted in ``failed``, but not a new regression.
STANDING_CHECKS = {"unitarity-closure"}


class VerifyWorkload(Workload):
    name = "verify"
    why = ("the default self-check battery, the package's core promise; "
           "mostly generic core/components algebra, few kernel calls")
    round_s = 2.85

    def __init__(self, slh, seed, workdir):
        self.ver = importlib.import_module("slhnet.verify")
        self.seed = seed

    def warmup(self):
        self.ver.run_all(seed=self.seed, exhaustive_n=4, compositions=100, grid=20)

    def op(self, i, timer):
        results = timer("battery", lambda: self.ver.run_all(seed=self.seed))
        bad = [r for r in results if not r.passed]
        return Outcome(len(results), len(bad),
                       [f"check {r.name} failed: error {r.error:.3e}"
                        for r in bad if r.name not in STANDING_CHECKS])

    def report(self, ops):
        return {"verify_battery_s": (statistics.median(o["seconds"] for o in ops), "s")}


# ---------------------------------------------------------------------------
# bulk
# ---------------------------------------------------------------------------

STAIR_N = 4096
ROW_N = 16
GRID_PHIS, GRID_MUS = 64, 20000
MAT_N, MAT_M, MAT_K = 64, 256, 256
POOL = 4


def all_selectors(n: int) -> np.ndarray:
    return ((np.arange(2 ** n)[:, None] >> np.arange(n)[None, :]) & 1).astype(np.int64)


class BulkWorkload(Workload):
    name = "bulk"
    why = ("large array evaluations through public entry points: a long chain "
           "and many short rows use the fold kernel in opposite shapes; no core")
    round_s = 2.9

    def __init__(self, slh, seed, workdir):
        self.sel, self.ro = slh.selector, slh.readout
        rng = np.random.default_rng(seed)
        self.rows = all_selectors(ROW_N)
        # a small pool of distinct inputs, cycled, so no result can be reused
        self.pool = [self._draw(rng) for _ in range(POOL)]

    @staticmethod
    def _draw(rng):
        # phi in [0.1, pi - 0.1] keeps |1 - e^{i mu} cos phi| >= 1 - cos(0.1),
        # far from the singular set
        return {
            "stair_bits": rng.integers(0, 2, size=STAIR_N),
            "stair_mu": rng.uniform(0.0, TWO_PI, size=STAIR_N),
            "row_mu": rng.uniform(0.0, TWO_PI, size=ROW_N),
            "phis": rng.uniform(0.1, math.pi - 0.1, size=GRID_PHIS),
            "mus": rng.uniform(-math.pi, math.pi, size=GRID_MUS),
            "sel_matrix": rng.integers(0, 2, size=(MAT_N, MAT_K)),
            "mem_matrix": rng.uniform(0.0, TWO_PI, size=(MAT_N, MAT_M)),
            "sample": rng.integers(0, GRID_PHIS * GRID_MUS, size=256),
            "row_sample": rng.integers(0, 2 ** ROW_N, size=256),
        }

    def warmup(self):
        # every entry point once, at a reduced size
        x = self.pool[0]
        spec = self.sel.SelectorSpec.from_selector(x["stair_bits"][:64], x["stair_mu"][:64])
        self.sel.selector_scattering(spec)
        self.sel.selector_sweep_amplitudes(x["row_mu"], self.rows[:256])
        self.ro.sweep_transfer(x["phis"], x["mus"][:256])
        spec = self.sel.MatrixProductSpec.from_selector_matrix(
            x["sel_matrix"][:, :16], x["mem_matrix"][:, :16])
        self.sel.eval_matrix_product(spec)

    def op(self, i, timer):
        x = self.pool[i % POOL]
        sel, ro = self.sel, self.ro
        failures = []

        spec = timer("staircase", lambda: sel.SelectorSpec.from_selector(
            x["stair_bits"], x["stair_mu"]))
        s = timer("staircase", lambda: sel.selector_scattering(spec))
        phase_err = float(_wrapped(np.angle(s[0, 0]),
                                   sel.eval_selector(x["stair_mu"], x["stair_bits"])))
        if phase_err > 1e-9 or abs(s[1, 0]) > 1e-10:
            failures.append(f"staircase phase err {phase_err:.3e}, leak {abs(s[1, 0]):.3e}")

        amps = timer("rows", lambda: sel.selector_sweep_amplitudes(x["row_mu"], self.rows))
        want = np.array([sel.eval_selector(x["row_mu"], self.rows[r])
                         for r in x["row_sample"]])
        err = max(float(_wrapped(np.angle(amps[:, 0]), self.rows @ x["row_mu"]).max()),
                  float(_wrapped(np.angle(amps[x["row_sample"], 0]), want).max()))
        if err > 1e-9 or np.abs(amps[:, 1]).max() > 1e-10:
            failures.append(f"selector rows phase err {err:.3e}")

        curve = timer("transfer", lambda: ro.sweep_transfer(x["phis"], x["mus"]))
        pts = curve.samples[x["sample"]]
        want = [ro.weighted_output_phase(phi, mu) for mu, phi, _ in pts]
        err = float(_wrapped(pts[:, 2], want).max())
        if err > 1e-12 or curve.samples.shape[0] != GRID_PHIS * GRID_MUS:
            failures.append(f"transfer grid err {err:.3e}")

        mspec = timer("matrix", lambda: sel.MatrixProductSpec.from_selector_matrix(
            x["sel_matrix"], x["mem_matrix"]))
        out = timer("matrix", lambda: sel.eval_matrix_product(mspec))
        dots = (x["mem_matrix"][:, :, None] * x["sel_matrix"][:, None, :]).sum(axis=0)
        err = float(_wrapped(out, np.mod(dots, TWO_PI)).max())
        if err > 1e-9:
            failures.append(f"matrix product err {err:.3e}")

        return Outcome(4, len(failures), failures)

    def report(self, ops):
        def rate(stage, units):
            return units / statistics.median(o["stages"][stage] for o in ops)

        return {
            "staircase_cells_per_s": (rate("staircase", 2 * (STAIR_N + 1)), "cells/s"),
            "selector_rows_per_s": (rate("rows", 2 ** ROW_N), "rows/s"),
            "transfer_points_per_s": (rate("transfer", GRID_PHIS * GRID_MUS), "points/s"),
            "matrix_entries_per_s": (rate("matrix", MAT_M * MAT_K), "outputs/s"),
        }


# ---------------------------------------------------------------------------
# netlist
# ---------------------------------------------------------------------------

STAIR_CELLS = 64
DOC_POOL = 8


class NetlistWorkload(Workload):
    name = "netlist"
    why = ("YAML reads beside serialize writes, and core at 2 and 6 ports "
           "through long series chains; no kernels")
    round_s = 0.36

    def __init__(self, slh, seed, workdir):
        self.nl = slh.netlist
        rng = np.random.default_rng(seed)
        self.docs = []
        for _ in range(DOC_POOL):
            text, bits, mu = netlists.staircase(rng, STAIR_CELLS)
            self.docs.append((text, bits, mu))
            self.docs.append((netlists.mesh(rng), None, None))
        self.entries = [sum(1 for line in d[0].splitlines() if line.startswith("  - "))
                        for d in self.docs]

    def warmup(self):
        for text, _, _ in self.docs[:2]:
            nl = self.nl.parse_netlist(text)
            self.nl.elaborate(nl)
            self.nl.parse_netlist(self.nl.serialize_netlist(nl))

    def _round_trip(self, timer, text, bits, mu):
        nl = timer("parse", lambda: self.nl.parse_netlist(text))
        model = timer("elaborate", lambda: self.nl.elaborate(nl))
        out = timer("serialize", lambda: self.nl.serialize_netlist(nl))
        again = timer("reparse", lambda: self.nl.parse_netlist(out))
        failures = []
        if self.nl.serialize_netlist(again) != out:
            failures.append("serialize is not a fixed point")
        s = model.scattering
        resid = float(np.abs(s.conj().T @ s - np.eye(s.shape[0])).max())
        if resid > 1e-10:
            failures.append(f"scattering not unitary: {resid:.3e}")
        if bits is not None:
            err = float(_wrapped(np.angle(s[0, 0]), np.mod(bits @ mu, TWO_PI)))
            if err > 1e-9:
                failures.append(f"staircase phase err {err:.3e}")
        return failures

    def op(self, i, timer):
        # one staircase document and one mesh document per operation
        j = 2 * (i % DOC_POOL)
        failures = []
        for doc in self.docs[j:j + 2]:
            failures += self._round_trip(timer, *doc)
        return Outcome(2, len(failures), failures, work=self.entries[j] + self.entries[j + 1])

    def report(self, ops):
        rates = [o["work"] / o["seconds"] for o in ops]
        return {"netlist_entries_per_s": (statistics.median(rates), "decls/s")}


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

SWITCH_NETLIST = """\
version: 1
components:
  - {name: ph, kind: phase, phi: pi}
  - {name: wire, kind: identity, ports: 1}
  - {name: b1, kind: beamsplitter, theta: pi/4}
  - {name: b2, kind: beamsplitter, theta: -pi/4}
circuit:
  - {name: arm, op: concat, of: [ph, wire]}
  - {name: switch, op: series, of: [b2, arm, b1]}
"""

# S_11 of a bare wire is 1, so closing it on itself is a singular loop
SINGULAR_NETLIST = """\
version: 1
components:
  - {name: wire, kind: identity, ports: 2}
circuit:
  - {name: loop, op: feedback, of: [wire], output: 1, input: 1}
"""

# (name, argv); expected exit codes and stdout hashes, captured from the CLI
# at the commit that added this benchmark, are in cli_expected.json
CLI_CYCLE = (
    ("compile", ["compile", "0110100111"]),
    ("compile-matrix", ["compile", "--matrix", "101;011;110"]),
    ("eval-selector", ["eval", "--mu", "0.3,0.7,1.1,2.5", "--selector", "0111"]),
    ("eval-matrix", ["eval", "--mu-matrix", "0.2,0.4;0.6,0.8",
                     "--selector-matrix", "10;11"]),
    ("sweep", ["sweep", "-o", "sweep.csv"]),
    ("netlist-elaborate", ["netlist", "elaborate", "switch.yaml"]),
    ("netlist-print", ["netlist", "print", "switch.yaml"]),
    ("verify-quick", ["verify", "--exhaustive", "4", "--compositions", "100",
                      "--grid", "20"]),
    ("bad-bits", ["compile", "0120"]),
    ("sweep-phi-0", ["sweep", "--phi", "0"]),
    ("netlist-singular", ["netlist", "elaborate", "singular.yaml"]),
)

# Known, standing failures: counted in ``failed`` on every run, but not a
# new regression.  elaborate() rewraps SingularLoopError as NetlistError,
# so the command exits 2 where README and the cli docstring promise 3.
STANDING = {"netlist-singular": 2}

CHILD_TIMEOUT_S = 60.0


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    return env


def reap(proc):
    """Wait for ``proc`` without polling, killing it after CHILD_TIMEOUT_S;
    return its exit code and its own peak RSS in MB."""
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_child(argv, cwd, env):
    """Run one fresh process; return (seconds, exit code, stdout bytes,
    peak RSS in MB).  Output goes to files, not pipes, so that the child
    can be reaped with wait4, which reports that child's own peak RSS."""
    with open(os.path.join(cwd, ".child.out"), "w+b") as out, \
            open(os.path.join(cwd, ".child.err"), "w+b") as err:
        t0 = time.perf_counter()
        code, rss = reap(subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err))
        seconds = time.perf_counter() - t0
        out.seek(0)
        stdout = out.read()
    return seconds, code, stdout, rss


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class CliWorkload(Workload):
    name = "cli"
    why = ("fresh python -m slhnet.cli processes, one at a time; almost all "
           "interpreter and import start-up")
    round_ops = len(CLI_CYCLE)
    round_s = 3.6

    def __init__(self, slh, seed, workdir):
        self.workdir = workdir
        self.env = child_env(os.path.dirname(os.path.dirname(slh.__file__)))
        with open(os.path.join(HERE, "cli_expected.json")) as handle:
            self.expected = json.load(handle)
        for name, text in (("switch.yaml", SWITCH_NETLIST), ("singular.yaml", SINGULAR_NETLIST)):
            with open(os.path.join(workdir, name), "w") as handle:
                handle.write(text)
        # the seed fixes the order of the cycle; the commands themselves are
        # fixed, so their outputs can be compared with captured ones
        self.order = [CLI_CYCLE[k] for k in np.random.default_rng(seed).permutation(len(CLI_CYCLE))]
        self.peak_mb = 0.0
        self.samples = {name: [] for name, _ in CLI_CYCLE}

    def invoke(self, name, argv):
        return run_child([sys.executable, "-m", "slhnet.cli", *argv], self.workdir, self.env)

    def warmup(self):
        self.invoke(*CLI_CYCLE[0])

    def check(self, name, code, stdout):
        """(failed, unexpected) for one invocation."""
        want = self.expected[name]
        if name == "sweep":
            csv = os.path.join(self.workdir, "sweep.csv")
            if not os.path.exists(csv):
                return True, f"{name}: wrote no CSV file"
            with open(csv, "rb") as handle:
                stdout += handle.read()
            os.remove(csv)
        if sha256(stdout) != want["stdout_sha256"]:
            return True, f"{name}: stdout differs from the captured output"
        if code != want["exit"]:
            if STANDING.get(name) == code:
                return True, None
            return True, f"{name}: exit {code}, documented {want['exit']}"
        return False, None

    def op(self, i, timer):
        name, argv = self.order[i % len(self.order)]
        seconds, code, stdout, rss = timer(f"cli.{name}", lambda: self.invoke(name, argv))
        self.peak_mb = max(self.peak_mb, rss)
        self.samples[name].append(seconds)
        failed, unexpected = self.check(name, code, stdout)
        return Outcome(1, int(failed), [unexpected] if unexpected else [])

    def peak_rss_mb(self):
        return self.peak_mb

    def report(self, ops):
        lat = sorted(o["seconds"] * 1e3 for o in ops)
        return {
            "cli_p50_ms": (statistics.median(lat), "ms"),
            "cli_p90_ms": (float(np.percentile(lat, 90)), "ms"),
            "cli_invocations": (len(lat), "count"),
        }

    def close(self):
        for name in (".child.out", ".child.err"):
            path = os.path.join(self.workdir, name)
            if os.path.exists(path):
                os.remove(path)


WORKLOADS = {w.name: w for w in (VerifyWorkload, BulkWorkload, NetlistWorkload, CliWorkload)}
