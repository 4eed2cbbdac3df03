"""slhnet benchmark: one seeded workload per run, outputs checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py for why each was chosen): ``verify`` runs the
default self-check battery, ``bulk`` large array evaluations, ``netlist``
document round trips and ``cli`` fresh command-line processes.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics that BENCHMARK.json lists: the median latency of
one operation, the set-up time and the peak RSS.  With ``--trace 1`` it
carries the per-layer metrics instead, taken from spans around slhnet's
public functions (tracer.py) and from fixed-input probes (probes.py), and
the spans and a report are written under perfbench/out/.  The line before
it is a JSON report: the environment, the raw wall times, the error rate
and the workload's own named figures (rates, battery time, percentiles).

End-to-end times are scaled to a host of nominal speed (see
``reference_seconds``); the report keeps the wall times they came from.
Set-up (import slhnet, generate the inputs, one untimed warm-up pass) is
timed in fresh processes, ``--setup-only`` being what each of them runs.
"""

from __future__ import annotations

import os

# one process, one thread: pin the BLAS pools before numpy is imported,
# here and in every child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import importlib.util
import json
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
SETUP_REPS = 5
MIN_ROUNDS = 2
# the reference mix's time on an unloaded 2-core x86-64 VM (Python 3.11,
# numpy 2.4); end-to-end times are stated for a host of that speed
REF_NOMINAL_S = 0.050
REF_SHARE = 0.05
REF_MAX = 4


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def import_slhnet():
    sys.path.insert(0, SRC)
    slh = importlib.import_module("slhnet")
    if not os.path.abspath(slh.__file__).startswith(SRC + os.sep):
        raise ImportError(f"slhnet imported from {slh.__file__}, not from {SRC}")
    return slh


def environment(slh) -> dict:
    import numpy
    import yaml

    lines = 0
    for base, _, files in os.walk(os.path.join(SRC, "slhnet")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(base, f)) as handle:
                    lines += sum(1 for _ in handle)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "backend": slh.kernels.BACKEND,
        "usable_cores": len(os.sched_getaffinity(0)),
        "src_lines": lines,
    }


def reference_seconds() -> float:
    """Time of a fixed mix of work that does not touch slhnet: interpreter
    loops, small-array numpy calls and large-array numpy calls.

    A shared host can change speed by tens of percent over minutes, which
    moves every wall time in a run alike.  Each timed piece of work is
    divided by this mix's time measured just before and just after it and
    multiplied by REF_NOMINAL_S (see ``Scaler``): that cancels the host's
    speed, while a change in what the program does still shows in full.
    The mix is part of the benchmark, so no change to slhnet can move it.
    """
    import numpy as np

    t0 = time.perf_counter()
    counts, acc = {}, 0
    for i in range(100_000):
        counts[i & 255] = counts.get(i & 255, 0) + i
    for i in range(150_000):
        acc += i * i
    rot = np.array([[0.6, -0.8], [0.8, 0.6]], dtype=complex)
    m = np.eye(2, dtype=complex)
    for _ in range(1500):
        m = np.array(rot @ m, dtype=np.complex128)
        np.concatenate([m[0], m[1]])
    a = np.arange(64.0)
    for _ in range(1500):
        a = np.sqrt(a * a + 1.0)
    x = np.linspace(0.0, 6.0, 65536)
    for _ in range(10):
        np.exp(1j * x) * (1.0 + x)
    return time.perf_counter() - t0


class Scaler:
    """Scales wall times to a host on which the reference mix takes
    REF_NOMINAL_S.  After each timing the mix runs until it has taken
    REF_SHARE of that timing (at least once, at most REF_MAX times); the
    timing is divided by the median of the mix's runs on either side."""

    def __init__(self):
        self.refs = [reference_seconds()]
        self._before = self.refs[:]

    def __call__(self, wall_s: float) -> float:
        after = []
        while not after or (sum(after) < REF_SHARE * wall_s and len(after) < REF_MAX):
            after.append(reference_seconds())
        self.refs += after
        ref_s = statistics.median(self._before + after)
        self._before = after
        return wall_s * REF_NOMINAL_S / ref_s


def setup_seconds(workload: str, seed: int, scale: Scaler) -> tuple:
    """Median (scaled, wall) time of a fresh process that sets the
    workload up."""
    from workloads import reap

    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    scaled, wall = [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        code, _ = reap(subprocess.Popen(argv, stdout=subprocess.DEVNULL))
        wall.append(time.perf_counter() - t0)
        scaled.append(scale(wall[-1]))
        if code != 0:
            raise RuntimeError(f"set-up process exited with {code}")
    return statistics.median(scaled), statistics.median(wall)


def planned_ops(wl, seconds: float) -> int:
    """Operations in one run: the whole rounds that fill about ``seconds``
    at the workload's nominal round time, and at least MIN_ROUNDS.

    The count depends on ``seconds`` only, not on the host's speed, so a
    seed attempts the same operations on every run and a seed-dependent
    failure (verify's standing one) is counted the same number of times."""
    rounds = max(MIN_ROUNDS, round(seconds / wl.round_s))
    return rounds * wl.round_ops


def measure(wl, seconds: float, tracer, scale: Scaler):
    """Closed loop: ``planned_ops`` operations, one after another.  When
    tracing, every other operation runs with the tracer installed."""
    from workloads import Timer

    ops = []
    for i in range(planned_ops(wl, seconds)):
        traced = tracer is not None and i % 2 == 1
        timer = Timer(tracer if traced else None)
        outcome = wl.op(i, timer)
        ops.append({"traced": traced, "seconds": timer.seconds,
                    "scaled_s": scale(timer.seconds), "stages": timer.stages,
                    "attempted": outcome.attempted, "failed": outcome.failed,
                    "unexpected": outcome.unexpected, "work": outcome.work})
    return ops


def median_of(ops, key: str) -> float:
    return statistics.median(o[key] for o in ops)


def layer_metrics(tracer, ops) -> tuple:
    """Per-layer figures from the spans of the traced operations: per_layer
    metric values, and the fuller report written beside the spans."""
    from tracer import LAYER_MODULES

    summary = tracer.summary()
    spans, layers = summary["spans"], summary["layers"]
    traced = [o for o in ops if o["traced"]]
    plain = [o for o in ops if not o["traced"]]
    n = len(traced)
    root_s = sum(o["seconds"] for o in traced)
    metrics = {}
    for layer in LAYER_MODULES:
        agg = layers.get(layer, {"calls": 0, "self_s": 0.0})
        metrics[f"{layer}.calls"] = agg["calls"] / n
        metrics[f"{layer}.self_pct"] = 100.0 * agg["self_s"] / root_s
    for op in ("series", "concat", "feedback"):
        metrics[f"core.{op}.calls"] = spans.get(f"core.{op}", {}).get("calls", 0) / n
    fb = spans.get("core.feedback", {"calls": 0, "raised": 0})
    metrics["core.feedback.singular_ratio"] = fb["raised"] / fb["calls"] if fb["calls"] else 0.0
    for fn, check in VERIFY_CHECKS.items():
        metrics[f"verify.check_pct.{check}"] = (
            100.0 * spans.get(f"verify.{fn}", {}).get("total_s", 0.0) / root_s)
    metrics["trace.overhead_pct"] = 100.0 * (median_of(traced, "scaled_s")
                                             / median_of(plain, "scaled_s") - 1.0)
    report = {
        "traced_ops": n,
        "trace_overhead_wall_ms": (median_of(traced, "seconds")
                                   - median_of(plain, "seconds")) * 1e3,
        "per_op": {
            "layers": {k: {"calls": v["calls"] / n, "self_s": v["self_s"] / n}
                       for k, v in layers.items()},
            "spans": {k: {key: (v[key] / n if key != "raised" else v[key]) for key in v}
                      for k, v in spans.items()},
            "verify.check_s": {check: spans.get(f"verify.{fn}", {}).get("total_s", 0.0) / n
                               for fn, check in VERIFY_CHECKS.items()},
        },
    }
    return metrics, report


# the battery's check functions and the names their results carry
VERIFY_CHECKS = {
    "_check_switch_dichotomy": "switch-dichotomy",
    "_check_driven_beamsplitter": "driven-beamsplitter",
    "_check_selector_exhaustive": "selector-exhaustive",
    "_check_compilation_algebra": "compilation-algebra",
    "_check_matrix_products": "matrix-products",
    "_check_feedback_closed_form": "feedback-closed-form",
    "_check_feedback_dichotomy": "feedback-binary-dichotomy",
    "_check_weighted_lines": "weighted-identity-and-collapse",
    "_check_weighted_tangent": "weighted-tangent-form",
    "_check_small_mu_gain": "small-mu-gain",
    "_check_gain_slope_at_half_pi": "gain-slope-at-half-pi",
    "_check_chain_equivalence": "chain-equivalence",
    "_check_unitarity_closure": "unitarity-closure",
    "_check_sweep_columns": "sweep-columns",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up and exit (used to time set-up)")
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "slhnet", "__init__.py")):
        return fail(f"no slhnet sources under {SRC}; run from the repository root")
    if not os.path.isfile(spec_path):
        return fail(f"no BENCHMARK.json in {ROOT}")
    with open(spec_path) as handle:
        spec = json.load(handle)

    t0 = time.perf_counter()
    slh = import_slhnet()
    import_s = time.perf_counter() - t0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; "
                    f"choose from {sorted(workloads.WORKLOADS)}")
    workdir = os.path.join(OUT, args.workload)
    os.makedirs(workdir, exist_ok=True)
    make = workloads.WORKLOADS[args.workload]

    if args.setup_only:
        make(slh, args.seed, workdir).warmup()
        return 0

    setup = None if args.trace else setup_seconds(args.workload, args.seed, Scaler())
    wl = make(slh, args.seed, workdir)
    wl.warmup()
    scale = Scaler()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    try:
        ops = measure(wl, args.seconds, tracer, scale)
        attempted = sum(o["attempted"] for o in ops)
        failed = sum(o["failed"] for o in ops)
        unexpected = [u for o in ops for u in o["unexpected"]]
        plain = [o for o in ops if not o["traced"]]
        report = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "environment": environment(slh),
            "in_process_import_s": import_s,
            "ops": len(ops),
            "wall_op_p50_ms": median_of(plain, "seconds") * 1e3,
            "wall_op_ms": [round(o["seconds"] * 1e3, 3) for o in ops],
            "scaled_op_ms": [round(o["scaled_s"] * 1e3, 3) for o in ops],
            "wall_setup_s": setup[1] if setup else None,
            "reference_ms": statistics.median(scale.refs) * 1e3,
            "reference_nominal_ms": REF_NOMINAL_S * 1e3,
            "error_rate": failed / attempted,
            "standing_failures": failed - len(unexpected),
            "unexpected_failures": unexpected[:20],
            "workload_metrics": {k: {"value": v, "unit": u}
                              for k, (v, u) in wl.report(plain).items()},
        }
        if args.trace:
            import probes

            values, trace_report = layer_metrics(tracer, ops)
            values.update(probes.layer_probes(slh, args.seed))
            if args.workload == "cli":
                values.update(probes.cli_probes(wl))
            else:
                cli = workloads.CliWorkload(slh, args.seed, workdir)
                try:
                    values.update(probes.cli_probes(cli))
                finally:
                    cli.close()
            report["trace"] = trace_report
            declared = spec["per_layer"]
        else:
            values = {
                "setup_s": setup[0],
                "op_p50_ms": median_of(plain, "scaled_s") * 1e3,
                "peak_rss_mb": wl.peak_rss_mb(),
            }
            declared = spec["end_to_end"]
    finally:
        wl.close()

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        return fail(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    if args.trace:
        report["per_layer"] = metrics
        tracer.write(os.path.join(OUT, f"trace-{args.workload}"), report)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
