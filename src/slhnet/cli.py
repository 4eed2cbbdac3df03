"""Command-line front end.

Subcommands:

* ``compile``  selector bits (or a binary matrix) to a control-phase schedule
* ``eval``     drive a compiled staircase and report the outputs
* ``sweep``    weighted-selector transfer curves as CSV
* ``verify``   run the self-check battery
* ``netlist``  elaborate or canonically reprint a netlist file

All numeric output uses 12 significant digits and deterministic ordering,
so identical invocations produce byte-identical text.  Exit codes: 0
success, 1 verification failure, 2 bad input, 3 numerical-domain error
(singular feedback loop).
"""

from __future__ import annotations

import argparse
import re
import sys

import numpy as np

from . import readout
from . import selector as sel
from .core import CircuitError, SingularLoopError, _check_finite
from .netlist import elaborate, format_angle, parse_angle, parse_netlist, serialize_netlist

__all__ = ["main"]

# options whose value is an angle, which may be negative
_ANGLE_OPTIONS = ("--mu", "--phi", "--tail", "--mu-min", "--mu-max", "--mu-matrix")

# the range of each size option; past its top a command would run for hours
# or ask for more memory than a host has
_SIZES = {"points": (1, 100_000), "exhaustive": (0, 16), "compositions": (0, 100_000),
          "grid": (0, 1000)}


def fmt12(x) -> str:
    return f"{float(x):.12g}"


def _fmtc(z) -> str:
    z = complex(z)
    return f"{fmt12(z.real)}{z.imag:+.12g}j"


def _parse_bit_vector(text: str) -> np.ndarray:
    cleaned = text.replace(",", "").replace(" ", "")
    if not cleaned or any(c not in "01" for c in cleaned):
        raise ValueError(f"selector must be a string of 0/1 bits, got {text!r}")
    return np.array([int(c) for c in cleaned], dtype=np.int64)


def _parse_matrix(text: str, what: str, parse_row) -> np.ndarray:
    """Rows split by ';' or '/', each read by ``parse_row``, all one width."""
    rows = [parse_row(r) for r in re.split(r"[;/]", text) if r.strip()]
    if not rows:
        raise ValueError(f"empty {what} matrix {text!r}")
    if len({len(r) for r in rows}) != 1:
        raise ValueError(f"{what} matrix rows have unequal lengths in {text!r}")
    return np.array(rows)


def _parse_angle_list(text: str, what: str) -> list:
    toks = [t.strip() for t in text.split(",") if t.strip()]
    if not toks:
        raise ValueError(f"empty {what} list {text!r}")
    return [parse_angle(t, what) for t in toks]


def _angle_tokens(values) -> str:
    return "[" + ", ".join(format_angle(v) for v in values) + "]"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_compile(args) -> int:
    if args.matrix:
        bits = _parse_matrix(args.bits, "selector", _parse_bit_vector)
        phi, tails = sel.compile_selector_matrix(bits)
        print("control:")
        for row in phi:
            print(f"  - {_angle_tokens(row)}")
        print(f"tail: {_angle_tokens(tails)}")
    else:
        bits = _parse_bit_vector(args.bits)
        control, tail = sel.compile_selector(bits)
        print(f"control: {_angle_tokens(control)}")
        print(f"tail: {format_angle(tail)}")
    return 0


def _cmd_eval(args) -> int:
    if args.mu_matrix or args.selector_matrix:
        if not (args.mu_matrix and args.selector_matrix):
            raise ValueError("matrix evaluation needs both --mu-matrix and --selector-matrix")
        mem = _parse_matrix(args.mu_matrix, "memory", lambda r: _parse_angle_list(r, "memory"))
        bits = _parse_matrix(args.selector_matrix, "selector", _parse_bit_vector)
        spec = sel.MatrixProductSpec.from_selector_matrix(bits, mem)
        out = sel.eval_matrix_product(spec)
        for i, row in enumerate(out, start=1):
            print(f"m_out[{i}]: " + " ".join(fmt12(v) for v in row))
        return 0

    if args.mu is None:
        raise ValueError("scalar evaluation needs --mu")
    _check_finite(args.drive, "drive")
    mu = _parse_angle_list(args.mu, "memory")
    if args.selector is not None:
        spec = sel.SelectorSpec.from_selector(_parse_bit_vector(args.selector), mu)
    elif args.phi is not None:
        control = _parse_angle_list(args.phi, "control")
        if args.tail is not None:
            tail = parse_angle(args.tail, "tail")
        else:
            tail = sel._tail_phases(control)
        spec = sel.SelectorSpec(mu, control, tail)
    else:
        raise ValueError("need --selector bits or a --phi schedule")

    scattering = sel.selector_scattering(spec)
    amps = scattering @ np.array([args.drive, 0.0], dtype=np.complex128)
    phase = sel.canonical_phase(float(np.angle(amps[0])))
    print(f"output_phase: {fmt12(phase)}")
    print(f"amplitude[1]: {_fmtc(amps[0])}")
    print(f"amplitude[2]: {_fmtc(amps[1])}")
    print(f"residual_off_port_power: {fmt12(abs(amps[1]) ** 2)}")
    return 0


def _cmd_sweep(args) -> int:
    phis = _parse_angle_list(args.phi, "phi")
    grid = readout._interior_grid(parse_angle(args.mu_min, "mu-min"),
                                   parse_angle(args.mu_max, "mu-max"), args.points)
    curve = readout.sweep_transfer(phis, grid)
    lines = ["phi,mu,mu_out"]
    for mu, phi, mu_out in curve.samples:
        lines.append(f"{fmt12(phi)},{fmt12(mu)},{fmt12(mu_out)}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    # imported here so that no other command pays for it at start-up
    from . import verify as ver

    results = ver.run_all(
        seed=ver.DEFAULT_SEED if args.seed is None else args.seed,
        exhaustive_n=args.exhaustive,
        compositions=args.compositions,
        grid=args.grid,
    )
    failures = sum(not r.passed for r in results)
    if args.json:
        import json

        for r in results:
            print(json.dumps({
                "name": r.name, "passed": r.passed, "error": r.error,
                "tol": r.tolerance,
                "margin": None if r.error == 0.0 else r.tolerance / r.error,
                "seconds": r.seconds, "detail": r.detail,
            }))
        print(json.dumps({"checks": len(results), "passed": len(results) - failures,
                          "failed": failures,
                          "seconds": sum(r.seconds for r in results)}))
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status} {r.name:<32} error={r.error:.3e} tol={r.tolerance:g}  {r.detail}")
        print(f"{len(results)} checks, {len(results) - failures} passed, {failures} failed")
    return 0 if failures == 0 else 1


def _cmd_netlist(args) -> int:
    with open(args.file, "r") as handle:
        text = handle.read()
    nl = parse_netlist(text)
    if args.action == "print":
        sys.stdout.write(serialize_netlist(nl))
        return 0
    model = elaborate(nl)
    print(f"ports: {model.ports}")
    for i, row in enumerate(model.scattering, start=1):
        print(f"scattering[{i}]: " + " ".join(_fmtc(z) for z in row))
    print("coupling: " + " ".join(_fmtc(z) for z in model.coupling))
    print(f"hamiltonian: {fmt12(model.hamiltonian)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slhnet",
        description="passive linear-optical circuit algebra: switches, "
                    "selector staircases, and feedback readout loops",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="selector bits to control-phase schedule")
    p.add_argument("bits", help="bit string like 011 (matrix rows split by ';' with --matrix)")
    p.add_argument("--matrix", action="store_true",
                   help="treat BITS as a binary matrix, one selector per column")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("eval", help="drive a staircase and report the outputs")
    p.add_argument("--mu", help="comma-separated memory phases, e.g. 0.3,0.7,1.1")
    p.add_argument("--selector", help="selector bits, e.g. 011")
    p.add_argument("--phi", help="explicit control schedule, e.g. 0,pi,0")
    p.add_argument("--tail", help="tail phase (derived from --phi when omitted)")
    p.add_argument("--drive", type=float, default=1.0,
                   help="input amplitude on port 1 (default 1)")
    p.add_argument("--mu-matrix", help="memory matrix, rows split by ';'")
    p.add_argument("--selector-matrix", help="binary selector matrix, rows split by ';'")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="weighted-selector transfer curves as CSV")
    p.add_argument("--phi", default="pi/3,pi/2,2pi/3,pi",
                   help="comma-separated control phases (default pi/3,pi/2,2pi/3,pi)")
    p.add_argument("--mu-min", default="-pi", help="lower edge of the open mu range")
    p.add_argument("--mu-max", default="pi", help="upper edge of the open mu range")
    p.add_argument("--points", type=int, default=401,
                   help="number of interior grid points (default 401)")
    p.add_argument("-o", "--out", help="CSV output path (stdout when omitted)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="run the self-check battery")
    p.add_argument("--seed", type=int)
    p.add_argument("--exhaustive", type=int, default=8, metavar="N",
                   help="largest selector length swept exhaustively (default 8)")
    p.add_argument("--compositions", type=int, default=1000,
                   help="random compositions in the unitarity check (default 1000)")
    p.add_argument("--grid", type=int, default=100,
                   help="closed-form comparison grid size per axis (default 100)")
    p.add_argument("--json", action="store_true",
                   help="one JSON object per check (name, passed, error, tol, margin, "
                        "seconds, detail), then a summary object")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("netlist", help="elaborate or reprint a netlist file")
    p.add_argument("action", choices=("elaborate", "print"))
    p.add_argument("file")
    p.set_defaults(func=_cmd_netlist)

    return parser


def _join_negative_angles(argv):
    """Write ``--mu -pi`` as ``--mu=-pi``: argparse takes a token that starts
    with '-' for an option, unless it reads as a plain negative number."""
    out = []
    for tok in argv:
        if out and out[-1] in _ANGLE_OPTIONS and re.match(r"-[\d.p]", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_negative_angles(argv))
    try:
        for name, (lo, hi) in _SIZES.items():
            value = getattr(args, name, lo)
            if not lo <= value <= hi:
                raise ValueError(f"--{name} must lie in [{lo}, {hi}], got {value}")
        return args.func(args)
    except (CircuitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, SingularLoopError) else 2


if __name__ == "__main__":
    sys.exit(main())
