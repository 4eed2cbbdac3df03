import math
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slhnet
from slhnet.cli import fmt12, main
from slhnet.netlist import parse_netlist, serialize_netlist
from slhnet.selector import TWO_PI, eval_selector

SWITCH_DOC = """\
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

SINGULAR_DOC = """\
version: 1
components:
  - {name: wire, kind: identity, ports: 2}
circuit:
  - {name: loop, op: feedback, of: [wire], output: 1, input: 1}
"""


def test_fmt12():
    assert fmt12(0.0) == "0"
    assert fmt12(1.8000000000000002) == "1.8"
    assert fmt12(math.pi) == "3.14159265359"


def test_compile_vector(capsys):
    assert main(["compile", "011"]) == 0
    assert capsys.readouterr().out == "control: [0, pi, 0]\ntail: pi\n"
    assert main(["compile", "101"]) == 0
    assert capsys.readouterr().out == "control: [pi, pi, pi]\ntail: pi\n"


def test_compile_matrix(capsys):
    assert main(["compile", "--matrix", "01;11;10"]) == 0
    assert capsys.readouterr().out == (
        "control:\n"
        "  - [0, pi]\n"
        "  - [pi, 0]\n"
        "  - [0, pi]\n"
        "tail: [pi, 0]\n"
    )


def test_compile_rejects_non_bits(capsys):
    assert main(["compile", "012"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def _eval_lines(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    return {line.split(":")[0]: line.split(": ", 1)[1] for line in out}


def test_eval_selector(capsys):
    got = _eval_lines(capsys, ["eval", "--mu", "0.3,0.7,1.1", "--selector", "011"])
    assert got["output_phase"] == "1.8"
    assert float(got["residual_off_port_power"]) < 1e-20


def test_eval_explicit_schedule(capsys):
    got = _eval_lines(capsys, ["eval", "--mu", "0.3,0.7,1.1", "--phi", "0,pi,0"])
    assert got["output_phase"] == "1.8"  # tail derived from the schedule
    got = _eval_lines(
        capsys, ["eval", "--mu", "0.3,0.7,1.1", "--phi", "0,pi,0", "--tail", "pi"]
    )
    assert got["output_phase"] == "1.8"


def test_eval_scales_with_drive(capsys):
    got = _eval_lines(
        capsys, ["eval", "--mu", "0.5,1.2", "--selector", "11", "--drive", "2.0"]
    )
    assert got["output_phase"] == "1.7"
    amp = complex(got["amplitude[1]"].replace("j", "J"))
    assert abs(amp - 2.0 * complex(math.cos(1.7), math.sin(1.7))) < 1e-10


def test_eval_matrix(capsys):
    assert main([
        "eval",
        "--mu-matrix", "0.2,0.4;0.6,0.8",
        "--selector-matrix", "10;11",
    ]) == 0
    assert capsys.readouterr().out == "m_out[1]: 0.8 0.6\nm_out[2]: 1.2 0.8\n"


def test_eval_bad_inputs(capsys):
    assert main(["eval", "--selector", "011"]) == 2  # no --mu
    assert main(["eval", "--mu", "0.3", "--selector", "011"]) == 2  # length clash
    assert main(["eval", "--mu", "0.3", "--phi", "0.5"]) == 2  # non-binary schedule
    assert main(["eval", "--mu-matrix", "0.2"]) == 2  # matrix needs both flags
    assert main(["eval", "--mu", "0.3"]) == 2  # neither bits nor schedule
    capsys.readouterr()


def test_eval_names_a_non_binary_tail_as_a_tail(capsys):
    assert main(["eval", "--mu", "0.3", "--phi", "0", "--tail", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: tail phase must be exactly 0 or pi, got 0.5\n"


def test_eval_derives_the_tail_from_the_schedule(capsys):
    # an omitted --tail is pi times the schedule's parity, the last recovered bit
    for phi, tail in (("0,pi,0", "pi"), ("pi,pi,0", "0"), ("0,0,0", "0"), ("pi", "pi")):
        mu = ",".join(["0.3", "0.7", "1.1"][: phi.count(",") + 1])
        assert main(["eval", "--mu", mu, "--phi", phi]) == 0
        derived = capsys.readouterr().out
        assert main(["eval", "--mu", mu, "--phi", phi, "--tail", tail]) == 0
        assert capsys.readouterr().out == derived


@pytest.mark.parametrize("mu", ["0.3,0.7", "7,0.7", "0.3"])
def test_eval_names_a_non_binary_schedule_entry(capsys, mu):
    # with --tail omitted the schedule is read first, so a non-binary entry is
    # named before a memory phase out of range or a length clash
    assert main(["eval", "--mu", mu, "--phi", "0,0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: control phase must be exactly 0 or pi, got 0.5\n"


_LONG_MU = np.random.default_rng(5000).uniform(0.0, TWO_PI, size=5000)
_LONG_BITS = np.random.default_rng(5001).integers(0, 2, size=5000)


def _long_eval_holds(out):
    got = dict(line.split(": ", 1) for line in out.splitlines())
    diff = abs(float(got["output_phase"]) - eval_selector(_LONG_MU, _LONG_BITS))
    return min(diff, TWO_PI - diff) < 1e-9 and float(got["residual_off_port_power"]) < 1e-20


def _one_part_doc(part):
    return f"version: 1\ncomponents:\n  - {{name: p, {part}}}\ncircuit: []\n"


_EDGE_INPUTS = [
    # argv, exit code, stderr, check on stdout; a netlist row's last
    # argument is the YAML text, which the test writes to a file
    (["eval", "--mu", "", "--selector", ""], 2, "error: empty memory list ''\n", None),
    (["eval", "--mu", "0.3", "--selector", ""], 2,
     "error: selector must be a string of 0/1 bits, got ''\n", None),
    (["eval", "--mu", "nan", "--selector", "1"], 2,
     "error: memory: angle must be finite, got 'nan'\n", None),
    (["eval", "--mu", "inf", "--selector", "1"], 2,
     "error: memory: angle must be finite, got 'inf'\n", None),
    (["eval", "--mu", "0.3,-inf", "--selector", "01"], 2,
     "error: memory: angle must be finite, got '-inf'\n", None),
    (["sweep", "--phi", "nan"], 2, "error: phi: angle must be finite, got 'nan'\n", None),
    (["compile", "01" * 10000], 0, "",
     lambda out: out.startswith("control: [0, pi, pi,") and out.count(",") == 19999),
    (["eval", "--mu", ",".join(repr(float(x)) for x in _LONG_MU),
      "--selector", "".join(str(b) for b in _LONG_BITS)], 0, "", _long_eval_holds),
    (["netlist", "elaborate", _one_part_doc("kind: beamsplitter, theta: .nan")], 2,
     "error: components[0].theta: angle must be finite, got nan\n", None),
    (["netlist", "elaborate", _one_part_doc("kind: beamsplitter, theta: .inf")], 2,
     "error: components[0].theta: angle must be finite, got inf\n", None),
    (["netlist", "elaborate", _one_part_doc("kind: beamsplitter, theta: -.inf")], 2,
     "error: components[0].theta: angle must be finite, got -inf\n", None),
    (["netlist", "elaborate", _one_part_doc("kind: drive, amplitudes: [.nan]")], 2,
     "error: components[0].amplitudes[0]: angle must be finite, got nan\n", None),
    (["netlist", "print", _one_part_doc("kind: identity, ports: 1, 2: x, b: y")], 2,
     "error: components[0]: unknown keys ['b', 2]\n", None),
    (["netlist", "print", "1: x\nz: 2\n"], 2, "error: document: unknown keys ['z', 1]\n", None),
    (["compile", "--matrix", ";;"], 2, "error: empty selector matrix ';;'\n", None),
    (["compile", "--matrix", "10;011"], 2,
     "error: selector matrix rows have unequal lengths in '10;011'\n", None),
    (["eval", "--mu-matrix", ";", "--selector-matrix", "10;11"], 2,
     "error: empty memory matrix ';'\n", None),
    (["eval", "--mu-matrix", "0.2,0.4/0.6", "--selector-matrix", "10;11"], 2,
     "error: memory matrix rows have unequal lengths in '0.2,0.4/0.6'\n", None),
    (["eval", "--mu-matrix", "0.2,x;0.6,0.8", "--selector-matrix", "10;11"], 2,
     "error: memory: cannot parse angle 'x'\n", None),
]
# an explicit tag that the safe constructor cannot apply is refused at the tag
_EDGE_INPUTS += [
    (["netlist", "print", _one_part_doc(f"kind: identity, ports: !!{tag} x")], 2,
     f"error: document: not valid YAML: bad tag:yaml.org,2002:{tag} value ({problem})\n"
     '  in "<unicode string>", line 3, column 38\n', None)
    for tag, problem in [
        ("bool", "KeyError: 'x'"),
        ("timestamp", "AttributeError: 'NoneType' object has no attribute 'groupdict'"),
        ("int", "ValueError: invalid literal for int() with base 10: 'x'"),
    ]
]


# a size option outside its range is refused before any work
_EDGE_INPUTS += [
    (argv, 2, f"error: {argv[1]} must lie in {bounds}, got {argv[2]}\n", None)
    for argv, bounds in [
        (["verify", "--exhaustive", "17"], "[1, 16]"),
        (["verify", "--compositions", "-1"], "[1, 100000]"),
        (["verify", "--grid", "1001"], "[1, 1000]"),
        (["sweep", "--points", "100001"], "[1, 100000]"),
        # a size of 0 would run a check on no case and report it passed
        (["verify", "--exhaustive", "0"], "[1, 16]"),
        (["verify", "--compositions", "0"], "[1, 100000]"),
        (["verify", "--grid", "0"], "[1, 1000]"),
    ]
]
# a non-finite drive amplitude is refused like a non-finite angle
_EDGE_INPUTS += [
    (["eval", "--mu", "0.3", "--selector", "1", "--drive", bad], 2,
     f"error: drive must be finite, got {bad}\n", None)
    for bad in ("nan", "inf")
]
# a negative seed is refused by name, before any check runs
_EDGE_INPUTS += [(["verify", "--seed", "-1"], 2,
                  "error: seed must be a non-negative integer, got -1\n", None)]


@pytest.mark.parametrize("argv, code, err, check", _EDGE_INPUTS,
                         ids=["empty-mu", "empty-selector", "nan-mu", "inf-mu",
                              "neg-inf-mu", "nan-phi", "compile-20000", "eval-5000",
                              "netlist-nan-theta", "netlist-inf-theta",
                              "netlist-neg-inf-theta", "netlist-nan-amplitude",
                              "netlist-mixed-component-keys", "netlist-mixed-document-keys",
                              "empty-selector-matrix", "ragged-selector-matrix",
                              "empty-memory-matrix", "ragged-memory-matrix",
                              "bad-memory-matrix-angle", "netlist-bad-bool-tag",
                              "netlist-bad-timestamp-tag", "netlist-bad-int-tag",
                              "exhaustive-over", "compositions-negative", "grid-over",
                              "points-over", "exhaustive-zero", "compositions-zero",
                              "grid-zero", "nan-drive", "inf-drive", "negative-seed"])
def test_edge_inputs(tmp_path, capsys, argv, code, err, check):
    if argv[0] == "netlist":
        path = tmp_path / "edge.yaml"
        path.write_text(argv[-1])
        argv = argv[:-1] + [str(path)]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err == err
    assert captured.out == "" if check is None else check(captured.out)


def test_sweep_csv(tmp_path, capsys):
    target = tmp_path / "curve.csv"
    argv = ["sweep", "--phi", "pi/2,pi", "--points", "5", "-o", str(target)]
    assert main(argv) == 0
    text = target.read_text()
    lines = text.splitlines()
    assert lines[0] == "phi,mu,mu_out"
    assert len(lines) == 11
    rows = [tuple(float(tok) for tok in line.split(",")) for line in lines[1:]]
    half, collapse = rows[:5], rows[5:]
    assert all(phi == pytest.approx(math.pi / 2, abs=1e-11) for phi, _, _ in half)
    assert all(out == pytest.approx(mu, abs=1e-12) for _, mu, out in half)
    # complex division leaves ~1e-17 of imaginary dust in z/z, so the
    # collapse column is tiny rather than literally zero
    assert all(abs(out) <= 1e-12 for _, _, out in collapse)
    mus = [mu for _, mu, _ in half]
    assert mus == sorted(mus) and mus[0] > -math.pi and mus[-1] < math.pi

    # byte-identical on repeat
    again = tmp_path / "curve2.csv"
    assert main(["sweep", "--phi", "pi/2,pi", "--points", "5", "-o", str(again)]) == 0
    assert again.read_bytes() == target.read_bytes()
    capsys.readouterr()


def test_sweep_stdout(capsys):
    assert main(["sweep", "--phi", "pi", "--points", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "phi,mu,mu_out" and len(out) == 4


def test_sweep_default_grid_avoids_singular_edge(capsys):
    # default range is the open interval (-pi, pi): phi = pi stays regular
    assert main(["sweep", "--points", "11"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 + 4 * 11


def test_sweep_singular_grid_point(capsys):
    argv = ["sweep", "--phi", "pi", "--mu-min", "0", "--mu-max", "2pi", "--points", "1"]
    assert main(argv) == 3
    assert "singular set" in capsys.readouterr().err


def test_sweep_bad_ranges(capsys):
    assert main(["sweep", "--points", "0"]) == 2
    assert main(["sweep", "--mu-min", "1", "--mu-max", "1"]) == 2
    capsys.readouterr()


def _stdout(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


def test_negative_angle_may_follow_its_option(capsys):
    # argparse alone takes "-pi" for an option and refuses the call
    assert _stdout(capsys, ["sweep", "--mu-min", "-pi", "--mu-max", "pi"]) == \
        _stdout(capsys, ["sweep"])
    assert _stdout(capsys, ["sweep", "--phi", "-pi/3", "--points", "2"]) == \
        _stdout(capsys, ["sweep", "--phi=-pi/3", "--points", "2"])
    for argv in (["eval", "--mu", "-0.3", "--selector", "1"],
                 ["eval", "--mu", "-0.3,0.7", "--selector", "11"]):
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: memory phase -0.3 outside [0, 2*pi)\n"


def test_negative_value_of_other_options_is_left_to_argparse(capsys):
    # --drive is not an angle: "-2" still reads as argparse's negative number
    assert main(["eval", "--mu", "0.3", "--selector", "1", "--drive", "-2"]) == 0
    assert capsys.readouterr().out.startswith("output_phase: 3.44159265359\n")
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--points", "-pi"])
    assert info.value.code == 2


def test_verify_small_battery(capsys):
    argv = ["verify", "--exhaustive", "3", "--compositions", "25", "--grid", "10"]
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert all(line.startswith("PASS") for line in out[:-1])
    assert out[-1].endswith("passed, 0 failed")


def test_netlist_elaborate(tmp_path, capsys):
    path = tmp_path / "switch.yaml"
    path.write_text(SWITCH_DOC)
    assert main(["netlist", "elaborate", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "ports: 2"
    rows = [[complex(tok) for tok in line.split(": ", 1)[1].split()] for line in out[1:3]]
    for got, want in zip(rows, [[0, 1], [1, 0]]):
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-12
    assert out[3] == "coupling: 0+0j 0+0j"
    assert out[4] == "hamiltonian: 0"


def test_netlist_print_is_canonical(tmp_path, capsys):
    path = tmp_path / "switch.yaml"
    path.write_text(SWITCH_DOC)
    assert main(["netlist", "print", str(path)]) == 0
    assert capsys.readouterr().out == serialize_netlist(parse_netlist(SWITCH_DOC))


def test_netlist_print_reads_back_an_angle_near_the_float_range_end(tmp_path, capsys):
    # phi * 2 overflows here, which once raised OverflowError out of print
    top = 1.4668959017160943e308
    path = tmp_path / "top.yaml"
    path.write_text(_one_part_doc(f"kind: phase, phi: {top!r}"))
    assert main(["netlist", "print", str(path)]) == 0
    out = capsys.readouterr().out
    path.write_text(out)
    assert main(["netlist", "print", str(path)]) == 0
    assert capsys.readouterr().out == out
    assert parse_netlist(out).components[0].value == top


@pytest.mark.parametrize("phi", ["1" * 400 + "pi", "pi/" + "1" * 400, "1" * 5000 + "pi",
                                 "-pi/" + "1" * 5000])
def test_netlist_print_refuses_a_symbolic_angle_past_the_float_range(tmp_path, capsys, phi):
    # a float conversion's OverflowError, or int()'s digit limit, once escaped parse_angle
    path = tmp_path / "huge.yaml"
    path.write_text(_one_part_doc(f"kind: phase, phi: {phi}"))
    assert main(["netlist", "print", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: components[0].phi: angle {phi!r} does not fit a float\n"


def test_netlist_errors(tmp_path, capsys):
    assert main(["netlist", "elaborate", str(tmp_path / "missing.yaml")]) == 2
    bad = tmp_path / "bad.yaml"
    bad.write_text("version: 9\ncomponents: []\n")
    assert main(["netlist", "elaborate", str(bad)]) == 2
    capsys.readouterr()


def test_netlist_elaborate_malformed_yaml_exits_2(tmp_path, capsys):
    path = tmp_path / "unclosed.yaml"
    path.write_text("version: 1\ncomponents:\n  - {name: a, kind: identity, ports: 1\n")
    assert main(["netlist", "elaborate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: document: not valid YAML: while parsing a flow mapping"
    )


def test_netlist_elaborate_singular_loop_exits_3(tmp_path, capsys):
    path = tmp_path / "singular.yaml"
    path.write_text(SINGULAR_DOC)
    assert main(["netlist", "elaborate", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: circuit[0]: singular feedback loop")


def test_importing_cli_leaves_the_battery_unloaded():
    # only the verify command imports slhnet.verify
    code = "import sys, slhnet.cli; print('slhnet.verify' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(slhnet.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "False\n"


def test_importing_cli_compiles_no_netlist_reader_pattern():
    # the canonical reader compiles its patterns on its first read
    code = ("import slhnet.cli, slhnet.netlist as n; "
            "print(n._canonical_patterns.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(slhnet.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "0\n"


def test_argparse_rejects_unknown_command():
    with pytest.raises(SystemExit) as info:
        main(["polish"])
    assert info.value.code == 2


# the benchmark's CLI cycle (perfbench/workloads.py), whose tokens the fuzz
# below recombines and mutates
_CLI_CYCLE = [
    ["compile", "0110100111"],
    ["compile", "--matrix", "101;011;110"],
    ["eval", "--mu", "0.3,0.7,1.1,2.5", "--selector", "0111"],
    ["eval", "--mu-matrix", "0.2,0.4;0.6,0.8", "--selector-matrix", "10;11"],
    ["sweep", "-o", "sweep.csv"],
    ["netlist", "elaborate", "switch.yaml"],
    ["netlist", "print", "switch.yaml"],
    ["verify", "--exhaustive", "4", "--compositions", "100", "--grid", "20"],
    ["compile", "0120"],
    ["sweep", "--phi", "0"],
    ["netlist", "elaborate", "singular.yaml"],
]


def _mutant(rng, tokens, chars):
    # one to three edits of a cycle argv: insert, replace or drop a cycle
    # token, or insert, replace or drop one character of a token
    argv = list(rng.choice(_CLI_CYCLE))
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(argv))
        edit = rng.randrange(6)
        if edit == 0:
            argv.insert(i, rng.choice(tokens))
        elif edit == 1:
            argv[i] = rng.choice(tokens)
        elif edit == 2 and len(argv) > 1:
            del argv[i]
        else:
            tok, j = argv[i], rng.randrange(len(argv[i]) + 1)
            keep = j + (edit != 3)
            argv[i] = tok[:j] + ("" if edit == 5 else rng.choice(chars)) + tok[keep:]
    return argv


def test_fuzzed_argv_exits_with_a_documented_code(tmp_path, monkeypatch, capsys):
    # every argv exits 0, 2 or 3 (1 only with a failed check in its report),
    # never with a traceback; at this seed two mutants ask for verify
    # --exhaustive 40 and 47, whose 2**n-row sweeps the size ranges refuse
    monkeypatch.chdir(tmp_path)
    tokens = sorted({tok for argv in _CLI_CYCLE for tok in argv})
    chars = sorted(set("".join(tokens)) | set("-=,;/ eh"))
    rng = random.Random(10)
    for _ in range(400):
        (tmp_path / "switch.yaml").write_text(SWITCH_DOC)
        (tmp_path / "singular.yaml").write_text(SINGULAR_DOC)
        argv = _mutant(rng, tokens, chars)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # any escape fails the test
            pytest.fail(f"{argv!r} raised {exc!r}")
        out = capsys.readouterr().out
        assert code in (0, 2, 3) or (code == 1 and "FAIL" in out), (argv, code)


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_cli_examples():
    """(argv, shown lines) for each command in README's CLI block that shows
    output; ``...`` lines and ``#`` comments are not output to compare."""
    block = README.read_text().split("## CLI\n", 1)[1].split("```text\n", 1)[1]
    examples = []
    for line in block.split("```", 1)[0].splitlines():
        if line.startswith("slhnet "):
            examples.append((shlex.split(line, comments=True)[1:], []))
        elif (shown := line.split("#", 1)[0].rstrip()) and "..." not in shown:
            examples[-1][1].append(shown)
    return [(argv, shown) for argv, shown in examples if shown]


def test_readme_cli_block_shows_what_the_commands_print(capsys):
    examples = _readme_cli_examples()
    assert [line for _, shown in examples for line in shown] == [
        "control: [0, pi, 0]", "tail: pi", "output_phase: 1.8",
        "m_out[1]: 0.8 0.6", "m_out[2]: 1.2 0.8"]
    for argv, shown in examples:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out.splitlines()
        # the shown lines, in their order, among the printed ones
        assert [line for line in out if line in shown] == shown, (argv, out)
