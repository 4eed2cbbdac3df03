import math
import random
import re
import string
from dataclasses import replace

import numpy as np
import pytest
import yaml
from numpy.testing import assert_allclose

from slhnet import (
    CircuitError,
    DomainError,
    Netlist,
    NetlistError,
    elaborate,
    feedback_selector_scattering,
    format_angle,
    parse_angle,
    parse_netlist,
    serialize_netlist,
)
from slhnet.cli import main
from slhnet.netlist import CombinatorDecl, ComponentDecl, _load, _read_canonical

PI = math.pi

# one of everything: every component kind, every combinator
FULL_DOC = """\
version: 1
components:
  - {name: ph, kind: phase, phi: 3pi/4}
  - {name: wire, kind: identity, ports: 1}
  - {name: bs, kind: beamsplitter, theta: -pi/4}
  - {name: bp, kind: beamsplitter, theta: pi/4}
  - {name: src, kind: drive, amplitudes: [[1, -2], [0.5, 0]]}
circuit:
  - {name: arm, op: concat, of: [ph, wire]}
  - {name: mz, op: series, of: [bs, arm, bp]}
  - {name: fb, op: feedback, of: [mz], output: 1, input: 1}
"""


def test_parse_angle_tokens():
    assert parse_angle("pi") == PI
    assert parse_angle("-pi/4") == -PI / 4
    assert parse_angle("3pi/4") == 3 * PI / 4
    assert parse_angle("2pi/3") == 2 * PI / 3
    assert parse_angle("+pi/2") == PI / 2
    assert parse_angle(0) == 0.0
    assert parse_angle(1.25) == 1.25
    assert parse_angle("1e-09") == 1e-9  # yaml hands this over as a string
    assert parse_angle("-0.5") == -0.5


@pytest.mark.parametrize("bad", ["pie", "pi/0", "2pi/", "", "one", True, None, [1]])
def test_parse_angle_rejects(bad):
    with pytest.raises(NetlistError):
        parse_angle(bad, "here")


def test_parse_angle_requires_finite():
    with pytest.raises(NetlistError):
        parse_angle(math.inf)
    with pytest.raises(NetlistError):
        parse_angle("nan")


@pytest.mark.parametrize("token", ["1" * 400 + "pi", "-pi/" + "1" * 400, "1" * 5000 + "pi",
                                   "pi/" + "1" * 5000, "1" * 400 + "pi/" + "1" * 400])
def test_parse_angle_refuses_a_multiple_or_divisor_past_the_float_range(token):
    with pytest.raises(NetlistError) as info:
        parse_angle(token, "components[0].phi")
    assert info.value.location == "components[0].phi"
    assert str(info.value) == f"components[0].phi: angle {token!r} does not fit a float"
    # a divisor of zero keeps its own message
    with pytest.raises(NetlistError, match="zero divisor in angle '2pi/0'"):
        parse_angle("2pi/0")


def test_format_angle_spellings():
    assert format_angle(0.0) == "0"
    assert format_angle(PI) == "pi"
    assert format_angle(-PI) == "-pi"
    assert format_angle(2 * PI) == "2pi"
    assert format_angle(-PI / 4) == "-pi/4"
    assert format_angle(3 * PI / 4) == "3pi/4"
    assert format_angle(2 * PI / 3) == "2pi/3"
    assert format_angle(0.3) == "0.3"


def test_format_angle_round_trips_bit_exactly():
    values = [PI, -PI, PI / 2, 3 * PI / 4, 2 * PI / 3, 5 * PI / 12,
              0.0, 0.7, -1.25, 1e-9, 123.456, math.nextafter(PI, 4.0)]
    for x in values:
        assert parse_angle(format_angle(x)) == x


def test_parse_serialize_round_trip():
    nl = parse_netlist(FULL_DOC)
    text = serialize_netlist(nl)
    again = parse_netlist(text)
    assert again == nl
    # canonical form is a fixed point of parse -> serialize
    assert serialize_netlist(again) == text


def test_serialize_preserves_symbolic_angles():
    text = serialize_netlist(parse_netlist(FULL_DOC))
    assert "phi: 3pi/4" in text
    assert "theta: -pi/4" in text
    assert "amplitudes: [[1.0, -2.0], [0.5, 0]]" in text
    # one pinned line per kind; a drive mixes real and [re, im] entries
    text = serialize_netlist(parse_netlist(
        "version: 1\ncomponents:\n"
        "  - {name: ph, kind: phase, phi: 3pi/4}\n"
        "  - {name: bs, kind: beamsplitter, theta: 0.3}\n"
        "  - {name: src, kind: drive, amplitudes: [0.5, [1, -2], -pi/2, [0, 1e-300]]}\n"
        "  - {name: w, kind: identity, ports: 3}\n"
        "circuit:\n  - {name: all, op: concat, of: [ph, bs, src, w]}\n"
    ))
    assert text.splitlines()[2:6] == [
        "  - {name: ph, kind: phase, phi: 3pi/4}",
        "  - {name: bs, kind: beamsplitter, theta: 0.3}",
        "  - {name: src, kind: drive, amplitudes: [[0.5, 0], [1.0, -2.0], [-pi/2, 0], [0, 1e-300]]}",
        "  - {name: w, kind: identity, ports: 3}",
    ]


def test_parsed_drive_amplitudes_are_complex():
    nl = parse_netlist(FULL_DOC)
    src = [c for c in nl.components if c.name == "src"][0]
    assert src.value == (1.0 - 2.0j, 0.5 + 0.0j)


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


def test_elaborate_switch_is_a_swap():
    model = elaborate(parse_netlist(SWITCH_DOC))
    assert_allclose(model.scattering, [[0, 1], [1, 0]], atol=1e-12)
    assert model.is_passive()


LOOP_DOC = """\
version: 1
components:
  - {name: ctl, kind: phase, phi: 0}
  - {name: mem, kind: phase, phi: 0.7}
  - {name: wire, kind: identity, ports: 1}
  - {name: b1, kind: beamsplitter, theta: pi/4}
  - {name: b2, kind: beamsplitter, theta: -pi/4}
circuit:
  - {name: ctl2, op: concat, of: [ctl, wire]}
  - {name: mem2, op: concat, of: [mem, wire]}
  - {name: loop, op: series, of: [mem2, b2, ctl2, b1]}
  - {name: closed, op: feedback, of: [loop], output: 1, input: 1}
"""


def test_elaborate_feedback_selector_loop():
    model = elaborate(parse_netlist(LOOP_DOC))
    assert model.ports == 1
    want = feedback_selector_scattering(0.0, 0.7)
    assert abs(model.scattering[0, 0] - want) < 1e-12
    assert abs(want - 1.0) < 1e-12  # phi = 0 passes the memory by


def test_empty_circuit_denotes_the_sole_component():
    nl = parse_netlist("version: 1\ncomponents:\n  - {name: w, kind: identity, ports: 2}\n")
    assert_allclose(elaborate(nl).scattering, np.eye(2), atol=0)


def _err(text):
    with pytest.raises(NetlistError) as info:
        parse_netlist(text)
    return info.value


_ONE_PART = "components:\n  - {name: a, kind: identity, ports: 1}\n"


# YAML 1.1 reads these as True, True, True, 1.0 and 1.0, each equal to 1
@pytest.mark.parametrize("spelling", ["true", "yes", "on", "1.0", "!!float 1"])
def test_a_version_that_is_a_bool_or_float_is_refused(spelling):
    e = _err(f"version: {spelling}\n" + _ONE_PART)
    value = yaml.safe_load(f"version: {spelling}")["version"]
    assert (e.location, str(e)) == (
        "document.version", f"document.version: unsupported version {value!r} (expected 1)")


@pytest.mark.parametrize("spelling", ["1", "0x1", "+1"])
def test_an_integer_version_one_in_any_spelling_is_read(spelling):
    assert parse_netlist(f"version: {spelling}\n" + _ONE_PART) == parse_netlist(
        "version: 1\n" + _ONE_PART)


def test_diagnostics_carry_locations():
    e = _err("version: 1\ncomponents:\n  - {name: x, kind: mirror, phi: 0}\n")
    assert e.location == "components[0]" and "mirror" in str(e)

    e = _err(
        "version: 1\ncomponents:\n  - {name: a, kind: identity, ports: 1}\n"
        "circuit:\n  - {name: c, op: series, of: [a, ghost]}\n"
    )
    assert e.location == "circuit[0].of[1]" and "ghost" in str(e)

    e = _err(
        "version: 1\ncomponents:\n"
        "  - {name: a, kind: identity, ports: 1}\n"
        "  - {name: a, kind: identity, ports: 1}\n"
    )
    assert e.location == "components[1]" and "duplicate" in str(e)

    # a circuit entry may not reuse a component's name, nor another entry's
    head = "version: 1\ncomponents:\n  - {name: a, kind: identity, ports: 1}\ncircuit:\n"
    e = _err(head + "  - {name: a, op: series, of: [a, a]}\n")
    assert (e.location, str(e)) == ("circuit[0]", "circuit[0]: duplicate name 'a'")
    e = _err(head + "  - {name: c, op: series, of: [a, a]}\n"
             "  - {name: c, op: concat, of: [c, a]}\n")
    assert (e.location, str(e)) == ("circuit[1]", "circuit[1]: duplicate name 'c'")

    e = _err("version: 7\ncomponents:\n  - {name: a, kind: identity, ports: 1}\n")
    assert e.location == "document.version"

    e = _err(
        "version: 1\ncomponents:\n  - {name: a, kind: identity, ports: 2}\n"
        "circuit:\n  - {name: c, op: feedback, of: [a, a], output: 1, input: 1}\n"
    )
    assert e.location == "circuit[0].of" and "exactly one" in str(e)

    e = _err(
        "version: 1\ncomponents:\n  - {name: a, kind: identity, ports: 2}\n"
        "circuit:\n  - {name: c, op: feedback, of: [a], input: 1}\n"
    )
    assert "output" in str(e)

    e = _err(
        "version: 1\ncomponents:\n  - {name: a, kind: identity, ports: 1}\n"
        "circuit:\n  - {name: c, op: series, of: [a]}\n"
    )
    assert e.location == "circuit[0].of"

    # exact text, kind and op lists in their declared order; an unhashable
    # kind or op is refused like any other unknown one
    kinds = "('phase', 'beamsplitter', 'drive', 'identity')"
    ops = "('series', 'concat', 'feedback')"
    head = "version: 1\ncomponents:\n  - {name: a, kind: identity, ports: 2}\n"
    for text, location, message in [
        ("version: 1\ncomponents:\n  - {name: x, kind: mirror, phi: 0}\n",
         "components[0]", f"unknown kind 'mirror' (expected one of {kinds})"),
        ("version: 1\ncomponents:\n  - {name: x, kind: [phase], phi: 0}\n",
         "components[0]", f"unknown kind ['phase'] (expected one of {kinds})"),
        (head + "circuit:\n  - {name: c, op: loop, of: [a]}\n",
         "circuit[0]", f"unknown op 'loop' (expected one of {ops})"),
        (head + "circuit:\n  - {name: c, op: [series], of: [a, a]}\n",
         "circuit[0]", f"unknown op ['series'] (expected one of {ops})"),
        (head + "circuit:\n  - {name: c, op: feedback, of: [a, a], output: 1, input: 1}\n",
         "circuit[0].of", "feedback takes exactly one operand, got 2"),
        (head + "circuit:\n  - {name: c, op: series, of: [a]}\n",
         "circuit[0].of", "series needs at least two operands, got 1"),
        (head + "circuit:\n  - {name: c, op: concat, of: [a]}\n",
         "circuit[0].of", "concat needs at least two operands, got 1"),
        (head + "circuit:\n  - {name: c, op: series, of: x}\n",
         "circuit[0].of", "operands must be a list of names"),
        # feedback ports follow the one positive-integer rule of ``ports``
        (head + "circuit:\n  - {name: c, op: feedback, of: [a], output: 0, input: 1}\n",
         "circuit[0].output", "output must be a positive integer, got 0"),
        (head + "circuit:\n  - {name: c, op: feedback, of: [a], output: 1, input: true}\n",
         "circuit[0].input", "input must be a positive integer, got True"),
        (head + "circuit:\n  - {name: c, op: feedback, of: [a], output: x, input: 1}\n",
         "circuit[0].output", "output must be a positive integer, got 'x'"),
    ]:
        e = _err(text)
        assert (e.location, str(e)) == (location, f"{location}: {message}")


def test_document_level_diagnostics():
    assert _err("- 1\n").location == "document"
    assert _err("{oops\n").location == "document"
    assert _err("version: 1\n").location == "document.components"
    e = _err(
        "version: 1\ncomponents:\n"
        "  - {name: a, kind: identity, ports: 1}\n"
        "  - {name: b, kind: identity, ports: 1}\n"
    )
    assert e.location == "document.circuit"
    e = _err("version: 1\nwires: []\ncomponents:\n  - {name: a, kind: identity, ports: 1}\n")
    assert "wires" in str(e)
    # both lists are checked before any entry is parsed, components first
    e = _err("version: 1\ncomponents: {a: 1}\ncircuit: 5\n")
    assert str(e) == "document.components: components must be a list"
    e = _err("version: 1\ncomponents:\n  - {name: a, kind: mirror}\ncircuit: 5\n")
    assert str(e) == "document.circuit: circuit must be a list"


def test_component_field_validation():
    e = _err("version: 1\ncomponents:\n  - {name: 2bad, kind: identity, ports: 1}\n")
    assert "name" in str(e)
    e = _err("version: 1\ncomponents:\n  - {name: a, kind: identity, ports: 0}\n")
    assert e.location == "components[0].ports"
    e = _err("version: 1\ncomponents:\n  - {name: a, kind: identity, ports: true}\n")
    assert e.location == "components[0].ports"
    e = _err("version: 1\ncomponents:\n  - {name: a, kind: drive, amplitudes: []}\n")
    assert e.location == "components[0].amplitudes"
    e = _err("version: 1\ncomponents:\n  - {name: a, kind: drive, amplitudes: [[1, 2, 3]]}\n")
    assert "[re, im]" in str(e)
    e = _err("version: 1\ncomponents:\n  - {name: a, kind: phase, phi: pi, extra: 1}\n")
    assert "extra" in str(e)

    # exact text: each kind owns one parameter key, whose absence is
    # refused, and the other kinds' keys are unknown to it
    for decl, location, message in [
        ("{name: a, kind: phase}", "components[0]", "missing required key 'phi'"),
        ("{name: a, kind: beamsplitter}", "components[0]", "missing required key 'theta'"),
        ("{name: a, kind: drive}", "components[0]", "missing required key 'amplitudes'"),
        ("{name: a, kind: identity}", "components[0]", "missing required key 'ports'"),
        ("{name: a, kind: phase, theta: pi}", "components[0]", "unknown keys ['theta']"),
        ("{name: a, kind: beamsplitter, amplitudes: [1]}", "components[0]",
         "unknown keys ['amplitudes']"),
        ("{name: a, kind: drive, ports: 1}", "components[0]", "unknown keys ['ports']"),
        ("{name: a, kind: identity, phi: 0}", "components[0]", "unknown keys ['phi']"),
        ("{name: a, kind: identity, ports: 0}", "components[0].ports",
         "ports must be a positive integer, got 0"),
        ("{name: a, kind: identity, ports: true}", "components[0].ports",
         "ports must be a positive integer, got True"),
        ("{name: a, kind: drive, amplitudes: []}", "components[0].amplitudes",
         "amplitudes must be a nonempty list"),
        ("{name: a, kind: drive, amplitudes: 3}", "components[0].amplitudes",
         "amplitudes must be a nonempty list"),
        ("{name: a, kind: drive, amplitudes: [[1]]}", "components[0].amplitudes[0]",
         "complex amplitude needs [re, im]"),
        ("{name: a, kind: drive, amplitudes: [[1, x]]}", "components[0].amplitudes[0]",
         "cannot parse angle 'x'"),
    ]:
        e = _err(f"version: 1\ncomponents:\n  - {decl}\n")
        assert (e.location, str(e)) == (location, f"{location}: {message}")


def test_elaborate_wraps_circuit_errors():
    text = (
        "version: 1\ncomponents:\n"
        "  - {name: w, kind: identity, ports: 1}\n"
        "  - {name: b, kind: beamsplitter, theta: pi/4}\n"
        "circuit:\n  - {name: c, op: series, of: [w, b]}\n"
    )
    with pytest.raises(NetlistError) as info:
        elaborate(parse_netlist(text))
    assert info.value.location == "circuit[0]"
    # a hand-built netlist skips parse_netlist's check, and elaborate repeats it
    parts = (ComponentDecl("a", "identity", 1), ComponentDecl("b", "identity", 1))
    with pytest.raises(NetlistError) as info:
        elaborate(Netlist(parts, ()))
    assert str(info.value) == ("document.circuit: an empty circuit needs exactly one "
                               "component to denote the model")


def test_elaborate_holds_hand_built_netlists_to_the_structure_rule():
    a, b = ComponentDecl("a", "identity", 1), ComponentDecl("b", "identity", 1)
    for components, circuit, message in [
        ((a, b), (CombinatorDecl("c", "series", ("a", "ghost")),),
         "circuit[0].of[1]: unresolved reference 'ghost'"),
        ((a, a), (CombinatorDecl("c", "series", ("a", "a")),), "components[1]: duplicate name 'a'"),
        ((), (), "document.components: at least one component is required"),
    ]:
        with pytest.raises(NetlistError) as info:
            elaborate(Netlist(components, circuit))
        assert str(info.value) == message
    # the document denotes its last circuit entry, or its sole component
    assert elaborate(Netlist((b,), ())).ports == 1
    assert elaborate(Netlist((a, b), (CombinatorDecl("c", "concat", ("a", "b")),))).ports == 2


def test_elaborate_refuses_hand_built_values_with_typed_errors():
    # the netlist rule checks each value by its kind's rule, so a value that the
    # builders would refuse never reaches elaborate: the netlist cannot be built
    for decl, message in [
        (ComponentDecl("a", "identity", "x"), "ports: ports must be a positive integer, got 'x'"),
        (ComponentDecl("b", "beamsplitter", [1, 2]),
         "theta: theta must be a single finite real, got [1, 2]"),
        (ComponentDecl("b", "beamsplitter", "pi"),
         "theta: theta must be a single finite real, got 'pi'"),
        (ComponentDecl("p", "phase", "x"), "phi: phi must be a single finite real, got 'x'"),
        (ComponentDecl("p", "phase", True), "phi: phi must be a single finite real, got True"),
        (ComponentDecl("d", "drive", (1, "x")), "amplitudes: amplitudes must be a non-empty "
         "tuple of finite complex numbers, got (1, 'x')"),
    ]:
        with pytest.raises(NetlistError) as info:
            elaborate(Netlist((decl,)))
        assert str(info.value) == "components[0]." + message


_AMPS = "a non-empty tuple of finite complex numbers"


@pytest.mark.parametrize("kind, value, rule", [
    ("phase", np.array([1.0, 2.0]), "a single finite real"),  # elaborated to a batch of two
    ("phase", math.nan, "a single finite real"),
    ("beamsplitter", -math.inf, "a single finite real"),
    ("phase", 1j, "a single finite real"),
    ("phase", np.True_, "a single finite real"),
    ("beamsplitter", None, "a single finite real"),
    ("identity", 2.0, "a positive integer"),  # serialized as "ports: 2.0", which the parser refuses
    ("identity", 0, "a positive integer"),
    ("identity", np.int64(-1), "a positive integer"),
    ("identity", True, "a positive integer"),
    ("drive", (), _AMPS),
    ("drive", [1j], _AMPS),
    ("drive", np.array([1j]), _AMPS),
    ("drive", (1j, complex(math.nan, 0.0)), _AMPS),
    ("drive", (complex(0.0, math.inf),), _AMPS),
    ("drive", (True,), _AMPS),
    ("drive", (10 ** 400,), _AMPS),
    ("drive", ("1",), _AMPS),
], ids=["phase-array", "phase-nan", "theta-inf", "phase-complex", "phase-np-bool", "theta-none",
        "ports-float", "ports-zero", "ports-negative", "ports-bool", "amps-empty", "amps-list",
        "amps-array", "amps-nan", "amps-inf", "amps-bool", "amps-huge-int", "amps-str"])
def test_a_hand_built_value_is_checked_by_its_kind_rule(kind, value, rule):
    key = {"phase": "phi", "beamsplitter": "theta", "drive": "amplitudes",
           "identity": "ports"}[kind]
    ok = ComponentDecl("ok", "identity", 1)
    with pytest.raises(NetlistError) as info:
        Netlist((ok, ComponentDecl("bad", kind, value)),
                (CombinatorDecl("c", "concat", ("ok", "bad")),))
    assert info.value.location == f"components[1].{key}"
    assert str(info.value) == f"components[1].{key}: {key} must be {rule}, got {value!r}"


def test_values_of_the_parsed_types_and_their_numpy_kin_still_build():
    # what the parser returns, and numbers numpy reads the same way, build, print
    # and reparse to the same document
    for components in [
        (ComponentDecl("p", "phase", 0.5), ComponentDecl("b", "beamsplitter", 1),
         ComponentDecl("d", "drive", (1j, 2.0)), ComponentDecl("w", "identity", 3)),
        (ComponentDecl("p", "phase", np.float64(0.5)), ComponentDecl("b", "beamsplitter", 1.0),
         ComponentDecl("d", "drive", (np.complex128(1j), 2)),
         ComponentDecl("w", "identity", np.int64(3))),
    ]:
        nl = Netlist(components, (CombinatorDecl("c", "concat", ("p", "b", "d", "w")),))
        text = serialize_netlist(nl)
        assert serialize_netlist(parse_netlist(text)) == text
        assert elaborate(nl).ports == 8


def test_a_netlist_breaking_the_rule_cannot_be_built():
    # unknown kinds and ops are refused with the parser's text, before elaborate
    # or serialize_netlist could index their tables
    kinds = "('phase', 'beamsplitter', 'drive', 'identity')"
    ops = "('series', 'concat', 'feedback')"
    a, b = ComponentDecl("a", "identity", 1), ComponentDecl("b", "identity", 1)
    for components, circuit, message in [
        ((ComponentDecl("a", "loop", 1),), (),
         f"components[0]: unknown kind 'loop' (expected one of {kinds})"),
        ((a, b), (CombinatorDecl("c", "loop", ("a", "b")),),
         f"circuit[0]: unknown op 'loop' (expected one of {ops})"),
        ((a, b), (CombinatorDecl("c", "series", ("a", "b"), 1, 1),),
         "circuit[0]: series takes no ports, got (1, 1)"),
        ((a, b), (CombinatorDecl("c", "concat", ["a", "b"]),),
         "circuit[0].of: operands must be a list of names"),
        ((CombinatorDecl("c", "concat", ("a", "b")),), (),
         "components[0]: expected a ComponentDecl, got CombinatorDecl"),
        ((a,), (b,), "circuit[0]: expected a CombinatorDecl, got ComponentDecl"),
    ]:
        with pytest.raises(NetlistError) as info:
            Netlist(components, circuit)
        assert str(info.value) == message
    # the fields are frozen as tuples
    assert Netlist([a], []) == Netlist((a,), ())


@pytest.mark.parametrize("call, message", [
    (lambda: parse_netlist(123), "document: expected a str, got int"),
    (lambda: parse_netlist(None), "document: expected a str, got NoneType"),
    (lambda: parse_netlist(b"version: 1"), "document: expected a str, got bytes"),
    (lambda: parse_netlist(["x"]), "document: expected a str, got list"),
    (lambda: Netlist(components=5),
     "document.components: components must be a list or tuple, got int"),
    (lambda: Netlist(components=None),
     "document.components: components must be a list or tuple, got NoneType"),
    (lambda: Netlist(circuit=7), "document.circuit: circuit must be a list or tuple, got int"),
], ids=["text-int", "text-none", "text-bytes", "text-list", "components-int",
        "components-none", "circuit-int"])
def test_a_wrong_text_or_container_type_is_a_netlist_error(call, message):
    with pytest.raises(NetlistError) as info:
        call()
    assert str(info.value) == message


def test_malformed_entry_is_reported_before_structure_errors():
    # every entry parses before the structure rule runs over the document
    text = ("version: 1\ncomponents:\n"
            "  - {name: a, kind: identity, ports: 1}\n"
            "  - {name: a, kind: identity, ports: 1}\n"
            "circuit:\n  - {name: c, op: loop, of: [a, a]}\n")
    assert str(_err(text)).startswith("circuit[0]: unknown op 'loop'")


def test_format_angle_refuses_non_finite_angles():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError) as info:
            format_angle(bad)
        assert str(info.value) == f"angle must be finite, got {bad!r}"
    # a netlist cannot hold one, so serialize_netlist never meets it
    with pytest.raises(NetlistError, match=r"^components\[0\]\.phi: phi must be a single finite"):
        Netlist((ComponentDecl("p", "phase", float("nan")),))


def test_format_angle_refuses_an_array_of_angles():
    message = "angle must be a single angle, got shape (2,)"
    with pytest.raises(DomainError) as info:
        format_angle(np.array([1.0, 2.0]))
    assert str(info.value) == message
    # a netlist cannot hold one, so serialize_netlist never meets it
    with pytest.raises(NetlistError, match=r"^components\[0\]\.phi: phi must be a single finite"):
        Netlist((ComponentDecl("p", "phase", np.array([1.0, 2.0])),))


def _format_angle_loop(x):
    """A frozen copy of format_angle before its non-symbolic shortcut and its
    overflow guard: every denominator tried in turn (raises OverflowError
    where ``x * den`` overflows)."""
    if x == 0.0:
        return "0"
    for den in (1, 2, 3, 4, 6, 8, 12):
        k = round(x * den / PI)
        if k != 0 and k * PI / den == x:
            sign = "-" if k < 0 else ""
            mag = abs(k)
            head = "pi" if mag == 1 else f"{mag}pi"
            tail = "" if den == 1 else f"/{den}"
            return f"{sign}{head}{tail}"
    return repr(x)


def test_format_angle_matches_the_exact_loop():
    rng = np.random.default_rng(41)
    symbolic = [k * PI / d for k in range(-3000, 3001) for d in range(1, 25)]
    uniform = rng.uniform(-10.0, 10.0, 200_000).tolist()
    binades = (np.power(10.0, rng.uniform(-320.0, 308.0, 100_000))
               * rng.choice([-1.0, 1.0], 100_000)).tolist()
    differ, unread, compared = [], [], 0
    for x in symbolic + uniform + binades:
        got = format_angle(x)
        try:
            want = _format_angle_loop(x)
        except OverflowError:
            pass
        else:
            compared += 1
            if got != want:
                differ.append((x, got, want))
        if parse_angle(got) != x:
            unread.append((x, got))
    assert differ == [] and unread == []
    # the copy raised only near the float range's end, where x * 2 overflows
    assert compared > 444_000
    # and the shortcut met both kinds: symbolic spellings and repr
    assert format_angle(3 * PI / 8) == "3pi/8" and format_angle(2.5) == "2.5"


def test_format_angle_reads_back_angles_near_the_float_range_end():
    top = 1.4668959017160943e308
    with pytest.raises(OverflowError):
        _format_angle_loop(top)
    rng = np.random.default_rng(43)
    values = [top, 1.7976931348623157e308, *rng.uniform(9e307, 1.79e308, 2000).tolist()]
    for x in values + [-x for x in values]:
        assert parse_angle(format_angle(x)) == x
    assert format_angle(top) == repr(top)
    assert format_angle(1e16) == "3183098861837907pi"
    text = serialize_netlist(Netlist((ComponentDecl("p", "phase", top),)))
    again = parse_netlist(text)
    assert again.components[0].value == top and serialize_netlist(again) == text


def test_a_full_count_of_keys_still_names_the_unknown_one():
    # as many keys as the entry allows, one of them unknown: that key is
    # reported, not the allowed key it displaced
    for decl, message in [
        ("{name: c, op: feedback, of: [a], output: 1, extra: 2}", "unknown keys ['extra']"),
        ("{name: c, op: feedback, of: [a], extra: 2, input: 1}", "unknown keys ['extra']"),
        ("{name: c, op: series, of: [a, a], output: 1}", "unknown keys ['output']"),
    ]:
        e = _err(f"version: 1\ncomponents:\n  - {{name: a, kind: identity, ports: 2}}\n"
                 f"circuit:\n  - {decl}\n")
        assert (e.location, str(e)) == ("circuit[0]", f"circuit[0]: {message}")
    e = _err("version: 1\ncomponents:\n  - {name: a, kind: phase, extra: 1}\n")
    assert str(e) == "components[0]: unknown keys ['extra']"
    # one key short, the missing one is named
    e = _err("version: 1\ncomponents:\n  - {name: a, kind: identity, ports: 2}\n"
             "circuit:\n  - {name: c, op: feedback, of: [a], output: 1}\n")
    assert str(e) == "circuit[0]: missing required key 'input'"


def test_numpy_integer_ports_build_and_reprint_as_python_ints():
    def netlist(port):
        return Netlist((ComponentDecl("b", "beamsplitter", PI / 3),
                        ComponentDecl("w", "identity", port(1))),
                       (CombinatorDecl("c", "concat", ("b", "w")),
                        CombinatorDecl("f", "feedback", ("c",), port(1), port(2))))

    want, got = elaborate(netlist(int)), elaborate(netlist(np.int64))
    assert np.array_equal(got.scattering, want.scattering)
    assert np.array_equal(got.coupling, want.coupling)
    assert got.hamiltonian == want.hamiltonian
    assert serialize_netlist(netlist(np.int64)) == serialize_netlist(netlist(int))
    # the same rule still refuses a port below 1, naming it as given
    with pytest.raises(NetlistError) as info:
        Netlist((ComponentDecl("w", "identity", 2),),
                (CombinatorDecl("f", "feedback", ("w",), np.int64(0), 1),))
    assert str(info.value) == ("circuit[0].output: output must be a positive integer, "
                               "got np.int64(0)")


def test_serialize_is_deterministic():
    nl = parse_netlist(FULL_DOC)
    text = serialize_netlist(nl)
    assert text == serialize_netlist(nl) and text.endswith("\n")


# -- the libyaml loader against PyYAML's pure-Python reference ----------------

# every spelling PyYAML's YAML 1.1 resolver treats specially, as an angle and
# as a port count; some are refused, and both loaders must refuse them alike
YAML11_SPELLINGS = ["1e3", ".5", "0x10", "1_000", "0o7", "yes", "~"]

YAML11_DOC = """\
version: 1
components:
  - {name: a, kind: phase, phi: 1e3}
  - {name: b, kind: beamsplitter, theta: .5}
  - {name: c, kind: phase, phi: 0x10}
  - {name: d, kind: phase, phi: 1_000}
  - {name: e, kind: identity, ports: 0x10}
  - {name: f, kind: identity, ports: 1_000}
  - {name: g, kind: drive, amplitudes: [[1e3, .5], 0x10, 1_000]}
circuit:
  - {name: all, op: concat, of: [a, b, c, d, e, f]}
"""


def _random_netlist(rng) -> Netlist:
    """A random netlist over every kind and op; angles mix pi multiples,
    plain doubles and tiny values that serialize with an exponent."""
    def angle():
        pick = rng.integers(0, 3)
        if pick == 0:
            return float(rng.integers(-12, 13)) * PI / float(rng.choice([1, 2, 3, 4, 6, 8, 12]))
        if pick == 1:
            return float(rng.uniform(-2 * PI, 2 * PI))
        return float(rng.uniform(-1, 1)) * 10.0 ** float(rng.integers(-12, -4))

    components = []
    for i in range(int(rng.integers(1, 8))):
        kind = ("phase", "beamsplitter", "identity", "drive")[int(rng.integers(0, 4))]
        if kind == "identity":
            value = int(rng.integers(1, 5))
        elif kind == "drive":
            value = tuple(complex(angle(), angle()) for _ in range(int(rng.integers(1, 4))))
        else:
            value = angle()
        components.append(ComponentDecl(f"c{i}", kind, value))
    names = [c.name for c in components]
    circuit = []
    for i in range(int(rng.integers(1, 5))):
        op = ("series", "concat", "feedback")[int(rng.integers(0, 3))]
        if op == "feedback":
            decl = CombinatorDecl(f"n{i}", op, (str(rng.choice(names)),),
                                  int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        else:
            k = int(rng.integers(2, 5))
            decl = CombinatorDecl(f"n{i}", op, tuple(str(s) for s in rng.choice(names, k)))
        circuit.append(decl)
        names.append(decl.name)
    return Netlist(tuple(components), tuple(circuit))


def _yaml11_docs():
    for token in YAML11_SPELLINGS:
        yield f"version: 1\ncomponents:\n  - {{name: p, kind: phase, phi: {token}}}\n"
        yield f"version: 1\ncomponents:\n  - {{name: w, kind: identity, ports: {token}}}\n"


def _outcome(text):
    """What parse_netlist makes of ``text``: the netlist and its canonical
    text, or the refusal's location and message."""
    try:
        nl = parse_netlist(text)
    except NetlistError as exc:
        return ("refused", exc.location, str(exc))
    return (nl, serialize_netlist(nl))


def test_libyaml_loader_matches_pure_python_loader(monkeypatch):
    rng = np.random.default_rng(9)
    valid = [FULL_DOC, SWITCH_DOC, LOOP_DOC, YAML11_DOC,
             "version: 1\ncomponents:\n  - {name: w, kind: identity, ports: 2}\n"]
    valid += [serialize_netlist(_random_netlist(rng)) for _ in range(20)]
    corpus = valid + list(_yaml11_docs())
    fast = [_outcome(text) for text in corpus]
    # the reference loads every document with PyYAML's pure-Python loader itself,
    # not through _load, whose canonical reader would read both sides
    monkeypatch.setattr("slhnet.netlist._load", lambda t: yaml.load(t, Loader=yaml.SafeLoader))
    reference = [_outcome(text) for text in corpus]
    assert fast == reference
    # the valid corpus really parses, and the YAML 1.1 spellings resolve
    assert all(isinstance(out[0], Netlist) for out in fast[:len(valid)])
    values = [c.value for c in fast[3][0].components]
    assert values == [1000.0, 0.5, 16.0, 1000.0, 16, 1000,
                      (1000 + 0.5j, 16 + 0j, 1000 + 0j)]


def _first_mark(message):
    return re.search(r"line \d+, column \d+", message).group(0)


MALFORMED_YAML = {
    "unclosed-flow-mapping": "version: 1\ncomponents:\n  - {name: a, kind: identity, ports: 1\n",
    "unclosed-flow-sequence": "version: 1\ncomponents: [{name: a, kind: identity, ports: 1}\n",
    "nested-mapping-value": "a: b: c\n",
    "leading-tab": "\tversion: 1\n",
    "undefined-alias": "version: 1\ncomponents: *nope\n",
    "two-documents": "version: 1\n---\nversion: 1\n",
    "python-tag": "!!python/object:os.system ls\n",
}


@pytest.mark.parametrize("text", MALFORMED_YAML.values(), ids=MALFORMED_YAML.keys())
def test_malformed_yaml_diagnostics(text):
    with pytest.raises(yaml.YAMLError) as ref:
        yaml.load(text, Loader=yaml.SafeLoader)
    e = _err(text)
    assert e.location == "document"
    assert str(e).startswith("document: not valid YAML:")
    assert _first_mark(str(e)) == _first_mark(str(ref.value))


# -- the direct node-tree build against yaml.load ------------------------------

LOAD_CORPUS = {
    "ints": "a: 0x1f\nb: 0o17\nc: 1_000\nd: 1:30\ne: -0b101\nf: 017\n",
    "floats": "a: .inf\nb: -.Inf\nc: .nan\nd: 1e3\ne: 6.8523015e+5\nf: 1:30.5\n",
    "bools": "a: yes\nb: no\nc: on\nd: Off\ne: TRUE\nf: n\n",
    "nulls": "a: ~\nb:\nc: null\nd: [~, , null]\n",
    "timestamps": "a: 2001-12-14\nb: 2001-12-14t21:59:43.10-05:00\nc: 2001-12-14 21:59:43.10\n",
    "nested": "a: [1, [2, {b: c}], {d: [e, 0.5]}]\nf: {g: {h: []}, i: {}}\n",
    "alias": "a: &x [1, 2]\nb: *x\nc: &y {d: 1}\ne: *y\n",
    "recursive-alias": "a: &x [1, *x]\n",
    "undefined-alias": "a: *nope\n",
    "merge": "base: &b {k: 1, v: 2}\nx: {<<: *b, v: 3}\n",
    "inline-merge": "x: {<<: {k: 1}, v: 3}\n",
    "explicit-tags": "a: !!str 1\nb: !!int '7'\nc: !!float '2'\nd: !!str yes\n",
    "bad-explicit-int": "a: !!int x\n",
    "bad-explicit-bool": "a: !!bool x\n",
    "str-tagged-list": "a: !!str [1]\n",
    "seq-tagged-scalar": "a: !!seq abc\n",
    "custom-tag": "a: !custom 1\n",
    "python-object": "a: !!python/object:os.system ls\n",
    "binary": "a: !!binary aGVsbG8=\n",
    "set": "a: !!set {x, y}\n",
    "omap": "a: !!omap [x: 1, y: 2]\n",
    "duplicate-keys": "a: 1\nb: 2\na: 3\n",
    "int-and-bool-keys": "1: a\ntrue: b\n2: c\n1.0: d\n",
    "sequence-key": "? [a, b]\n: c\n",
    "mapping-key": "? {a: b}\n: c\n",
    "value-scalar": "a: =\n",
    "value-key": "=: a\n",
    "empty": "",
    "comment-only": "# nothing\n",
    "two-documents": "a: 1\n---\nb: 2\n",
    "scalar-document": "pi/4\n",
    "error-order": "a: {b: !!int x}\nc: !custom 1\n",
}


def _loaded(load, text):
    """A comparable outcome: the value's repr (NaN-aware, and finite for a
    recursive value), or the error's type and message."""
    try:
        return ("value", repr(load(text)))
    except Exception as exc:
        return ("error", type(exc), str(exc))


@pytest.mark.parametrize("text", LOAD_CORPUS.values(), ids=LOAD_CORPUS.keys())
def test_direct_load_matches_yaml_load(text):
    expected = _loaded(lambda t: yaml.load(t, Loader=yaml.CSafeLoader), text)
    assert _loaded(_load, text) == expected


# -- the canonical reader against yaml.load ------------------------------------

# YAML 1.1 spellings PyYAML's resolver treats specially, or that sit near the
# canonical reader's token grammar
READER_TOKENS = ["yes", "On", "null", "~", "0x1f", "0o17", "1_000", "1:30", ".inf", "-.Inf",
                 ".nan", "1e3", "6.8523015e+5", "2001-12-14", "--", "...", "+1", "-pi/4", "<<",
                 "=", "-", "---", ".", "0b_", "0x_", "._", "+.5", "1e",
                 "2001-12-14t21:59:43.10-05:00"]


def _reader_corpus():
    for token in READER_TOKENS:
        yield f"version: {token}\ncomponents:\n  - {{name: a, kind: phase, phi: {token}}}\n"
        yield f"version: 1\ncomponents:\n  - {{{token}: a, of: [{token}, [{token}, x]]}}\n"
        yield f"{token}: 1\n"
    long_key, long_value = "k" * 1024, "v" * 2000
    yield from [
        "version: 1\ncomponents:\n  - {1: a, true: b, ~: c, 1.5: d, .nan: e, .nan: f, -0.0: g}\n",
        "version: 1\ncomponents:\n  - {0: a, 0.0: b, false: c, null: d, ~: e}\n",
        "version: 1\ncomponents:\n  - {name: a, name: b, kind: phase, kind: drive}\n",
        "version: 1\nversion: 2\n",
        "null: 1\n~: 2\n",
        "true: 1\nyes: 2\n",
        "version: 1\ncomponents:\n  - {name: a}\ncomponents:\n  - {name: b}\n",
        "version: 1\ncomponents:\n  - {a: [], b: [[]], c: [[], 1], d: [1, []]}\n",
        "version: 1\ncomponents:\n  - {m: [[1, 0], [0, 1]]}\n",
        "version: 1\ncomponents:\n  - {m: [[[1]]]}\n",
        f"version: 1\ncomponents:\n  - {{{long_key}: a, b: {long_value}}}\n",
        f"version: 1\ncomponents:\n  - {{{long_key}k: a}}\n",
        f"version: 1\ncomponents:\n  - {{a: [{long_value}, [{long_key}k, x]]}}\n",
        f"{long_key}: 1\n",
        f"{long_key}k: 1\n",
        f"version: {long_value}\n",
        FULL_DOC,
        FULL_DOC.replace("\n", "\r\n"),
        FULL_DOC.replace("\n", "\r"),
        FULL_DOC.replace("version: 1", "version:\t1"),
        FULL_DOC.replace("name: ph,", "name:\tph,"),
        FULL_DOC.replace("\n", " \n"),
        FULL_DOC.replace("}\n", "}  \n"),
        FULL_DOC.replace("\n", " # note\n"),
        "# head\n" + FULL_DOC,
        "\ufeff" + FULL_DOC,
        *(FULL_DOC.replace(sep, brk) for brk in ("\x85", "\u2028", "\u2029") for sep in ("\n", "ph,")),
        FULL_DOC[:-1],
        FULL_DOC + "\n",
        "\n" + FULL_DOC,
        "version:\ncomponents:\n",
        "components:\n",
        "components: -\n",
        "version: 1\ncomponents:\n- {name: a}\n",
        "version: 1\ncomponents:\n    - {name: a}\n",
        "version: 1\ncomponents:\n  - {}\n",
        "version: 1\ncomponents:\n  - {a: -, b: [-], c: [[-]]}\n",
        "version: 1\ncomponents:\n  - {a: b}\n  - {a: [b, c]\n",
        "version: 1\ncomponents: x\n  - {name: a}\n",
        "  - {name: a}\n",
        "",
        "\n",
        "version: 1\n---\n",
        "version: 1\n...\n",
    ]


def _spy_reader(monkeypatch):
    """The texts the canonical reader reads, recorded as it reads them."""
    read = []

    def spy(text, loader):
        doc = _read_canonical(text, loader)
        read.append(text)
        return doc

    monkeypatch.setattr("slhnet.netlist._read_canonical", spy)
    return read


def _check_routes(texts, read):
    differ = [text for text in texts if _loaded(_load, text)
              != _loaded(lambda t: yaml.load(t, Loader=yaml.CSafeLoader), text)]
    assert differ == []
    # both routes ran: some documents were read line by line, some by PyYAML
    assert 0 < len(set(read)) < len(set(texts))


def test_canonical_reader_matches_yaml_load(monkeypatch):
    corpus = list(_reader_corpus())
    read = _spy_reader(monkeypatch)
    _check_routes(corpus, read)
    # a document without its final line break reads as yaml.load reads it; a
    # key of 1025 characters, too long for a YAML simple key, goes to PyYAML
    assert FULL_DOC in read and FULL_DOC[:-1] in read
    assert "k" * 1024 + ": 1\n" in read and "k" * 1025 + ": 1\n" not in read
    assert FULL_DOC.replace("\n", " # note\n") not in read


def test_canonical_reader_matches_yaml_load_on_mutants(monkeypatch):
    rng, draws = random.Random(27), np.random.default_rng(27)
    canonical = [FULL_DOC, SWITCH_DOC] + [serialize_netlist(_random_netlist(draws))
                                          for _ in range(6)]
    mutants = [_mutant(rng, canonical[n % len(canonical)]) for n in range(20_000)]
    read = _spy_reader(monkeypatch)
    _check_routes(mutants, read)


def test_every_serialized_netlist_takes_the_canonical_reader():
    rng, drives = np.random.default_rng(27), 0
    for _ in range(200):
        text = serialize_netlist(_random_netlist(rng))
        drives += "amplitudes: [[" in text
        loader = yaml.CSafeLoader(text)
        try:
            doc = _read_canonical(text, loader)
        finally:
            loader.dispose()
        assert repr(doc) == repr(yaml.load(text, Loader=yaml.CSafeLoader)), text
    assert drives > 50


# the first characters that key PyYAML's implicit resolvers within the canonical token
# grammar, each with its YAML 1.1 spellings and a plain word; and names that start with none
RESOLVER_KEY_TOKENS = ["0", "1x", "2e3", "3_0", "4-5", "5.5", "6", "7o", "8", "9a", "+1", "+x",
                       "-1", "-x", "-.inf", ".5", ".nan", ".x", "~", "~x", "y", "yes", "yx", "Y",
                       "Yes", "YES", "n", "no", "nx", "N", "No", "NO", "t", "true", "tx", "T",
                       "True", "TRUE", "o", "on", "off", "ox", "O", "On", "Off", "OFF", "f",
                       "false", "fx", "F", "False", "FALSE", "null", "Null", "NULL", "nullx", "nan",
                       "3pi/4"]
PLAIN_NAMES = ["c12", "bp", "series", "a", "Z", "_x", "pi", "pi/4", "x-1", "x.5", "x~",
               "/p", "e", "inf", "Q", "kind", "phase", "S", "b", "u"]


def _read_canonical_with(loader_class, text):
    loader = loader_class(text)
    try:
        return _read_canonical(text, loader)
    finally:
        loader.dispose()


def test_canonical_reader_resolves_tokens_as_yaml_load_does():
    # the characters of a canonical token: [A-Za-z0-9_.+~/-]
    grammar = set(string.ascii_letters + string.digits + "_.+~/-")
    keys = grammar & set(yaml.CSafeLoader.yaml_implicit_resolvers)
    assert keys == set("+-.~0123456789yYnNtToOfF")
    assert {token[0] for token in RESOLVER_KEY_TOKENS} == keys
    assert not {name[0] for name in PLAIN_NAMES} & set(yaml.CSafeLoader.yaml_implicit_resolvers)
    for token in RESOLVER_KEY_TOKENS + PLAIN_NAMES:
        for text in (f"version: 1\ncomponents:\n  - {{{token}: {token}, of: [{token}, [{token}]]}}\n",
                     f"{token}: {token}\n"):
            want = yaml.load(text, Loader=yaml.CSafeLoader)
            assert repr(_read_canonical_with(yaml.CSafeLoader, text)) == repr(want), text


def test_canonical_reader_applies_wildcard_resolvers():
    # a resolver keyed by no first character (None) may claim any plain name
    class Loader(yaml.CSafeLoader):
        pass

    Loader.add_implicit_resolver("tag:yaml.org,2002:null", re.compile(r"^c12$"), None)
    text = "version: 1\ncomponents:\n  - {name: c12, of: [c12, bp]}\n"
    got = _read_canonical_with(Loader, text)
    assert got == yaml.load(text, Loader=Loader)
    assert got["components"] == [{"name": None, "of": [None, "bp"]}]
    assert _read_canonical_with(yaml.CSafeLoader, text)["components"][0]["name"] == "c12"


ALIAS_DOC = """\
version: 1
components:
  - {name: a, kind: identity, ports: 1}
  - {name: b, kind: phase, phi: pi}
circuit:
  - {name: ab, op: concat, of: &ops [a, b]}
  - {name: ab2, op: concat, of: *ops}
"""

MERGE_DOC = """\
version: 1
components:
  - {<<: {kind: beamsplitter, theta: pi/4}, name: a}
  - {name: b, kind: phase, phi: pi}
circuit:
  - {name: ab, op: concat, of: [a, b]}
"""


@pytest.mark.parametrize("text, plain", [
    (ALIAS_DOC, ALIAS_DOC.replace("&ops ", "").replace("*ops", "[a, b]")),
    (MERGE_DOC, MERGE_DOC.replace("<<: {kind: beamsplitter, theta: pi/4}, name: a",
                                  "name: a, kind: beamsplitter, theta: pi/4")),
], ids=["alias-operands", "merge-key-component"])
def test_aliases_and_merge_keys_parse_as_spelled_out(text, plain):
    assert "<<" not in plain and "*" not in plain
    assert parse_netlist(text) == parse_netlist(plain)


# -- seeded mutation fuzz ------------------------------------------------------

# two switch cells around a stored phase, closed into a loop
STAIRCASE_DOC = """\
version: 1
components:
  - {name: ctl, kind: phase, phi: pi}
  - {name: mem, kind: phase, phi: 0.7}
  - {name: w, kind: identity, ports: 1}
  - {name: b1, kind: beamsplitter, theta: pi/4}
  - {name: b2, kind: beamsplitter, theta: -pi/4}
  - {name: d, kind: drive, amplitudes: [1, 0]}
circuit:
  - {name: arm, op: concat, of: [ctl, w]}
  - {name: store, op: concat, of: [w, mem]}
  - {name: cell, op: series, of: [b2, arm, b1]}
  - {name: stair, op: series, of: [cell, store, cell]}
  - {name: loop, op: feedback, of: [stair], output: 1, input: 1}
"""

MUTATION_TOKENS = [
    "!!int ", "!!bool ", "!!timestamp ", "!!float ", "!!str ", "!!seq ", "!!map ",
    "!!binary ", "!!set ", "!!omap ", "!!null ", "!custom ", "&a ", "*a", "<<: ",
    "{", "}", "[", "]", ",", ":", " ", "\n", "-", "?", "'", '"', "#", "~", "pi", "0", "1",
]


def _mutant(rng, text):
    """One to four edits: insert a token, delete a few characters, or
    overwrite one with a printable character."""
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(text) + 1)
        op = rng.random()
        if op < 0.4:
            text = text[:i] + rng.choice(MUTATION_TOKENS) + text[i:]
        elif op < 0.7:
            text = text[:i] + text[i + rng.randint(1, 3):]
        else:
            text = text[:i] + chr(rng.randrange(32, 127)) + text[i + 1:]
    return text


def test_mutated_netlists_parse_or_refuse(tmp_path, capsys):
    rng = random.Random(16)
    path = tmp_path / "mutant.yaml"
    outcomes = set()
    for _ in range(300):
        text = _mutant(rng, STAIRCASE_DOC)
        try:
            nl = parse_netlist(text)
        except CircuitError:
            outcomes.add("refused")
        else:
            outcomes.add("parsed")
            canonical = serialize_netlist(nl)
            assert serialize_netlist(parse_netlist(canonical)) == canonical, text
        path.write_text(text)
        assert main(["netlist", "print", str(path)]) in (0, 2, 3), text
    capsys.readouterr()
    assert outcomes == {"parsed", "refused"}


FAULTS = ("name", "duplicate", "kind", "op", "count", "series-ports", "port", "dangling",
          "no-components", "no-model")


def _with_one_fault(rng, nl, fault):
    """The two entry lists of the valid ``nl`` with one ``fault``, and the
    location the netlist rule must report it at."""
    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    components, circuit = list(nl.components), list(nl.circuit)
    i = int(rng.integers(len(circuit)))
    d, at = circuit[i], f"circuit[{i}]"
    if fault == "name":
        key, entries = pick([("components", components), ("circuit", circuit)])
        j = int(rng.integers(len(entries)))
        entries[j] = replace(entries[j], name=pick(["2bad", "a b", "", 5, None, ["c0"], {}]))
        return components, circuit, f"{key}[{j}]"
    if fault == "duplicate":
        # the last entry: no other entry refers to it by its own name
        earlier = [e.name for e in components + circuit[:-1]]
        circuit[-1] = replace(circuit[-1], name=pick(earlier))
        return components, circuit, f"circuit[{len(circuit) - 1}]"
    if fault == "kind":
        j = int(rng.integers(len(components)))
        components[j] = replace(components[j], kind=pick(["loop", "Phase", None, ["phase"]]))
        return components, circuit, f"components[{j}]"
    if fault == "op":
        circuit[i] = replace(d, op=pick(["loop", "Series", None, ["series"]]))
        return components, circuit, at
    ref = d.operands[0]
    if fault == "count":
        wrong = pick([(), (ref, ref)] if d.op == "feedback" else [(), (ref,)])
        circuit[i] = replace(d, operands=wrong)
        return components, circuit, f"{at}.of"
    if fault == "series-ports":
        ports = pick([(1, 0), (0, 2), (1, 1)])
        circuit[i] = CombinatorDecl(d.name, pick(["series", "concat"]), (ref, ref), *ports)
        return components, circuit, at
    if fault == "port":
        key = pick(["output", "input"])
        circuit[i] = replace(CombinatorDecl(d.name, "feedback", (ref,), 1, 1),
                             **{key: pick([0, -1, True, False, 1.0, "1", None])})
        return components, circuit, f"{at}.{key}"
    if fault == "dangling":
        later = [e.name for e in circuit[i:]]
        j = int(rng.integers(len(d.operands)))
        refs = list(d.operands)
        refs[j] = pick(["ghost"] + later)
        circuit[i] = replace(d, operands=tuple(refs))
        return components, circuit, f"{at}.of[{j}]"
    if fault == "no-components":
        return [], [], "document.components"
    assert fault == "no-model"
    return components + [ComponentDecl("spare", "identity", 1)], [], "document.circuit"


def test_hand_built_netlists_hold_to_the_netlist_rule():
    rng = np.random.default_rng(25)
    for n in range(300):
        nl = _random_netlist(rng)
        # a netlist without faults is a fixed point of the text format
        assert parse_netlist(serialize_netlist(nl)) == nl
        components, circuit, location = _with_one_fault(rng, nl, FAULTS[n % len(FAULTS)])
        with pytest.raises(NetlistError) as info:
            Netlist(components, circuit)
        assert info.value.location == location, (FAULTS[n % len(FAULTS)], components, circuit)
