import math
import random
import re

import numpy as np
import pytest
import yaml
from numpy.testing import assert_allclose

from slhnet import (
    CircuitError,
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
from slhnet.netlist import CombinatorDecl, ComponentDecl, _load

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


def test_serialize_is_deterministic():
    nl = parse_netlist(FULL_DOC)
    assert serialize_netlist(nl) == serialize_netlist(nl)
    assert serialize_netlist(Netlist(nl.components, ())).endswith("\n")


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
    monkeypatch.setattr("slhnet.netlist.CSafeLoader", yaml.SafeLoader)
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
