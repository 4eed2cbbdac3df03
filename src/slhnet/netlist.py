"""Plain-text netlists for circuit models.

A netlist is a small YAML document declaring primitive components and the
combinators that wire them together:

    version: 1
    components:
      - {name: ph, kind: phase, phi: pi}
      - {name: rest, kind: identity, ports: 1}
      - {name: b1, kind: beamsplitter, theta: pi/4}
      - {name: b2, kind: beamsplitter, theta: -pi/4}
    circuit:
      - {name: inner, op: concat, of: [ph, rest]}
      - {name: switch, op: series, of: [b2, inner, b1]}

Component kinds are ``phase``, ``beamsplitter``, ``drive`` and
``identity``; each kind is one row of the ``_KINDS`` table: its parameter
key and the functions that parse, format and build it.  Combinator ops are
``series`` (n-ary, leftmost operand acts last), ``concat`` (n-ary, first
operand owns the first ports) and ``feedback`` (one operand plus
``output``/``input`` port numbers).  The model denoted by the document is
the last ``circuit`` entry, or the sole declared component when
``circuit`` is empty or absent.

Angles are radians.  Rational multiples of pi keep the exact symbolic
spelling ``pi``, ``-pi/4``, ``3pi/4`` through parse/serialize round trips,
so binary control phases survive I/O bit-exactly; everything else is
serialized with ``repr`` which round-trips IEEE doubles.  Serialization is
deterministic and ``parse -> serialize`` is idempotent after one pass.

libyaml (``CSafeLoader``) parses the document, so PyYAML must be built with
its libyaml binding.  A plain document is built straight from libyaml's
node tree; one with aliases, other tags or merge keys goes through PyYAML's
safe constructor.  Either way the values and errors are PyYAML's: scalars
follow its YAML 1.1 rules and no arbitrary Python object can be built.
"""

from __future__ import annotations

import functools
import math
import re
from collections import namedtuple
from dataclasses import dataclass

import yaml
from yaml import CSafeLoader

from .core import CircuitError, SingularLoopError, SlhModel, concat, feedback, identity, series
from .components import beamsplitter, coherent_drive, phase_shift

__all__ = [
    "ComponentDecl",
    "CombinatorDecl",
    "Netlist",
    "NetlistError",
    "elaborate",
    "format_angle",
    "parse_angle",
    "parse_netlist",
    "serialize_netlist",
]

NETLIST_VERSION = 1

# symbolic angle token: optional sign, optional integer multiple, pi,
# optional integer divisor
_ANGLE_RE = re.compile(r"^([+-]?)(\d+)?pi(?:/(\d+))?$")

# divisors worth a symbolic spelling on output
_NICE_DENOMINATORS = (1, 2, 3, 4, 6, 8, 12)

# names must survive the flow-style emitter unquoted
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_-]*$")

_STR, _SEQ, _MAP = (f"tag:yaml.org,2002:{t}" for t in ("str", "seq", "map"))
# scalar tags whose PyYAML constructors read nothing but the node
_SCALARS = frozenset(f"tag:yaml.org,2002:{t}" for t in ("int", "float", "bool", "null"))


class NetlistError(CircuitError, ValueError):
    """Malformed or unresolvable netlist; ``location`` points at the node."""

    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}")


def parse_angle(token, location: str = "angle") -> float:
    """Angle from a YAML scalar: number, ``pi`` token, or numeric string."""
    if isinstance(token, bool):
        raise NetlistError(location, f"expected an angle, got {token!r}")
    if isinstance(token, (int, float)):
        value = float(token)
    elif isinstance(token, str):
        m = _ANGLE_RE.match(token.strip())
        if m:
            sign = -1.0 if m.group(1) == "-" else 1.0
            num = int(m.group(2)) if m.group(2) else 1
            den = int(m.group(3)) if m.group(3) else 1
            if den == 0:
                raise NetlistError(location, f"zero divisor in angle {token!r}")
            value = sign * (num * math.pi / den)
        else:
            try:
                value = float(token)
            except ValueError:
                raise NetlistError(
                    location, f"cannot parse angle {token!r}"
                ) from None
    else:
        raise NetlistError(location, f"expected an angle, got {token!r}")
    if not math.isfinite(value):  # NetlistError, not _check_finite: CLI tests pin it
        raise NetlistError(location, f"angle must be finite, got {token!r}")
    return value


def format_angle(x: float) -> str:
    """Shortest faithful spelling of an angle.

    Tries ``k*pi/d`` for small d, accepting a spelling only when re-parsing
    it reproduces the exact same float; falls back to ``repr``.
    """
    x = float(x)
    if x == 0.0:
        return "0"
    for den in _NICE_DENOMINATORS:
        k = round(x * den / math.pi)
        if k != 0 and k * math.pi / den == x:
            sign = "-" if k < 0 else ""
            mag = abs(k)
            head = "pi" if mag == 1 else f"{mag}pi"
            tail = "" if den == 1 else f"/{den}"
            return f"{sign}{head}{tail}"
    return repr(x)


def _parse_ports(ports, location: str) -> int:
    if isinstance(ports, bool) or not isinstance(ports, int) or ports < 1:
        field = location.rsplit(".", 1)[-1]
        raise NetlistError(location, f"{field} must be a positive integer, got {ports!r}")
    return ports


def _parse_amplitudes(raw, location: str) -> tuple:
    if not isinstance(raw, list) or not raw:
        raise NetlistError(location, "amplitudes must be a nonempty list")
    amps = []
    for j, entry in enumerate(raw):
        where = f"{location}[{j}]"
        if isinstance(entry, list):
            if len(entry) != 2:
                raise NetlistError(where, "complex amplitude needs [re, im]")
            amps.append(complex(parse_angle(entry[0], where), parse_angle(entry[1], where)))
        else:
            amps.append(complex(parse_angle(entry, where), 0.0))
    return tuple(amps)


def _format_amplitudes(amps) -> str:
    return "[" + ", ".join(
        f"[{format_angle(z.real)}, {format_angle(z.imag)}]" for z in amps) + "]"


_Kind = namedtuple("_Kind", "key parse format build")

# one row per component kind, in the order the "unknown kind" message lists
_KINDS = {
    "phase": _Kind("phi", parse_angle, format_angle, phase_shift),
    "beamsplitter": _Kind("theta", parse_angle, format_angle, beamsplitter),
    "drive": _Kind("amplitudes", _parse_amplitudes, _format_amplitudes, coherent_drive),
    "identity": _Kind("ports", _parse_ports, str, identity),
}
_OPS = {"series": series, "concat": concat, "feedback": feedback}


@dataclass(frozen=True)
class ComponentDecl:
    """One primitive declaration; ``value`` holds the kind's parameter:
    phi / theta (float), ports (int), or a tuple of complex amplitudes."""

    name: str
    kind: str
    value: object
    # a primitive refers to no other entry; not a dataclass field
    operands = ()

    def build(self) -> SlhModel:
        return _KINDS[self.kind].build(self.value)


@dataclass(frozen=True)
class CombinatorDecl:
    name: str
    op: str
    operands: tuple
    output: int = 0
    input: int = 0


@dataclass(frozen=True)
class Netlist:
    components: tuple = ()
    circuit: tuple = ()


def _require_map(node, location: str) -> dict:
    if not isinstance(node, dict):
        raise NetlistError(location, f"expected a mapping, got {type(node).__name__}")
    return node


def _take(node: dict, key: str, location: str):
    if key not in node:
        raise NetlistError(location, f"missing required key {key!r}")
    return node[key]


def _check_keys(node: dict, allowed, location: str):
    # strings in their own order, then other keys by spelling: mixed types do not compare
    extra = sorted(set(node) - set(allowed), key=lambda k: (not isinstance(k, str), str(k)))
    if extra:
        raise NetlistError(location, f"unknown keys {extra}")


def _parse_name(node: dict, location: str) -> str:
    name = _take(node, "name", location)
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise NetlistError(
            location,
            f"name must match {_NAME_RE.pattern!r}, got {name!r}",
        )
    return name


def _parse_component(node, location: str) -> ComponentDecl:
    node = _require_map(node, location)
    name = _parse_name(node, location)
    kind = _take(node, "kind", location)
    # a YAML list or mapping is unhashable, so test the type before the table
    if not isinstance(kind, str) or kind not in _KINDS:
        raise NetlistError(location, f"unknown kind {kind!r} (expected one of {tuple(_KINDS)})")
    row = _KINDS[kind]
    _check_keys(node, ("name", "kind", row.key), location)
    value = row.parse(_take(node, row.key, location), f"{location}.{row.key}")
    return ComponentDecl(name, kind, value)


def _parse_combinator(node, location: str) -> CombinatorDecl:
    node = _require_map(node, location)
    name = _parse_name(node, location)
    op = _take(node, "op", location)
    if not isinstance(op, str) or op not in _OPS:
        raise NetlistError(location, f"unknown op {op!r} (expected one of {tuple(_OPS)})")
    operands = _take(node, "of", location)
    if not isinstance(operands, list) or not all(
        isinstance(x, str) and x for x in operands
    ):
        raise NetlistError(f"{location}.of", "operands must be a list of names")
    if op == "feedback":
        _check_keys(node, ("name", "op", "of", "output", "input"), location)
        if len(operands) != 1:
            raise NetlistError(
                f"{location}.of", f"feedback takes exactly one operand, got {len(operands)}"
            )
        ports = [_parse_ports(_take(node, key, location), f"{location}.{key}")
                 for key in ("output", "input")]
        return CombinatorDecl(name, op, tuple(operands), *ports)
    _check_keys(node, ("name", "op", "of"), location)
    if len(operands) < 2:
        raise NetlistError(
            f"{location}.of", f"{op} needs at least two operands, got {len(operands)}"
        )
    return CombinatorDecl(name, op, tuple(operands))


def _build(node, loader):
    tag = node.tag
    if node.id == "scalar":
        if tag == _STR:
            return node.value
        if tag in _SCALARS:
            return loader.yaml_constructors[tag](loader, node)
    elif node.id == "sequence" and tag == _SEQ:
        return [_build(item, loader) for item in node.value]
    elif node.id == "mapping" and tag == _MAP:
        # a collection key builds unhashable and falls back like the rest
        return {_build(key, loader): _build(value, loader) for key, value in node.value}
    raise LookupError(f"no direct build for {tag}")


def _load(text: str):
    """``yaml.load(text, Loader=CSafeLoader)``, alias-free documents built directly."""
    loader = CSafeLoader(text)
    try:
        root = loader.get_single_node()
        if root is None:
            return None
        if "*" not in text:  # no alias, so no node appears twice
            try:
                return _build(root, loader)
            except Exception:
                # PyYAML fills nested mappings breadth-first, so even a bad
                # value is rebuilt there, for PyYAML to name its first error
                pass
        try:
            return loader.construct_document(root)
        except Exception as exc:
            if not isinstance(exc, yaml.YAMLError):
                # yaml.load raises the constructor's plain error as it is; it carries
                # a YAML one at the failing node, the last left in recursive_objects
                node = next(reversed(loader.recursive_objects), root)
                problem = f"bad {node.tag} value ({type(exc).__name__}: {exc})"
                exc.yaml_error = yaml.MarkedYAMLError(None, None, problem, node.start_mark)
            raise
    finally:
        loader.dispose()


def parse_netlist(text: str) -> Netlist:
    try:
        doc = _load(text)
    except Exception as exc:
        error = exc if isinstance(exc, yaml.YAMLError) else getattr(exc, "yaml_error", None)
        if error is None:
            raise
        raise NetlistError("document", f"not valid YAML: {error}") from None
    doc = _require_map(doc, "document")
    _check_keys(doc, ("version", "components", "circuit"), "document")
    version = _take(doc, "version", "document")
    if version != NETLIST_VERSION:
        raise NetlistError(
            "document.version", f"unsupported version {version!r} (expected {NETLIST_VERSION})"
        )
    raw = {key: doc.get(key) or [] for key in ("components", "circuit")}
    for key, entries in raw.items():
        if not isinstance(entries, list):
            raise NetlistError(f"document.{key}", f"{key} must be a list")
    seen = set()
    decls = {key: [] for key in raw}
    for key, parse in (("components", _parse_component), ("circuit", _parse_combinator)):
        for i, node in enumerate(raw[key]):
            decl = parse(node, f"{key}[{i}]")
            if decl.name in seen:
                raise NetlistError(f"{key}[{i}]", f"duplicate name {decl.name!r}")
            for j, ref in enumerate(decl.operands):
                if ref not in seen:
                    raise NetlistError(f"{key}[{i}].of[{j}]", f"unresolved reference {ref!r}")
            seen.add(decl.name)
            decls[key].append(decl)
    components, circuit = decls["components"], decls["circuit"]
    if not components:
        raise NetlistError("document.components", "at least one component is required")
    if not circuit and len(components) != 1:
        raise NetlistError(
            "document.circuit",
            "an empty circuit needs exactly one component to denote the model",
        )
    return Netlist(tuple(components), tuple(circuit))


def serialize_netlist(nl: Netlist) -> str:
    """Deterministic canonical YAML for a netlist (fixed key order,
    flow-style entries, symbolic angles preserved)."""
    lines = [f"version: {NETLIST_VERSION}", "components:"]
    for c in nl.components:
        row = _KINDS[c.kind]
        lines.append(f"  - {{name: {c.name}, kind: {c.kind}, {row.key}: {row.format(c.value)}}}")
    if nl.circuit:
        lines.append("circuit:")
        for d in nl.circuit:
            refs = ", ".join(d.operands)
            entry = f"  - {{name: {d.name}, op: {d.op}, of: [{refs}]"
            if d.op == "feedback":
                entry += f", output: {d.output}, input: {d.input}"
            lines.append(entry + "}")
    return "\n".join(lines) + "\n"


def elaborate(nl: Netlist) -> SlhModel:
    """Build the model a netlist denotes, resolving references in order."""
    built = {}
    for c in nl.components:
        built[c.name] = c.build()
    result = built[nl.components[0].name] if len(nl.components) == 1 else None
    for i, d in enumerate(nl.circuit):
        location = f"circuit[{i}]"
        parts = [built[ref] for ref in d.operands]
        try:
            if d.op == "feedback":
                model = feedback(parts[0], d.output, d.input)
            else:
                model = functools.reduce(_OPS[d.op], parts)
        except SingularLoopError as exc:
            # keeps its type, so the CLI exits 3 (numerical domain), not 2
            raise SingularLoopError(exc.k, exc.l, exc.s_kl, f"{location}: {exc}") from exc
        except CircuitError as exc:
            raise NetlistError(location, str(exc)) from exc
        built[d.name] = model
        result = model
    if result is None:
        raise NetlistError(
            "document.circuit",
            "an empty circuit needs exactly one component to denote the model",
        )
    return result
