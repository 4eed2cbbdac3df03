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
``circuit`` is empty or absent.  A ``Netlist`` is valid by construction: it
checks the one netlist rule itself, so the parser only reads YAML, and
reports YAML-shape faults first, then rule faults in document order.

Angles are radians.  Rational multiples of pi keep the exact symbolic
spelling ``pi``, ``-pi/4``, ``3pi/4`` through parse/serialize round trips,
so binary control phases survive I/O bit-exactly; everything else is
serialized with ``repr`` which round-trips IEEE doubles.  Serialization is
deterministic and ``parse -> serialize`` is idempotent after one pass.

A document in the canonical form that ``serialize_netlist`` writes is read
line by line, each plain token through PyYAML's own resolver and scalar
constructors; anything else goes through libyaml (``CSafeLoader``), so
PyYAML must be built with its libyaml binding.  Either way the values and
errors are those of ``yaml.load(text, Loader=CSafeLoader)``: scalars follow
PyYAML's YAML 1.1 rules and no arbitrary Python object can be built.
"""

from __future__ import annotations

import contextlib
import functools
import math
import re
from collections import namedtuple
from dataclasses import dataclass

import yaml
from yaml import CSafeLoader, ScalarNode

from .core import (ArityError, CircuitError, DomainError, SingularLoopError, SlhModel,
                   _check_angle, _check_finite, _check_integers, _freeze, concat, feedback,
                   identity, series)
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

# divisors worth a symbolic spelling on output, all dividing 24
_NICE_DENOMINATORS = (1, 2, 3, 4, 6, 8, 12)
_TWENTY_FOUR_OVER_PI = 24 / math.pi

# names must survive the flow-style emitter unquoted
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_-]*$")

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
            try:
                num = int(m.group(2)) if m.group(2) else 1
                den = int(m.group(3)) if m.group(3) else 1
                value = sign * (num * math.pi / den)
            except ZeroDivisionError:
                raise NetlistError(location, f"zero divisor in angle {token!r}") from None
            except (OverflowError, ValueError):  # an int past the float range or int()'s digit limit
                raise NetlistError(location, f"angle {token!r} does not fit a float") from None
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
    """Symbolic spelling ``k*pi/d`` of an angle where one is faithful, else ``repr``.

    Tries small d, accepting a spelling only when re-parsing it reproduces
    the exact same float; falls back to ``repr``.  The first d that fits
    wins, so a large exact multiple keeps its ``k*pi`` spelling even where
    ``repr`` is shorter: ``format_angle(1e16) == "3183098861837907pi"``.
    """
    x = _check_angle(x, "angle")
    if x == 0.0:
        return "0"
    # every d divides 24, so a spelling k*pi/d puts q within a few ulps of the integer
    # 24k/d; farther than 1e-9 |q| from every integer, none fits (q = inf: r is NaN)
    # early repr: netlist (196 of 232 calls), op_p50_ms +2.1% without it, slower in 10/10 pairs
    q = x * _TWENTY_FOUR_OVER_PI
    r, tol = q % 1.0, 1e-9 * abs(q)
    if tol < r < 1.0 - tol:
        return repr(x)
    for den in _NICE_DENOMINATORS:
        scaled = x * den
        if not math.isfinite(scaled):  # near the float range's end; the larger d overflow too
            break
        k = round(scaled / math.pi)
        if k != 0 and k * math.pi / den == x:
            sign = "-" if k < 0 else ""
            mag = abs(k)
            head = "pi" if mag == 1 else f"{mag}pi"
            tail = "" if den == 1 else f"/{den}"
            return f"{sign}{head}{tail}"
    return repr(x)


def _parse_ports(ports, location: str) -> int:
    with contextlib.suppress(ArityError):  # core.feedback's integer rule, then >= 1
        if (n := _check_integers(location, ports)[0]) >= 1:
            return n
    field = location.rsplit(".", 1)[-1]
    raise NetlistError(location, f"{field} must be a positive integer, got {ports!r}")


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


def _check_amplitudes(amps, what: str) -> None:
    # a non-empty tuple, as _parse_amplitudes returns, of numbers coherent_drive reads
    if type(amps) is not tuple or not amps or _check_finite(amps, what, complex).ndim != 1:
        raise DomainError(f"{what} must be a non-empty tuple")


_Kind = namedtuple("_Kind", "key parse format build check rule")

# one row per component kind, in the order the "unknown kind" message lists
_ANGLE = "a single finite real"
_KINDS = {
    "phase": _Kind("phi", parse_angle, format_angle, phase_shift, _check_angle, _ANGLE),
    "beamsplitter": _Kind("theta", parse_angle, format_angle, beamsplitter, _check_angle, _ANGLE),
    "drive": _Kind("amplitudes", _parse_amplitudes, _format_amplitudes, coherent_drive,
                   _check_amplitudes, "a non-empty tuple of finite complex numbers"),
    "identity": _Kind("ports", _parse_ports, str, identity, _parse_ports, "a positive integer"),
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


@dataclass(frozen=True)
class CombinatorDecl:
    name: str
    op: str
    operands: tuple
    output: int = 0
    input: int = 0


@dataclass(frozen=True)
class Netlist:
    """Component and combinator declarations, valid by construction:
    building one runs the netlist rule and raises the parser's NetlistError
    at the first fault."""

    components: tuple = ()
    circuit: tuple = ()

    def __post_init__(self):
        for key, entries in (("components", self.components), ("circuit", self.circuit)):
            if not isinstance(entries, (list, tuple)):
                raise NetlistError(f"document.{key}",
                                   f"{key} must be a list or tuple, got {type(entries).__name__}")
        _freeze(self, components=tuple(self.components), circuit=tuple(self.circuit))
        _check_netlist(self)


def _check_netlist(nl: Netlist) -> None:
    """The netlist rule, entry by entry in document order: a declaration of the
    list's type, with a unique name matching ``_NAME_RE``, a known kind and a value it
    checks or a known op, operands and ports that fit the op, and operands naming earlier
    entries.  Then a component, and only one when ``circuit`` is empty."""
    seen = set()
    for key, cls in (("components", ComponentDecl), ("circuit", CombinatorDecl)):
        # an entry's location, f"{key}[{i}]", is formatted only for its fault
        for i, decl in enumerate(getattr(nl, key)):
            if not isinstance(decl, cls):
                raise NetlistError(f"{key}[{i}]",
                                   f"expected a {cls.__name__}, got {type(decl).__name__}")
            name = decl.name
            if not isinstance(name, str) or not _NAME_RE.match(name):
                raise NetlistError(f"{key}[{i}]",
                                   f"name must match {_NAME_RE.pattern!r}, got {name!r}")
            if cls is CombinatorDecl:
                _check_operands(decl, key, i)
            elif not (type(decl.kind) is str and decl.kind in _KINDS):
                _row(_KINDS, decl.kind, "kind", f"{key}[{i}]")
            else:
                row = _KINDS[decl.kind]
                try:
                    row.check(decl.value, row.key)
                except CircuitError:
                    raise NetlistError(f"{key}[{i}].{row.key}", f"{row.key} must be "
                                       f"{row.rule}, got {decl.value!r}") from None
            if name in seen:
                raise NetlistError(f"{key}[{i}]", f"duplicate name {name!r}")
            # the operands are names by now, so the set can hash them
            if not seen.issuperset(decl.operands):
                j, ref = next((j, ref) for j, ref in enumerate(decl.operands) if ref not in seen)
                raise NetlistError(f"{key}[{i}].of[{j}]", f"unresolved reference {ref!r}")
            seen.add(name)
    if not nl.components:
        raise NetlistError("document.components", "at least one component is required")
    if not nl.circuit and len(nl.components) != 1:
        raise NetlistError("document.circuit", "an empty circuit needs exactly one component "
                           "to denote the model")


def _check_operands(d: CombinatorDecl, key: str, i: int) -> None:
    if not (type(d.op) is str and d.op in _OPS):
        _row(_OPS, d.op, "op", f"{key}[{i}]")
    refs = d.operands
    if not isinstance(refs, tuple) or not all(isinstance(x, str) and x for x in refs):
        raise NetlistError(f"{key}[{i}].of", "operands must be a list of names")
    if d.op == "feedback":
        if len(refs) != 1:
            raise NetlistError(f"{key}[{i}].of",
                               f"feedback takes exactly one operand, got {len(refs)}")
        for port in ("output", "input"):
            _parse_ports(getattr(d, port), f"{key}[{i}].{port}")
    elif len(refs) < 2:
        raise NetlistError(f"{key}[{i}].of", f"{d.op} needs at least two operands, got {len(refs)}")
    elif (d.output, d.input) != (0, 0):
        raise NetlistError(f"{key}[{i}]",
                           f"{d.op} takes no ports, got ({d.output!r}, {d.input!r})")


def _require_map(node, location: str) -> dict:
    if not isinstance(node, dict):
        raise NetlistError(location, f"expected a mapping, got {type(node).__name__}")
    return node


def _take(node: dict, key: str, location: str):
    if key not in node:
        raise NetlistError(location, f"missing required key {key!r}")
    return node[key]


def _check_keys(node: dict, allowed, location: str):
    extra = set(node).difference(allowed)
    if extra:
        # strings in their own order, then other keys by spelling: mixed types do not compare
        extra = sorted(extra, key=lambda k: (not isinstance(k, str), str(k)))
        raise NetlistError(location, f"unknown keys {extra}")


def _row(table: dict, key, what: str, location: str):
    # a YAML list or mapping is unhashable, so test the type before the table
    if not isinstance(key, str) or key not in table:
        raise NetlistError(location, f"unknown {what} {key!r} (expected one of {tuple(table)})")
    return table[key]


def _parse_component(node, location: str) -> ComponentDecl:
    node = _require_map(node, location)
    name, kind = _take(node, "name", location), _take(node, "kind", location)
    row = _row(_KINDS, kind, "kind", location)
    # name and kind are in the node: with the value key as well and no other, none is unknown
    if len(node) != 3 or row.key not in node:
        _check_keys(node, ("name", "kind", row.key), location)
    value = row.parse(_take(node, row.key, location), f"{location}.{row.key}")
    return ComponentDecl(name, kind, value)


def _parse_combinator(node, location: str) -> CombinatorDecl:
    node = _require_map(node, location)
    name, op = _take(node, "name", location), _take(node, "op", location)
    _row(_OPS, op, "op", location)
    operands = _take(node, "of", location)
    ports = ("output", "input") if op == "feedback" else ()
    # name, op and of are in the node: with the ports as well and no other, none is unknown
    if len(node) != 3 + len(ports) or (ports and not all(map(node.__contains__, ports))):
        _check_keys(node, ("name", "op", "of", *ports), location)
    # a non-list stays as it is, for the netlist rule to refuse
    operands = tuple(operands) if isinstance(operands, list) else operands
    return CombinatorDecl(name, op, operands, *[_take(node, key, location) for key in ports])


@functools.cache
def _canonical_patterns():
    """The canonical reader's item, pair and key-line patterns, compiled on the first read,
    not at import: every command-line process imports this module."""
    t = r"[A-Za-z0-9_.+~/-]{1,1024}"
    item = rf"\[(?:{t}(?:, {t})*)?\]|{t}"
    pair = rf"({t}): ({t}|\[(?:(?:{item})(?:, (?:{item}))*)?\])"
    return re.compile(item), re.compile(pair), re.compile(rf"({t}):(?: ((?!-$){t}))?")


def _read_canonical(text: str, loader) -> dict:
    """``yaml.load`` of the canonical form: ``key: token`` and ``key:`` lines, the latter
    followed by ``  - {key: value, ...}`` entries; a value is a token or a list of tokens and
    flat lists, and a token is plain (no indicator, quote, space or line break) and short
    enough for a YAML key, resolved and built by ``loader``.  Else LookupError or ValueError."""
    item, pair, key_line = _canonical_patterns()
    # PyYAML's resolve reads a token whose first character keys no implicit resolver
    # as a str, unless a wildcard (None) or path resolver applies
    keyed = loader.yaml_implicit_resolvers
    direct = None not in keyed and not loader.yaml_path_resolvers

    @functools.cache  # equal tokens build equal values; PyYAML has one NaN object, too
    def scalar(tok):
        if direct and tok[0] not in keyed:
            return tok
        tag = loader.resolve(ScalarNode, tok, (True, False))
        kind = tag.removeprefix("tag:yaml.org,2002:")
        if kind not in ("str", "int", "float", "bool", "null"):
            raise LookupError(f"no canonical read of {tok!r}")
        return tok if kind == "str" else loader.yaml_constructors[tag](loader, ScalarNode(tag, tok))

    def build(v):  # a list token, brackets and all
        return [scalar(x) if x[0] != "[" else build(x) for x in item.findall(v, 1, len(v) - 1)]

    doc, key, entries = {}, None, None
    for line in text.removesuffix("\n").split("\n"):
        pairs = pair.findall(line, 5, len(line) - 1)
        if entries is not None and line == "  - {" + ", ".join(map(": ".join, pairs)) + "}":
            entries.append({scalar(k): scalar(v) if v[0] != "[" else build(v) for k, v in pairs})
            doc[key] = entries
            continue
        m = key_line.fullmatch(line)
        if m is None or (key := scalar(m[1])) in doc:
            raise LookupError(f"no canonical read of {line!r}")
        doc[key], entries = (scalar(m[2]), None) if m[2] else (None, [])
    return doc


def _load(text: str):
    """``yaml.load(text, Loader=CSafeLoader)``, a canonical document read line by line."""
    loader = CSafeLoader(text)
    try:
        with contextlib.suppress(LookupError, ValueError):  # PyYAML reads the rest, or refuses it
            return _read_canonical(text, loader)
        root = loader.get_single_node()
        if root is None:
            return None
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
    if not isinstance(text, str):
        raise NetlistError("document", f"expected a str, got {type(text).__name__}")
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
    if type(version) is not int or version != NETLIST_VERSION:  # a bool or float is no version
        raise NetlistError(
            "document.version", f"unsupported version {version!r} (expected {NETLIST_VERSION})"
        )
    raw = {key: doc.get(key) or [] for key in ("components", "circuit")}
    for key, entries in raw.items():
        if not isinstance(entries, list):
            raise NetlistError(f"document.{key}", f"{key} must be a list")
    return Netlist(*(tuple(parse(node, f"{key}[{i}]") for i, node in enumerate(raw[key]))
                     for key, parse in (("components", _parse_component),
                                        ("circuit", _parse_combinator))))


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
    """Build the model a netlist denotes, resolving references in order; a
    combinator's CircuitError is raised as a NetlistError at its entry."""
    built = {c.name: _KINDS[c.kind].build(c.value) for c in nl.components}
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
    return built[(nl.circuit or nl.components)[-1].name]
