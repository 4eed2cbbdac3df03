"""Spans around slhnet's public functions, installed from outside the package.

``Tracer.install`` replaces every public function of every slhnet module,
and the methods of its public classes, with a timing wrapper, wherever a
module binds that function (``slhnet.verify.series`` as well as
``slhnet.core.series``), so calls between layers are seen as the caller
makes them.  The ``_check_*`` functions of ``slhnet.verify`` and
``yaml.safe_load`` are wrapped too, because the per-check and YAML-load
times are reported.  ``uninstall`` puts the originals back.

A span records name, start, end, parent and whether it raised.  Spans are
held in flat in-memory arrays and written out once, at the end of a run.
A span's self time is its duration minus the time its child spans cover;
its layer is the first component of its name (``core``, ``selector``, ...).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from array import array

import numpy as np

LAYER_MODULES = ("core", "components", "kernels", "selector", "readout",
                 "netlist", "verify", "cli")


def _slhnet_modules():
    return [importlib.import_module("slhnet")] + [
        importlib.import_module(f"slhnet.{m}") for m in LAYER_MODULES
    ]


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self._stack = [-1]
        self._patches = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._open(self._id(name))
        try:
            yield
        except BaseException:
            self.raised[i] = 1
            raise
        finally:
            self._close(i)

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.raised.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self._id(name)
        opened, closed, raised = self._open, self._close, self.raised

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = opened(nid)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[i] = 1
                raise
            finally:
                closed(i)

        return traced

    # -- installing and removing the wrappers ------------------------------

    def _targets(self):
        """The functions to wrap, as ``{id: (span name, function)}``, and the
        class attributes to patch, as ``(class, attribute, span name,
        descriptor)``."""
        import yaml

        funcs = {}      # id(original) -> (name, original)
        methods = []    # (cls, attr, span name, descriptor)
        for mod in _slhnet_modules()[1:]:
            layer = mod.__name__.rsplit(".", 1)[1]
            names = list(getattr(mod, "__all__", ()))
            if layer == "verify":
                names += [n for n in vars(mod) if n.startswith("_check_")]
            for attr in names:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj):
                    funcs.setdefault(id(obj), (f"{layer}.{attr}", obj))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for key, desc in vars(obj).items():
                        if key.startswith("__") and key != "__post_init__":
                            continue
                        if (isinstance(desc, (classmethod, staticmethod))
                                or inspect.isfunction(desc)):
                            methods.append((obj, key, f"{layer}.{attr}.{key}", desc))
        funcs[id(yaml.safe_load)] = ("netlist.yaml.safe_load", yaml.safe_load)
        return funcs, methods

    def install(self):
        if self._patches:
            return
        import yaml

        funcs, methods = self._targets()
        wrapped = {key: self.wrap(name, fn) for key, (name, fn) in funcs.items()}
        for mod in _slhnet_modules() + [yaml]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and obj is funcs[id(obj)][1]:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
        for cls, key, name, desc in methods:
            if isinstance(desc, (classmethod, staticmethod)):
                new = type(desc)(self.wrap(name, desc.__func__))
            else:
                new = self.wrap(name, desc)
            self._patches.append((cls, key, desc))
            setattr(cls, key, new)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- analysis ------------------------------------------------------------

    def arrays(self):
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=np.float64, count=n)
        end = np.frombuffer(self.end, dtype=np.float64, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        name = np.frombuffer(self.name, dtype=np.int32, count=n)
        raised = np.frombuffer(self.raised, dtype=np.int8, count=n)
        return start, end, parent, name, raised

    def summary(self) -> dict:
        """Calls, total, self time and raises per span name, and per layer."""
        start, end, parent, name, raised = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_time, minlength=k)
        errs = np.bincount(name, weights=raised, minlength=k)
        spans = {
            self.names[i]: {"calls": int(calls[i]), "total_s": float(total[i]),
                            "self_s": float(own[i]), "raised": int(errs[i])}
            for i in range(k) if calls[i]
        }
        layers = {}
        for span_name, row in spans.items():
            agg = layers.setdefault(span_name.split(".", 1)[0],
                                    {"calls": 0, "self_s": 0.0})
            agg["calls"] += row["calls"]
            agg["self_s"] += row["self_s"]
        return {"spans": spans, "layers": layers}

    def write(self, path_stem: str, report: dict):
        """Spans as a compressed ``.npz`` and the report as ``.json``."""
        start, end, parent, name, raised = self.arrays()
        np.savez_compressed(f"{path_stem}.npz", start=start, end=end,
                            parent=parent, name=name, raised=raised,
                            names=np.array(self.names))
        with open(f"{path_stem}.json", "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
