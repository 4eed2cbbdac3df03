import ast
import importlib
import pathlib

import slhnet

MODULES = ("core", "components", "selector", "readout", "netlist")


def test_package_exports_each_module_all_once():
    # a name public in two modules would silently shadow one of them
    declared = [name for m in MODULES for name in importlib.import_module(f"slhnet.{m}").__all__]
    assert len(set(declared)) == len(declared)
    assert slhnet.__all__ == sorted(declared)


def test_package_names_are_the_module_objects():
    for m in MODULES:
        module = importlib.import_module(f"slhnet.{m}")
        for name in module.__all__:
            assert getattr(slhnet, name) is getattr(module, name), f"{m}.{name}"


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from slhnet import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == slhnet.__all__
    assert {"is_singular_loop", "staircase_arrays", "ComponentDecl",
            "CombinatorDecl"} <= set(namespace)


def test_values_are_frozen_by_core_alone():
    # one freeze rule: every value type stores its fields through core._freeze
    for path in sorted(pathlib.Path(slhnet.__file__).parent.glob("*.py")):
        text = path.read_text()
        assert "object.__setattr__(" not in text, path.name
        if path.name != "core.py":
            assert ".setflags(" not in text, path.name


def test_binary_inputs_have_one_reading():
    # core._check_binary_phases alone decides which control phases are on,
    # and selector bits are read without an int64 cast
    for path in sorted(pathlib.Path(slhnet.__file__).parent.glob("*.py")):
        text = path.read_text()
        if path.name != "core.py":
            assert "== math.pi" not in text, path.name
        assert "_tail_phases" not in text, path.name
        if path.name == "selector.py":
            assert "astype(np.int64" not in text


def test_matrix_products_go_through_one_helper():
    # every matrix product of the library is core._product's one @; the battery's
    # reference products in verify.py stay independent routes
    products = {"matmul", "dot", "vdot", "inner", "einsum", "tensordot"}
    helper = 0
    for path in sorted(pathlib.Path(slhnet.__file__).parent.glob("*.py")):
        if path.name == "verify.py":
            continue
        tree = ast.parse(path.read_text())
        exempt = set()
        for node in ast.walk(tree):
            if path.name == "core.py" and isinstance(node, ast.FunctionDef) and node.name == "_product":
                exempt = {id(n) for n in ast.walk(node)}
                helper = sum(isinstance(n, ast.BinOp) and isinstance(n.op, ast.MatMult)
                             for n in ast.walk(node))
        found = [node.lineno for node in ast.walk(tree) if id(node) not in exempt and (
            isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
            or isinstance(node, ast.Attribute) and node.attr in products)]
        assert found == [], path.name
    assert helper == 1


def _calls_to(tree, name):
    return [n for n in ast.walk(tree) if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Name) and n.func.id == name]


def _enclosing_functions(tree):
    """Each node's id mapped to the name of the innermost function around it."""
    owner = {}
    for fn in ast.walk(tree):  # breadth first, so an inner function overwrites its outer one
        if isinstance(fn, ast.FunctionDef):
            owner |= {id(n): fn.name for n in ast.walk(fn)}
    return owner


def test_undriven_models_have_one_builder():
    # core._model(s, None, h) alone decides what an undriven model holds: the shared
    # core._no_coupling(n) when unbatched, a zero array of its own when batched.  It
    # and SlhModel.__post_init__ alone decide whether a model is undriven, and store
    # that as the _undriven mark that series, concat and feedback read
    for path in sorted(pathlib.Path(slhnet.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = _enclosing_functions(tree)
        # no module hands _model a coupling it built in the call
        for call in _calls_to(tree, "_model"):
            assert not isinstance(call.args[1], ast.Call), (path.name, call.lineno)
        # only _model reads the shared zero
        assert [(path.name, owner.get(id(c))) for c in _calls_to(tree, "_no_coupling")] == (
            [("core.py", "_model")] if path.name == "core.py" else []), path.name
        # no model is told undriven by the identity of its coupling
        told = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Compare)
                and any(isinstance(op, (ast.Is, ast.IsNot)) for op in n.ops)
                and any(isinstance(x, ast.Attribute) and x.attr == "coupling"
                        for x in [n.left, *n.comparators])]
        assert told == [], path.name
    # in core.py, a count of nonzero entries outside _model and __post_init__ is of
    # the singular mask, never of a coupling
    tree = ast.parse((pathlib.Path(slhnet.__file__).parent / "core.py").read_text())
    owner = _enclosing_functions(tree)
    counts = [n for n in ast.walk(tree) if isinstance(n, ast.Call)
              and isinstance(n.func, ast.Attribute) and n.func.attr == "count_nonzero"]
    marks = ("_model", "__post_init__")
    assert sorted(owner[id(n)] for n in counts if owner.get(id(n)) in marks) == sorted(marks)
    elsewhere = [ast.unparse(n) for n in counts if owner.get(id(n)) not in marks]
    assert elsewhere == ["np.count_nonzero(singular)"]
