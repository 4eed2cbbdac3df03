"""The benchmark harness's own tables and checks, read in process.

No child process and no timing: ``perfbench/run.py`` is read with ``ast``,
because importing it pins the BLAS thread count in ``os.environ``, and
``perfbench/workloads.py`` is imported for its CLI table and output check.
"""

import ast
import hashlib
import json
import sys
from pathlib import Path

import pytest

import slhnet
from slhnet import verify
from slhnet.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the pinned commands that do no floating-point arithmetic, so their bytes
# do not follow the CPU's SIMD level or BLAS kernel
EXACT_COMMANDS = ("compile", "compile-matrix", "netlist-print", "bad-bits", "sweep-phi-0",
                  "netlist-singular")


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))  # workloads.py imports netlists.py beside it
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


@pytest.fixture
def cli(workloads, tmp_path):
    return workloads.CliWorkload(slhnet, 1, str(tmp_path))


def _verify_checks() -> dict:
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["VERIFY_CHECKS"]]
    return ast.literal_eval(value)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_verify_checks_map_each_battery_check_in_run_all_order(monkeypatch):
    checks = {name: fn for name, fn in vars(verify).items()
              if name.startswith("_check_") and getattr(fn, "__module__", None) == verify.__name__}
    calls = []
    for name, fn in checks.items():
        def spy(*args, _name=name, _fn=fn):
            result = _fn(*args)
            calls.append((_name, result.name))
            return result
        monkeypatch.setattr(verify, name, spy)
    verify.run_all(seed=1, exhaustive_n=1, compositions=1, grid=1)
    assert sorted(name for name, _ in calls) == sorted(checks)
    assert list(_verify_checks().items()) == calls


def test_pinned_outputs_are_exactly_the_cli_cycle(workloads):
    names = [name for name, _ in workloads.CLI_CYCLE]
    assert len(set(names)) == len(names)
    pinned = json.loads((PERFBENCH / "cli_expected.json").read_text())
    assert sorted(pinned) == sorted(names)


def test_cli_check_on_canned_outputs(cli, tmp_path):
    cli.expected = {"compile": {"exit": 0, "stdout_sha256": _sha256(b"canned\n")},
                    "sweep": {"exit": 0, "stdout_sha256": _sha256(b"head\nrow\n")}}
    assert cli.check("compile", 0, b"canned\n") == (False, None)
    assert cli.check("compile", 0, b"other\n") == (
        True, "compile: stdout differs from the captured output")
    assert cli.check("compile", 1, b"canned\n") == (True, "compile: exit 1, documented 0")
    # the sweep's CSV file is hashed after its stdout, then removed
    assert cli.check("sweep", 0, b"head\n") == (True, "sweep: wrote no CSV file")
    csv = tmp_path / "sweep.csv"
    csv.write_bytes(b"row\n")
    assert cli.check("sweep", 0, b"head\n") == (False, None)
    assert not csv.exists()
    csv.write_bytes(b"other\n")
    assert cli.check("sweep", 0, b"head\n") == (
        True, "sweep: stdout differs from the captured output")


@pytest.mark.parametrize("name", EXACT_COMMANDS)
def test_cli_in_process_reproduces_the_pinned_output(workloads, cli, tmp_path, monkeypatch,
                                                    capsys, name):
    argv = dict(workloads.CLI_CYCLE)[name]
    monkeypatch.chdir(tmp_path)  # beside the netlists the workload wrote
    code = main(list(argv))
    stdout = capsys.readouterr().out.encode()
    assert cli.check(name, code, stdout) == (False, None)
