"""The benchmark scripts under perfbench/ drive the program through rotsynth
names they import, module attributes they read, and calls they make.  This
test parses those scripts (it runs none of them) and checks that every such
name still exists and every such call still binds to its signature, so a
change to src/ that would break the benchmark fails here in milliseconds
rather than only in the slow smoke run.  The tracer's call points are looked
up by string and are optional by design; they are not checked.
"""
import ast
import importlib
import inspect
import pathlib
from types import ModuleType

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
SCRIPTS = sorted(PERFBENCH.glob("*.py"))


def _import_from(module: str, name: str):
    parent = importlib.import_module(module)
    if hasattr(parent, name):
        return getattr(parent, name)
    return importlib.import_module(f"{module}.{name}")


def _bindings(tree: ast.AST, problems: list[str]) -> dict[str, object]:
    """Local name -> rotsynth object for every rotsynth import in the file."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] != "rotsynth":
                    continue
                try:
                    module = importlib.import_module(alias.name)
                except ImportError as exc:
                    problems.append(f"line {node.lineno}: import {alias.name}: {exc}")
                    continue
                if alias.asname:
                    bound[alias.asname] = module
                else:
                    bound["rotsynth"] = importlib.import_module("rotsynth")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rotsynth":
            for alias in node.names:
                try:
                    bound[alias.asname or alias.name] = _import_from(node.module, alias.name)
                except ImportError:
                    problems.append(f"line {node.lineno}: from {node.module} import {alias.name}")
    return bound


def _resolve(node: ast.AST, bound: dict[str, object]):
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        module = bound.get(node.value.id)
        if isinstance(module, ModuleType):
            return getattr(module, node.attr, None)
    return None


def contract_problems(source: str) -> list[str]:
    tree = ast.parse(source)
    problems: list[str] = []
    bound = _bindings(tree, problems)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = bound.get(node.value.id)
            if isinstance(module, ModuleType) and not hasattr(module, node.attr):
                problems.append(f"line {node.lineno}: {node.value.id}.{node.attr} is gone")
        elif isinstance(node, ast.Call):
            fn = _resolve(node.func, bound)
            if not callable(fn) or isinstance(fn, ModuleType):
                continue
            if any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords):
                continue
            try:
                inspect.signature(fn).bind(*node.args, **{k.arg: None for k in node.keywords})
            except TypeError as exc:
                problems.append(f"line {node.lineno}: call to {ast.unparse(node.func)}: {exc}")
    return problems


def test_perfbench_scripts_found():
    assert {p.name for p in SCRIPTS} >= {"run.py", "workloads.py", "micro.py", "setup_child.py"}


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_perfbench_uses_only_existing_names(script):
    assert contract_problems(script.read_text()) == []


@pytest.mark.parametrize(
    "source,problem",
    [
        ("from rotsynth.synthesis import apply_random_rotation", "import apply_random_rotation"),
        ("from rotsynth import synthesis\nsynthesis.angle_to_operator_distance(1.0)", "is gone"),
        ("import rotsynth.no_such_module", "import rotsynth.no_such_module"),
        ("from rotsynth import synthesis\nsynthesis.SynthesisConfig(epsilon=1.0, master_seed=3)", "master_seed"),
        ("from rotsynth.synthesis import synthesize\nsynthesize(1.0, None)", "missing"),
    ],
)
def test_contract_check_catches_breakage(source, problem):
    problems = contract_problems(source)
    assert len(problems) == 1 and problem in problems[0], problems
