"""The benchmark's tracer names library functions by module and attribute
path; a rename in `cdrings` must fail here rather than in a traced run."""

import ast
import importlib
from pathlib import Path

import cdrings

ROOT = Path(__file__).resolve().parents[1]


def _tracer_targets():
    """The literal `TARGETS` tuple of perfbench/tracer.py, read without
    importing the benchmark."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        names = [node.target] if isinstance(node, ast.AnnAssign) else getattr(node, "targets", [])
        if any(isinstance(name, ast.Name) and name.id == "TARGETS" for name in names):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_every_tracer_target_resolves_to_a_library_callable():
    package = Path(cdrings.__file__).resolve().parent
    targets = _tracer_targets()
    assert targets
    for group, module_name, path, _ in targets:
        module = importlib.import_module(module_name)
        assert Path(module.__file__).resolve().parent == package, module_name
        owner = module
        for part in path.split("."):
            assert hasattr(owner, part), f"{group}: {module_name}.{path}"
            owner = getattr(owner, part)
        assert callable(owner), f"{group}: {module_name}.{path}"
