"""The package API that the benchmark under perfbench/ binds by name.

perfbench/tracer.py wraps ``(module, name)`` pairs and perfbench/workloads.py
calls ``jjtls.<name>``; a deletion in the package that one of them still
names would only show when the benchmark runs.  Both files are read here,
never modified.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import jjtls

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer",
                                                  PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{mod}.{name}" for mod, name, _ in tracer.TARGETS
               if not callable(getattr(importlib.import_module(mod), name, None))]
    assert not missing, f"perfbench/tracer.py traces missing functions: {missing}"


def test_workload_calls_resolve():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    used = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "jjtls"}
    imported = {(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module
                and node.module.startswith("jjtls") for alias in node.names}
    assert used, "no jjtls.<name> calls found in perfbench/workloads.py"
    missing = sorted(name for name in used if not hasattr(jjtls, name))
    missing += sorted(f"{mod}.{name}" for mod, name in imported
                      if not hasattr(importlib.import_module(mod), name))
    assert not missing, f"perfbench/workloads.py uses missing names: {missing}"
