"""The package API that the benchmark under perfbench/ binds by name.

perfbench/tracer.py wraps ``(module, name)`` pairs and perfbench/workloads.py
calls ``jjtls.<name>``; a deletion in the package that one of them still
names would only show when the benchmark runs.  Both files are read here,
never modified.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import jjtls

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
FIXTURES = PERFBENCH.parent / "fixtures"


def load_tracer():
    """perfbench/tracer.py as a module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracer",
                                                  PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_targets_resolve():
    tracer = load_tracer()
    missing = [f"{mod}.{name}" for mod, name, _ in tracer.TARGETS
               if not callable(getattr(importlib.import_module(mod), name, None))]
    assert not missing, f"perfbench/tracer.py traces missing functions: {missing}"


def _arguments_read(node: ast.AST) -> set[str]:
    """Names read as ``<bound>.arguments["name"]`` or ``.arguments.get("name")``."""
    names = set()
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Attribute)
                and sub.value.attr == "arguments"):
            key = sub.slice
        elif (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
              and sub.func.attr == "get" and isinstance(sub.func.value, ast.Attribute)
              and sub.func.value.attr == "arguments" and sub.args):
            key = sub.args[0]
        else:
            continue
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            names.add(key.value)
    return names


def test_tracer_facts_read_existing_parameters():
    # FACTS reads a traced call's arguments by name; a renamed parameter
    # would only fail inside a traced benchmark run
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    facts = next(n.value for n in tree.body if isinstance(n, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "FACTS" for t in n.targets))
    targets = {span: (mod, name) for mod, name, span in ast.literal_eval(next(
        n.value for n in tree.body if isinstance(n, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in n.targets)))}
    read = {}
    for key, value in zip(facts.keys, facts.values):
        body = defs[value.id] if isinstance(value, ast.Name) else value
        read[ast.literal_eval(key)] = _arguments_read(body)
    assert set().union(*read.values()) >= {"text", "init", "ensemble_size"}
    missing = []
    for span, names in read.items():
        mod, name = targets[span]
        params = inspect.signature(getattr(importlib.import_module(mod), name)).parameters
        missing += [f"{mod}.{name}({n})" for n in sorted(names - set(params))]
    assert not missing, f"perfbench/tracer.py FACTS read missing parameters: {missing}"


def test_tracer_facts_run_on_real_calls(tmp_path):
    # FACTS also reads what a traced call returns, such as curve_follow's
    # .traces; the cheap targets run here under the tracer as in a traced run
    from jjtls import detector, fileio, physics

    module = load_tracer()
    tracer = module.Tracer()
    scenario = fileio.load_scenario(FIXTURES / "scenario_no_defects.json")
    with tracer.patched():
        detector.curve_follow(physics.scenario_instrument(scenario), [50.0, 50.5, 51.0],
                              10 * scenario.resonator.kappa, 201)
        fileio.write_text(tmp_path, "report_md", "ok\n")
    facts = {}
    for name, _, _, _, fact in tracer.spans:
        facts.setdefault(name, []).append(fact)
    assert facts["detector.curve_follow"] == [{"traces": 3}]
    assert facts["fileio.write"] == [{"bytes": 3}]
    assert len(facts["fitting.fit_hanger"]) >= 3
    assert all(f["returned"] and f["converged"] for f in facts["fitting.fit_hanger"])
    metrics = tracer.layer_metrics(0.0)
    assert metrics["detector.curve_follow.fits_per_trace"]["value"] >= 1
    # build_threshold's facts read only its arguments: bound, not run
    bound = inspect.signature(detector.build_threshold).bind(
        scenario.resonator, 0.005, ensemble_size=1200)
    assert module.FACTS["detector.build_threshold"](bound, None) == {"members": 2400}


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


def test_every_lazy_name_has_a_reader():
    # a public name that no stage reads and the benchmark does not bind is
    # surface without a caller: it goes, or moves to tests/_oracles.py
    tracer = ast.parse((PERFBENCH / "tracer.py").read_text())
    bound = {name for _, name, _ in ast.literal_eval(next(
        n.value for n in tracer.body if isinstance(n, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in n.targets)))}
    workloads = ast.parse((PERFBENCH / "workloads.py").read_text())
    bound |= {n.attr for n in ast.walk(workloads) if isinstance(n, ast.Attribute)
              and isinstance(n.value, ast.Name) and n.value.id == "jjtls"}
    bound |= {alias.name for n in ast.walk(workloads) if isinstance(n, ast.ImportFrom)
              and n.module and n.module.startswith("jjtls") for alias in n.names}
    src = Path(jjtls.__file__).resolve().parent
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    unread = []
    for name, module in jjtls._MODULE_OF.items():
        own = [range(n.lineno, n.end_lineno + 1) for n in trees[module].body
               if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name]
        read = any(isinstance(n, ast.Name) and n.id == name
                   and not (stem == module and any(n.lineno in r for r in own))
                   for stem, tree in trees.items() for n in ast.walk(tree))
        if not (read or name in bound):
            unread.append(f"{module}.{name}")
    assert not unread, f"public names that nothing in src/jjtls or perfbench reads: {unread}"


def _json_file(node: ast.AST, paths: dict) -> str | None:
    """The file name of ``<dir> / "name.json"`` (an f-string's fields as ``*``),
    or of a name bound to one in ``paths``."""
    if isinstance(node, ast.Name):
        return paths.get(node.id)
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)):
        return None
    if isinstance(node.right, ast.Constant) and isinstance(node.right.value, str):
        return node.right.value
    if isinstance(node.right, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else "*"
                       for v in node.right.values)
    return None


def test_checks_read_keys_of_the_schemas():
    # perfbench/checks.py reads each run's JSON records by key; a key that
    # left its schema's table would only fail inside a benchmark run
    import re
    from fnmatch import fnmatch

    from jjtls.fileio import SCHEMAS

    tree = ast.parse((PERFBENCH / "checks.py").read_text())
    read, missing = set(), []
    for func in (n for n in tree.body if isinstance(n, ast.FunctionDef)):
        paths, records = {}, {}  # name -> file name; name -> (schema, {key: type})

        def record(node):
            """(schema, {key: type}) of a read_json(...) call or a name bound to one."""
            if isinstance(node, ast.Name):
                return records.get(node.id)
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "read_json" and node.args):
                return None
            file = _json_file(node.args[0], paths)
            names = [k for k, s in SCHEMAS.items() if file and fnmatch(file, s.path)]
            if not names:
                return None
            s = SCHEMAS[names[0]]
            return names[0], dict(zip(s.keys, s.types))

        def key_of(node):
            """(schema, key, its type) of ``<record>["key"]``, checked against the table."""
            if not (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)):
                return None
            rec = record(node.value)
            if rec is None:
                return None
            name, types = rec
            read.add(name)
            if node.slice.value not in types:
                missing.append(f"{func.name}: {name}[{node.slice.value!r}]")
            return name, node.slice.value, types.get(node.slice.value, "")

        for node in ast.walk(func):  # bindings first: checks.py binds before it reads
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                target = node.targets[0].id
                if (file := _json_file(node.value, paths)) is not None:
                    paths[target] = file
                elif (rec := record(node.value)) is not None:
                    records[target] = rec
            elif isinstance(node, ast.For) and isinstance(node.target, ast.Name):
                if (found := key_of(node.iter)) and found[2].startswith("[{"):
                    # each item of a list of objects, as {key: type}
                    item = dict(re.findall(r"(\w+):([^,{}]+)", found[2]))
                    records[node.target.id] = (f"{found[0]}.{found[1]}[]", item)
        for node in ast.walk(func):
            key_of(node)
    assert not missing, f"perfbench/checks.py reads keys its schemas lack: {missing}"
    assert {"detection_meta", "calibration", "estimate", "manifest",
            "manifest.outputs[]"} <= read
