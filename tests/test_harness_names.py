"""The benchmark harness and the scripts read only names the package has.

``bench/`` and ``scripts/`` reach into ``splitsolve`` by module alias
(``solver.run``), by imported name (``from splitsolve.spaces import
SpaceLayout``) and, in ``bench/spans.py``, by the class and field names
of the operator callables it wraps.  A refactor that renames or deletes
one of them would otherwise surface only when the benchmark runs; here
every such reference is parsed with ``ast`` and looked up.
"""

import ast
import dataclasses
import importlib
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
HARNESS = sorted([*ROOT.glob("bench/*.py"), *ROOT.glob("scripts/*.py")])


def _in_package(module: str) -> bool:
    return module == "splitsolve" or module.startswith("splitsolve.")


def _lookup(module: str, name: str):
    """``module.name``, a submodule included, or ``None`` when absent."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return None


def _references(path: Path):
    """``(line, dotted name, found)`` for each package name that ``path``
    reads: each name it imports from the package, and each attribute
    read through an alias bound to a package module (followed through
    submodules, as in ``ss.solver.run``)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    aliases: dict[str, types.ModuleType] = {}
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if not _in_package(alias.name):
                    continue
                if alias.asname is not None:
                    aliases[alias.asname] = importlib.import_module(alias.name)
                else:
                    # ``import splitsolve.x`` binds ``splitsolve``
                    importlib.import_module(alias.name)
                    aliases["splitsolve"] = importlib.import_module("splitsolve")
        elif isinstance(node, ast.ImportFrom) and node.module and _in_package(node.module):
            for alias in node.names:
                obj = _lookup(node.module, alias.name)
                refs.append((node.lineno, f"{node.module}.{alias.name}", obj is not None))
                if isinstance(obj, types.ModuleType):
                    aliases[alias.asname or alias.name] = obj
    parents = {id(child): parent for parent in ast.walk(tree)
               for child in ast.iter_child_nodes(parent)}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            continue
        obj, chain = aliases[node.value.id], node
        while True:
            found = hasattr(obj, chain.attr)
            refs.append((chain.lineno, f"{obj.__name__}.{chain.attr}", found))
            if not found:
                break
            obj = getattr(obj, chain.attr)
            parent = parents.get(id(chain))
            if not (isinstance(obj, types.ModuleType) and isinstance(parent, ast.Attribute)):
                break
            chain = parent
    return refs


@pytest.mark.parametrize("path", HARNESS, ids=[str(p.relative_to(ROOT)) for p in HARNESS])
def test_every_package_name_exists(path):
    missing = [f"{path.name}:{line}: {name}" for line, name, found in _references(path)
               if not found]
    assert not missing


def test_the_harness_reads_package_names():
    # the parse sees the harness's references at all
    counts = {p.name: len(_references(p)) for p in HARNESS}
    assert counts["workloads.py"] > 20 and counts["fingerprint.py"] > 20


def _spans_literal(name: str):
    """The value of the module-level assignment ``name`` in ``bench/spans.py``."""
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == name):
            return node.value
    raise AssertionError(f"bench/spans.py assigns no {name}")


def test_span_operator_fields_exist():
    operators = importlib.import_module("splitsolve.operators")
    fields = ast.literal_eval(_spans_literal("OPERATOR_FIELDS"))
    assert fields
    for cname, by_field in fields.items():
        cls = getattr(operators, cname, None)
        assert dataclasses.is_dataclass(cls), cname
        assert set(by_field) <= {f.name for f in dataclasses.fields(cls)}, cname


def test_span_layers_and_annotated_functions_exist():
    for layer in ast.literal_eval(_spans_literal("LAYERS")):
        mod = importlib.import_module(f"splitsolve.{layer}")
        assert all(hasattr(mod, name) for name in mod.__all__), layer
    for key in _spans_literal("ANNOTATORS").keys:
        layer, fname = ast.literal_eval(key).split(".")
        assert fname in importlib.import_module(f"splitsolve.{layer}").__all__, key
