"""The package keeps no state between calls: building complexes and
running the check suites leaves every module-level container and memoized
function of every ribboncoh module as it found it, and an enumeration pass
leaves no reference cycle behind.  Its surface is no larger than its
callers: the README's Library example runs against the top-level exports,
and every function and method has a caller."""
import ast
import gc
import importlib
import inspect
import pkgutil
from pathlib import Path

import ribboncoh
from ribboncoh.checks import CheckBounds, run_check
from ribboncoh.complexes import ComplexSpec, build, cohomology
from ribboncoh.enumeration import EnumSpec, enumerate_classes
from ribboncoh.gc2 import GCSpec


def _module_state():
    sizes = {}
    for info in pkgutil.iter_modules(ribboncoh.__path__, "ribboncoh."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if isinstance(value, (dict, list, set)):
                sizes[info.name, name] = len(value)
            elif hasattr(value, "cache_info"):
                sizes[info.name, name] = value.cache_info().currsize
    return sizes


def test_no_state_survives_a_call():
    before = _module_state()
    cohomology(build(ComplexSpec("mw", 0, sector="ge3", e_min=1, e_max=5)))
    cohomology(build(ComplexSpec("kp", 1, sector="ge3", e_min=2, e_max=4, boundaries=1)))
    cohomology(build(ComplexSpec("kp", 1, sector="ge3", e_min=2, e_max=5, boundaries=3)))
    cohomology(build(GCSpec(3, 0, 3, 8, 2)))
    bounds = CheckBounds(g_max=1, e_max_full=2, e_max_ge3=3, e_max_le2=3, e_max_oracle=2)
    assert run_check(bounds)["passed"]
    assert _module_state() == before


def test_enumeration_pass_leaves_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        enumerate_classes(EnumSpec(1, 2, 4, 3))
        assert gc.collect() == 0
    finally:
        gc.enable()


ROOT = Path(__file__).resolve().parent.parent

# perfbench/tracer.py wraps each of these by name, where it reads it, and
# raises if one is missing; they stay until the in-program trace replaces
# that tracer (ROADMAP item 1), though nothing in the package calls them
TRACER_PINNED = (
    ("enumeration", "is_minimal_form"),
    ("enumeration", "enumerate_cell"),
    ("diff", "project_ge3"),
    ("canonical", "to_oriented_class"),
    ("canonical", "class_of"),
)


def _library_example() -> str:
    """The fenced python block under the README's ``## Library``."""
    section = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _referenced_names(source: str) -> set:
    """Every name read or attribute accessed in source; an import alone
    is not a reference."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _definitions(source: str):
    """Module-level functions and non-dunder methods of module-level
    classes, as (qualified name, name)."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield "%s.%s" % (node.name, item.name), item.name


def test_readme_library_example_runs(capsys):
    example = _library_example()
    exec(compile(example, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3  # E = 2, 3, 4
    # the top-level package exports exactly what the example imports
    imported = {
        alias.name
        for node in ast.walk(ast.parse(example))
        if isinstance(node, ast.ImportFrom) and node.module == "ribboncoh"
        for alias in node.names
    }
    exported = {
        name
        for name, value in vars(ribboncoh).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == imported


def test_every_function_has_a_caller():
    """Every module-level function and non-dunder method under
    src/ribboncoh has its name read somewhere in src/ or scripts/ outside
    its own definition (a re-export in ``__init__`` does not count), in the
    README's Library example, or in TRACER_PINNED.

    The check is by name: a method whose name another definition shares,
    such as ``to_json`` or ``degree``, passes when any of them is called,
    so a dead copy can hide behind a live one."""
    package = ROOT / "src" / "ribboncoh"
    callers = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    callers += sorted((ROOT / "scripts").glob("*.py"))
    referenced = _referenced_names(_library_example())
    for path in callers:
        referenced |= _referenced_names(path.read_text())
    pinned = set()
    for module, name in TRACER_PINNED:
        assert hasattr(importlib.import_module("ribboncoh." + module), name)
        pinned.add(name)
    uncalled = [
        "%s.%s" % (path.stem, qualified)
        for path in sorted(package.glob("*.py"))
        for qualified, name in _definitions(path.read_text())
        if name not in referenced | pinned
    ]
    assert uncalled == []


def test_no_module_imports_dataclasses():
    # dataclasses loads inspect, about 1 MB of resident memory in every
    # run; the value classes are namedtuple subclasses instead
    found = []
    for path in sorted((ROOT / "src" / "ribboncoh").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [(path.name, name) for name in names if name.split(".")[0] == "dataclasses"]
    assert found == []
