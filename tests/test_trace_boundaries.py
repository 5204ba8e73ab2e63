"""The traced benchmark run (perfbench/tracing.py) wraps sloccsim names by
module and attribute. These checks read its tables without installing any
wrapper, so a dropped import or a renamed suite fails here, not only in
the slow benchmark smoke tests."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
SRC = ROOT / "src" / "sloccsim"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_resolves(tracing):
    for site, attr, _ in tracing.BOUNDARIES:
        module = importlib.import_module(f"sloccsim.{site}")
        assert callable(getattr(module, attr, None)), f"sloccsim.{site}.{attr}"


def test_selfcheck_suites_match_the_traced_list(tracing):
    from sloccsim import selfcheck

    suites = [attr for attr in dir(selfcheck)
              if attr.startswith(tracing.SUITE_PREFIX)
              and callable(getattr(selfcheck, attr))]
    assert len(suites) == len(tracing.SUITES)
    names = [result.name for result in selfcheck.run_selfcheck(n=10, seed=3)]
    assert names == list(tracing.SUITES)


def _unused_imports(path: Path) -> set[str]:
    """Names a module imports (outside __future__) and never references."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0]
                            for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_every_unused_import_is_a_traced_boundary(tracing):
    """The package has no linter: an import that no code references must be
    one the traced run wraps. Once BOUNDARIES drops a pair, this names the
    import to delete."""
    pinned = {(site, attr) for site, attr, _ in tracing.BOUNDARIES}
    unused = {(path.stem, name) for path in sorted(SRC.glob("*.py"))
              if path.stem != "__init__" for name in _unused_imports(path)}
    assert unused <= pinned, sorted(unused - pinned)


def _unreferenced_private_definitions(path: Path) -> set[str]:
    """Module-level _private functions and classes a module never names."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))
               and node.name.startswith("_") and not node.name.endswith("__")}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return defined - used


def test_every_private_definition_is_referenced_in_its_module():
    """A _private helper is its module's own: once no code there calls it,
    this names it for deletion (tests reach helpers, not the reverse)."""
    unreferenced = {(path.stem, name) for path in sorted(SRC.glob("*.py"))
                    for name in _unreferenced_private_definitions(path)}
    assert unreferenced == set(), sorted(unreferenced)


def _callers(path: Path, callee: str) -> set[str]:
    """Names of a module's top-level definitions whose body, nested
    functions included, calls callee by name or as an attribute; "<module>"
    for a call in other top-level code."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {getattr(node, "name", "<module>") for node in tree.body
            if any(isinstance(call, ast.Call)
                   and callee in (getattr(call.func, "id", None),
                                  getattr(call.func, "attr", None))
                   for call in ast.walk(node))}


def test_one_reduction_of_random_draws():
    """check reduces its draws to a verdict by one rule: only
    selfcheck._reduce_draws calls draw_instances, so a second verdict loop
    (one that could drop a NaN, say) cannot come back."""
    callers = {(path.stem, name) for path in sorted(SRC.glob("*.py"))
               for name in _callers(path, "draw_instances")}
    assert callers == {("selfcheck", "_reduce_draws")}
