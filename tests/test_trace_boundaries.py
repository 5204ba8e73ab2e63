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
