"""The traced benchmark run (perfbench/tracing.py) wraps sloccsim names by
module and attribute. These checks read its tables without installing any
wrapper, so a dropped import or a renamed suite fails here, not only in
the slow benchmark smoke tests."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
