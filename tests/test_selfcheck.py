"""Tests for the check suites: reproducible worst draws, the FAIL line that
names them, and run_selfcheck's argument checks."""

import re

import numpy as np
import pytest

from sloccsim import selfcheck
from sloccsim.cli import EXIT_CHECK_FAILED, main

# suites that draw random instances, as run_selfcheck calls them
RANDOM_SUITES = ("check_eigensolver", "check_projector_difference",
                 "check_projection_consistency", "check_separated_statistics",
                 "check_incoherent_operations", "check_closed_form_reductions",
                 "check_game_bounds", "check_statistics_roles",
                 "check_povm_oracle")


@pytest.mark.parametrize("name", RANDOM_SUITES)
def test_worst_draw_reproduces_alone(name):
    suite = getattr(selfcheck, name)
    result = suite(600, 41)
    assert result.seed == 41
    assert 0 <= result.draw < 600
    again = suite(result.draw + 1, result.seed)
    assert (again.worst, again.draw) == (result.worst, result.draw)


def test_run_selfcheck_gives_each_suite_its_seed():
    results = selfcheck.run_selfcheck(n=3, seed=100)
    assert [r.seed for r in results] == [100, None, *range(102, 110)]
    assert all(r.line().endswith(")") for r in results)


def test_failing_suite_names_its_draw_and_the_draw_reproduces(capsys,
                                                              monkeypatch):
    """A Helstrom route that is off by 1e-6 * p1 fails the three suites that
    compare it with another route, the oracle campaign among them."""
    stack = selfcheck.helstrom_error_stack

    def off_by_p1(p1, p2, psi1, psi2):
        return stack(p1, p2, psi1, psi2) + 1e-6 * p1

    monkeypatch.setattr(selfcheck, "helstrom_error_stack", off_by_p1)
    assert main(["check", "--n", "300", "--seed", "9"]) == EXIT_CHECK_FAILED
    out = capsys.readouterr().out
    failed = re.findall(r"^FAIL (\w+): worst (\S+) \(tolerance \S+\) "
                        r"seed=(\d+) draw=(\d+)$", out, re.MULTILINE)
    assert [name for name, *_ in failed] == [
        "closed_form_reductions", "product_preparation_statistics_free",
        "oracle_equivalence"]
    assert out.count("PASS") == 7
    assert out.endswith("7/10 suites passed (n=300, seed=9)\n")
    suites = {"closed_form_reductions": selfcheck.check_closed_form_reductions,
              "product_preparation_statistics_free":
                  selfcheck.check_statistics_roles,
              "oracle_equivalence": selfcheck.check_povm_oracle}
    for name, worst, seed, draw in failed:
        alone = suites[name](int(draw) + 1, int(seed))
        assert not alone.passed
        assert f"{alone.worst:.3e}" == worst
        assert alone.draw == int(draw)


@pytest.fixture
def povm_nan_at_draw_5(monkeypatch):
    """selfcheck's spectral POVM route, returning NaN at draw 5 of a block."""
    stack = selfcheck.spectral_povm

    def nan_at_draw_5(priors, psi1, psi2):
        p_err, lam, pi1 = stack(priors, psi1, psi2)
        return np.where(np.arange(len(p_err)) == 5, np.nan, p_err), lam, pi1

    monkeypatch.setattr(selfcheck, "spectral_povm", nan_at_draw_5)


def test_nan_metric_fails_the_suite(povm_nan_at_draw_5):
    result = selfcheck.check_statistics_roles(20, 3)
    assert not result.passed
    assert (result.worst, result.draw) == (float("inf"), 5)


def test_nan_route_fails_the_oracle_campaign(capsys, povm_nan_at_draw_5):
    """The campaign reduces its draws by the suites' rule: a NaN route is
    the worst draw, counts as a failure and fails oracle_equivalence."""
    summary = selfcheck.run_oracle_campaign(20, 3)
    assert (summary.max_abs_disagreement, summary.worst_draw,
            summary.n_failures) == (float("inf"), 5, 1)
    assert main(["check", "--n", "20", "--seed", "3"]) == EXIT_CHECK_FAILED
    out = capsys.readouterr().out
    assert ("FAIL oracle_equivalence: worst inf (tolerance 1.0e-10) "
            "seed=12 draw=5\n") in out


def test_nan_eigenvalues_fail_the_analytic_spectra(monkeypatch):
    eigh = selfcheck.eigh
    monkeypatch.setattr(selfcheck, "eigh", lambda a: [
        pair._replace(value=float("nan")) for pair in eigh(a)])
    result = selfcheck.check_eigensolver_analytic()
    assert not result.passed
    assert result.worst == float("inf")


@pytest.mark.parametrize("kwargs, message", [
    ({"n": 0}, "n must be an integer >= 1, got 0"),
    ({"n": -3}, "n must be an integer >= 1, got -3"),
    ({"n": 2.5}, "n must be an integer >= 1, got 2.5"),
    ({"n": "10"}, "n must be an integer >= 1, got '10'"),
    ({"n": True}, "n must be an integer >= 1, got True"),
    ({"seed": -1}, "seed must be an integer >= 0, got -1"),
    ({"seed": 1.0}, "seed must be an integer >= 0, got 1.0"),
    # every random suite and the oracle campaign check through draw_instances,
    # which refuses when called, before any draw
    ({"call": "check_game_bounds", "n": 0, "seed": 1},
     "n must be an integer >= 1, got 0"),
    ({"call": "check_game_bounds", "n": -5, "seed": 1},
     "n must be an integer >= 1, got -5"),
    ({"call": "run_oracle_campaign", "n": 2.5, "seed": 1},
     "n must be an integer >= 1, got 2.5"),
    ({"call": "run_oracle_campaign", "n": 3, "seed": -1},
     "seed must be an integer >= 0, got -1"),
    ({"call": "run_oracle_campaign", "n": True, "seed": 1},
     "n must be an integer >= 1, got True"),
    ({"call": "draw_instances", "seed": 1, "n": 0, "fields": ("p1",)},
     "n must be an integer >= 1, got 0"),
])
def test_run_selfcheck_refuses_bad_arguments(kwargs, message):
    kwargs = dict(kwargs)
    call = getattr(selfcheck, kwargs.pop("call", "run_selfcheck"))
    with pytest.raises(ValueError, match=re.escape(message)):
        call(**kwargs)


def test_run_selfcheck_takes_numpy_integers():
    results = selfcheck.run_selfcheck(n=np.int64(2), seed=np.uint32(4))
    assert all(r.passed for r in results)
