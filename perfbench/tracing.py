"""Boundary tracing for the traced benchmark run.

`install` replaces the module-level names through which one sloccsim layer
calls another (`sloccsim.discrimination.eigh`, `sloccsim.cli.run_sweep`,
`sloccsim.selfcheck.check_*`, ...) with wrappers that record a span per
call: id, parent id, the benchmark operation it belongs to, name, call
site, start, end, the exception it ended with, and a small note taken from
the result where a metric needs one (records returned, suite name, ...).
Spans stay in memory until `write_spans`; `layer_metrics` folds them into
the per-layer metrics.

A span's layer is the part of its name before the first dot. Its self time
is its duration minus the durations of its direct child spans. Calls that
stay inside one module are not wrapped, so their time is self time of the
enclosing span. Library source is never modified.
"""

from __future__ import annotations

import importlib
import itertools
import time
from collections import defaultdict
from pathlib import Path

# (importing module, attribute, span name) for every cross-layer call site.
# The call site is recorded so that, for example, eigh calls made by
# discrimination can be told apart from those made by states. Each pair
# must exist: `install` raises on a missing one, so that a renamed or
# dropped import fails the traced run instead of reading as 0 calls.
BOUNDARIES = (
    ("cli", "build_parser", "cli.build_parser"),
    ("cli", "scenario_from_dict", "cli.parse"),
    ("cli", "sweep_from_dict", "cli.parse"),
    ("cli", "preset_spec", "experiments.preset_spec"),
    ("cli", "run_sweep", "experiments.run_sweep"),
    ("cli", "run_selfcheck", "selfcheck.run_selfcheck"),
    ("cli", "optimal_povm", "discrimination.optimal_povm"),
    ("cli", "closed_form_error_product", "discrimination.closed_form"),
    ("cli", "closed_form_error_general", "discrimination.closed_form"),
    ("cli", "is_incoherent", "states.coherence"),
    ("cli", "coherence_l1", "states.coherence"),
    ("cli", "project_pure", "states.project"),
    ("cli", "project_mixed", "states.project"),
    ("cli", "project_superposition", "states.project"),
    ("cli", "project_distinguishable", "states.project"),
    ("experiments", "optimal_povm", "discrimination.optimal_povm"),
    ("experiments", "helstrom_error", "discrimination.helstrom"),
    ("experiments", "apply_phase", "discrimination.apply_phase"),
    ("experiments", "closed_form_error_product", "discrimination.closed_form"),
    ("experiments", "closed_form_error_general", "discrimination.closed_form"),
    ("experiments", "project_pure", "states.project"),
    ("selfcheck", "run_oracle_campaign", "experiments.oracle_campaign"),
    ("selfcheck", "eigh", "linalg.eigh"),
    ("selfcheck", "optimal_povm", "discrimination.optimal_povm"),
    ("selfcheck", "helstrom_error", "discrimination.helstrom"),
    ("selfcheck", "apply_phase", "discrimination.apply_phase"),
    ("selfcheck", "dephase_channel_check", "discrimination.dephase_check"),
    ("selfcheck", "closed_form_error_product", "discrimination.closed_form"),
    ("selfcheck", "closed_form_error_general", "discrimination.closed_form"),
    ("selfcheck", "closed_form_error_balanced", "discrimination.closed_form"),
    ("selfcheck", "cnot_slocc", "states.cnot"),
    ("selfcheck", "is_incoherent", "states.coherence"),
    ("selfcheck", "project_pure", "states.project"),
    ("selfcheck", "project_mixed", "states.project"),
    ("selfcheck", "project_superposition", "states.project"),
    ("selfcheck", "project_distinguishable", "states.project"),
    ("discrimination", "eigh", "linalg.eigh"),
    ("discrimination", "is_incoherent", "states.coherence"),
    ("discrimination", "project_pure", "states.project"),
    ("discrimination", "project_superposition", "states.project"),
    ("states", "eigh", "linalg.eigh"),
)

# Notes kept from a call's result, by span name. The selfcheck suites are
# named after what they test, not after their functions, so a suite span
# keeps the suite name from its result.
NOTES = {
    "cli.main": lambda code: code,
    "experiments.run_sweep": len,
    "experiments.oracle_campaign": lambda summary: (
        summary.n, summary.n_failures, summary.max_abs_disagreement),
    "selfcheck.suite": lambda result: result.name,
}
SUITE_PREFIX = "check_"
SUITES = ("eigensolver_random_hermitian", "eigensolver_analytic_spectra",
          "projector_difference_spectrum", "projection_consistency",
          "separated_particles_statistics_free", "incoherent_operations",
          "closed_form_reductions", "game_bounds_and_symmetries",
          "product_preparation_statistics_free", "oracle_equivalence")


class Recorder:
    """In-memory span store shared by every wrapper of one run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = -1
        self._stack = [-1]
        self._ids = itertools.count()

    def wrap(self, fn, name: str, site: str):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, \
            time.perf_counter
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, self.op, name, site, start,
                              end, error,
                              None if note is None or error else note(result)))

        return traced


def install(recorder: Recorder) -> list[tuple]:
    """Route every cross-layer call site through the recorder and return
    the replaced (module, attribute, function) triples for `restore`.
    Raises LookupError if a listed name or a selfcheck suite is missing."""
    targets = []
    for site, attr, span_name in BOUNDARIES:
        module = importlib.import_module(f"sloccsim.{site}")
        if not callable(getattr(module, attr, None)):
            raise LookupError(f"sloccsim.{site} has no callable {attr}; "
                              f"update tracing.BOUNDARIES")
        targets.append((module, attr, span_name, site))
    selfcheck = importlib.import_module("sloccsim.selfcheck")
    suites = [attr for attr in dir(selfcheck)
              if attr.startswith(SUITE_PREFIX)
              and callable(getattr(selfcheck, attr))]
    if len(suites) != len(SUITES):
        raise LookupError(f"sloccsim.selfcheck has {len(suites)} suites, "
                          f"tracing.SUITES lists {len(SUITES)}")
    targets += [(selfcheck, attr, "selfcheck.suite", "selfcheck")
                for attr in suites]
    replaced = []
    for module, attr, span_name, site in targets:
        original = getattr(module, attr)
        replaced.append((module, attr, original))
        setattr(module, attr, recorder.wrap(original, span_name, site))
    return replaced


def restore(replaced: list[tuple]) -> None:
    """Undo `install`."""
    for module, attr, original in replaced:
        setattr(module, attr, original)


def write_spans(recorder: Recorder, path: Path) -> None:
    """One CSV line per span: id, parent, op, name, site, start, end, error,
    and for suite spans the suite name. Times are perf_counter seconds."""
    with path.open("w", encoding="utf-8") as handle:
        handle.write("id,parent,op,name,site,start,end,error,suite\n")
        for span_id, parent, op, name, site, start, end, error, note in \
                recorder.spans:
            suite = note if name == "selfcheck.suite" else ""
            handle.write(f"{span_id},{parent},{op},{name},{site},"
                         f"{start!r},{end!r},{error or ''},{suite}\n")


def layer_metrics(recorder: Recorder) -> dict:
    """Per-layer metrics from the recorded spans, as name -> (value, unit).

    Times are totals over the traced phase in seconds, counts are totals
    over the same phase. Every suite in SUITES is reported, with 0 where it
    did not run.
    """
    child_time = defaultdict(float)
    for _, parent, _, _, _, start, end, _, _ in recorder.spans:
        child_time[parent] += end - start
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    site_calls = defaultdict(int)
    errors = defaultdict(int)
    suite_time = defaultdict(float)
    exits = defaultdict(int)
    points = draws = failures = 0
    worst = 0.0
    for span_id, _, _, name, site, start, end, error, note in recorder.spans:
        duration = end - start
        total[name] += duration
        self_time[name] += duration - child_time[span_id]
        calls[name] += 1
        site_calls[name, site] += 1
        if error is not None:
            errors[name, error] += 1
        elif name == "cli.main":
            exits[note] += 1
        elif name == "experiments.run_sweep":
            points += note
        elif name == "experiments.oracle_campaign":
            draws += note[0]
            failures += note[1]
            worst = max(worst, note[2])
        elif name == "selfcheck.suite":
            suite_time[note] += duration

    def layer_self(layer: str) -> float:
        return sum(t for name, t in self_time.items()
                   if name.split(".", 1)[0] == layer)

    unknown = set(suite_time) - set(SUITES)
    if unknown:
        raise LookupError(f"suites {sorted(unknown)} are not in "
                          f"tracing.SUITES")
    povm_calls = calls["discrimination.optimal_povm"]
    eigh_calls = calls["linalg.eigh"]
    metrics = {
        "cli.build_parser_s": (total["cli.build_parser"], "s"),
        "cli.parse_s": (total["cli.parse"], "s"),
        "cli.self_s": (layer_self("cli"), "s"),
        "cli.format_write_s": (self_time["cli.main"], "s"),
        "cli.exit_2": (exits[2], "count"),
        "cli.exit_3": (exits[3], "count"),
        "experiments.run_sweep_s": (total["experiments.run_sweep"], "s"),
        "experiments.run_sweep_self_s": (self_time["experiments.run_sweep"],
                                         "s"),
        "experiments.points": (points, "count"),
        "experiments.oracle_campaign_s": (
            total["experiments.oracle_campaign"], "s"),
        "experiments.oracle_draws": (draws, "count"),
        "experiments.oracle_failures": (failures, "count"),
        "experiments.oracle_max_disagreement": (worst, "prob"),
        "discrimination.closed_form_calls": (
            calls["discrimination.closed_form"], "count"),
        "discrimination.closed_form_s": (total["discrimination.closed_form"],
                                         "s"),
        "discrimination.optimal_povm_calls": (povm_calls, "count"),
        "discrimination.optimal_povm_s": (
            total["discrimination.optimal_povm"], "s"),
        "discrimination.optimal_povm_self_s": (
            self_time["discrimination.optimal_povm"], "s"),
        "discrimination.eigh_per_povm": (
            site_calls["linalg.eigh", "discrimination"] / povm_calls
            if povm_calls else 0.0, "ratio"),
        "states.project_calls": (calls["states.project"], "count"),
        "states.project_s": (total["states.project"], "s"),
        "states.eigh_calls": (site_calls["linalg.eigh", "states"], "count"),
        "states.vanishing": (errors["states.project", "VanishingProjection"],
                             "count"),
        "linalg.eigh_calls": (eigh_calls, "count"),
        "linalg.eigh_s": (total["linalg.eigh"], "s"),
        "linalg.eigh_us_per_call": (
            1e6 * total["linalg.eigh"] / eigh_calls if eigh_calls else 0.0,
            "us"),
        "linalg.convergence_errors": (
            errors["linalg.eigh", "ConvergenceError"], "count"),
        "trace.spans": (len(recorder.spans), "count"),
    }
    for suite in SUITES:
        metrics[f"selfcheck.{suite}_s"] = (suite_time[suite], "s")
    return metrics
