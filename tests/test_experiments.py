"""Tests for the sweep engine, figure presets and the oracle campaign."""

import ast
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import plain_records

import sloccsim
from sloccsim import experiments, selfcheck
from sloccsim.discrimination import (
    PhaseChannel,
    apply_phase,
    closed_form_error_product,
    helstrom_error,
    optimal_povm,
)
from sloccsim.experiments import (
    BLOCK_DRAWS,
    FIXED_PARAMETERS,
    SQRT_HALF,
    OracleCampaignSummary,
    SweepAxis,
    SweepSpec,
    draw_instances,
    preset_spec,
    run_oracle_campaign,
    run_sweep,
)
from sloccsim.linalg import hermiticity_defect
from sloccsim.states import (
    MixedDiagonal,
    OverlapAmplitudes,
    PureProduct,
    SpinLabel,
    SpinSuperposition,
    Statistics,
    project_pure,
)

PI = math.pi


# ---------------------------------------------------------------------------
# spec validation


def test_axis_rejects_single_point():
    with pytest.raises(ValueError, match="at least 2 points"):
        SweepAxis("phi12", 0.0, 1.0, 1)


def test_axis_rejects_inverted_range():
    with pytest.raises(ValueError, match="lo < hi"):
        SweepAxis("phi12", 1.0, 1.0, 10)


def test_axis_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown axis"):
        SweepAxis("temperature", 0.0, 1.0, 10)


def test_spec_rejects_unknown_fixed_key():
    with pytest.raises(ValueError, match="unknown fixed"):
        SweepSpec(figure="custom",
                  grid=(SweepAxis("phi12", 0, 1, 3),),
                  fixed=dict(mode="product", p1=0.5, l=1.0, r=0.0, l_prime=0.0,
                             r_prime=1.0, omega=(0, 1, 0, 0), colour="blue"))


def test_spec_rejects_missing_parameters():
    with pytest.raises(ValueError, match="missing sweep parameters"):
        SweepSpec(figure="custom",
                  grid=(SweepAxis("phi12", 0, 1, 3),),
                  fixed=dict(mode="product", p1=0.5))


@pytest.mark.parametrize("mode", ["product", "superposition"])
def test_spec_requires_exactly_the_parameters_of_its_mode(mode):
    """A product sweep takes every FIXED_PARAMETERS key but the
    superposition-only ones, a superposition sweep takes all of them, and
    each, fixed or swept, is required."""
    fixed = dict(mode=mode, p1=0.5, phi12=1.0, l=0.6, r=0.0, l_prime=0.0,
                 r_prime=0.6, omega=(0, 1, 0, 0), up_amp=0.6, down_amp=0.8)
    assert set(fixed) == set(FIXED_PARAMETERS)
    taken = {key for key, (_, superposition_only) in FIXED_PARAMETERS.items()
             if mode == "superposition" or not superposition_only}
    grid = (SweepAxis("omega_dd", 0, 1, 3),)
    SweepSpec(figure="custom", grid=grid,
              fixed={key: fixed[key] for key in taken})
    for key in taken - {"mode"}:
        with pytest.raises(ValueError, match=re.escape(
                f"missing sweep parameters: ['{key}']")):
            SweepSpec(figure="custom", grid=grid,
                      fixed={k: fixed[k] for k in taken - {key}})
    for key in set(FIXED_PARAMETERS) - taken:
        with pytest.raises(ValueError, match=re.escape(
                f"unknown fixed parameters: ['{key}']")):
            SweepSpec(figure="custom", grid=grid,
                      fixed={k: fixed[k] for k in taken | {key}})
    if mode == "product":
        assert set(FIXED_PARAMETERS) - taken == {"up_amp", "down_amp"}


def test_spec_rejects_duplicate_axes():
    with pytest.raises(ValueError, match="duplicate"):
        SweepSpec(figure="custom",
                  grid=(SweepAxis("phi12", 0, 1, 3), SweepAxis("phi12", 0, 2, 3)),
                  fixed=dict(mode="product", p1=0.5, l=1.0, r=0.0, l_prime=0.0,
                             r_prime=1.0, omega=(0, 1, 0, 0)))


def test_spec_rejects_bad_mode():
    with pytest.raises(ValueError, match="mode"):
        SweepSpec(figure="custom", grid=(SweepAxis("phi12", 0, 1, 3),),
                  fixed=dict(mode="thermal"))


# run_sweep reads the priors and the preparation straight from the fixed
# parameters, so SweepSpec alone must refuse a game that is not valid.
@pytest.mark.parametrize("change, message", [
    (dict(p1=1.5), "priors must be nonnegative"),
    (dict(p1=math.nan), "channel parameters must be finite"),
    (dict(l=1.0, r=0.5), r"\|l\|\^2 \+ \|r\|\^2"),
    (dict(mode="superposition", up_amp=0.6, down_amp=0.6),
     "must equal 1"),
])
def test_spec_rejects_invalid_fixed_game(change, message):
    fixed = dict(mode="product", p1=0.5, l=0.6, r=0.0, l_prime=0.0,
                 r_prime=0.6, omega=(0, 1, 0, 0))
    with pytest.raises(ValueError, match=message):
        SweepSpec(figure="custom", grid=(SweepAxis("phi12", 0, 1, 3),),
                  fixed={**fixed, **change})


# ---------------------------------------------------------------------------
# fig3a


@pytest.fixture(scope="module")
def fig3a_records():
    return list(plain_records(run_sweep(preset_spec("fig3a"))))


def test_fig3a_row_count(fig3a_records):
    assert len(fig3a_records) == 361


def test_fig3a_zero_error_at_pi(fig3a_records):
    by_phi = {round(rec.coordinates["phi12"], 12): rec for rec in fig3a_records}
    at_pi = by_phi[round(PI, 12)]
    assert at_pi.p_err_overlap <= 1e-10


def test_fig3a_baseline_constant(fig3a_records):
    for rec in fig3a_records:
        assert rec.p_err_baseline == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_fig3a_overlap_never_above_baseline(fig3a_records):
    for rec in fig3a_records:
        assert rec.p_err_overlap <= rec.p_err_baseline + 1e-12


def test_fig3a_maximum_at_domain_edges(fig3a_records):
    errors = [rec.p_err_overlap for rec in fig3a_records]
    top = max(errors)
    assert errors[0] == pytest.approx(top, abs=1e-12)
    assert errors[-1] == pytest.approx(top, abs=1e-12)


def test_fig3a_product_columns_only(fig3a_records):
    for rec in fig3a_records:
        assert rec.p_err_boson is None
        assert rec.p_err_fermion is None
        assert rec.flag == ""


# ---------------------------------------------------------------------------
# fig3b


@pytest.fixture(scope="module")
def fig3b_records():
    return list(plain_records(run_sweep(preset_spec("fig3b"))))


def test_fig3b_row_count(fig3b_records):
    assert len(fig3b_records) == 101 * 101


def test_fig3b_minimum_at_balanced_overlap(fig3b_records):
    best = min(fig3b_records, key=lambda rec: rec.p_err_overlap)
    assert best.p_err_overlap <= 1e-8
    cell = SQRT_HALF / 100.0
    assert abs(best.coordinates["l_prime"] - SQRT_HALF) <= cell + 1e-12
    assert abs(best.coordinates["r"] - SQRT_HALF) <= cell + 1e-12


def test_fig3b_boundary_rows_hit_prior(fig3b_records):
    # along l_prime = 0 or r = 0 the particles never overlap: error = p1
    for rec in fig3b_records:
        if rec.coordinates["l_prime"] == 0.0 or rec.coordinates["r"] == 0.0:
            assert rec.p_err_overlap == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_fig3b_row_major_order(fig3b_records):
    # first axis (l_prime) varies slowest
    assert fig3b_records[0].coordinates["l_prime"] == 0.0
    assert fig3b_records[100].coordinates["l_prime"] == 0.0
    assert fig3b_records[100].coordinates["r"] == pytest.approx(SQRT_HALF)
    assert fig3b_records[101].coordinates["l_prime"] == pytest.approx(
        SQRT_HALF / 100.0)
    assert fig3b_records[101].coordinates["r"] == 0.0


# ---------------------------------------------------------------------------
# fig4 / fig5


@pytest.fixture(scope="module")
def fig4_records():
    return list(plain_records(run_sweep(preset_spec("fig4"))))


def test_fig4_has_statistics_columns(fig4_records):
    for rec in fig4_records:
        assert rec.p_err_overlap is None
        assert rec.p_err_boson is not None
        assert rec.p_err_fermion is not None
        assert rec.p_err_baseline is not None


def test_fig4_fermion_advantage_at_pi(fig4_records):
    by_phi = {round(rec.coordinates["phi12"], 12): rec for rec in fig4_records}
    at_pi = by_phi[round(PI, 12)]
    assert at_pi.p_err_fermion == pytest.approx(0.0, abs=1e-12)
    assert at_pi.p_err_boson == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert at_pi.p_err_fermion < at_pi.p_err_boson - 1e-6
    assert at_pi.p_err_boson <= at_pi.p_err_baseline + 1e-12
    assert at_pi.p_err_fermion <= at_pi.p_err_baseline + 1e-12


def test_fig4_some_fermion_below_boson(fig4_records):
    assert any(rec.p_err_fermion < rec.p_err_boson - 1e-6 for rec in fig4_records)


def test_fig5_grid_shape():
    records = list(plain_records(run_sweep(preset_spec("fig5"))))
    assert len(records) == 101 * 101
    assert records[0].coordinates == {"phi12": 0.0, "omega_dd": 0.0}
    assert records[-1].coordinates["omega_dd"] == pytest.approx(5.0)
    assert records[-1].coordinates["phi12"] == pytest.approx(2 * PI)
    assert all(rec.p_err_boson is not None for rec in records)


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="unknown preset"):
        preset_spec("fig7")


def test_preset_parameters_pinned():
    # curve preset: p1 = 1/3, |l|^2 = |r'|^2 = 1/2, generator difference 1
    fig3a = preset_spec("fig3a")
    assert fig3a.fixed["p1"] == pytest.approx(1.0 / 3.0)
    assert abs(fig3a.fixed["l"]) ** 2 == pytest.approx(0.5)
    assert abs(fig3a.fixed["r_prime"]) ** 2 == pytest.approx(0.5)
    assert fig3a.fixed["omega"][1] - fig3a.fixed["omega"][2] == pytest.approx(1.0)
    assert fig3a.grid[0].points == 361

    fig3b = preset_spec("fig3b")
    assert fig3b.fixed["phi12"] == pytest.approx(PI)
    assert [axis.name for axis in fig3b.grid] == ["l_prime", "r"]
    assert all(axis.points == 101 for axis in fig3b.grid)
    assert all(axis.hi == pytest.approx(SQRT_HALF) for axis in fig3b.grid)

    # statistics presets: equal superposition weights, omega = (du=3, ud=2, dd=1)
    for name in ("fig4", "fig5"):
        spec = preset_spec(name)
        assert spec.fixed["up_amp"] == spec.fixed["down_amp"]
        assert spec.fixed["omega"][1] == 3.0
        assert spec.fixed["omega"][2] == 2.0
        assert spec.fixed["p1"] == pytest.approx(1.0 / 3.0)
    assert preset_spec("fig4").fixed["omega"][0] == 1.0
    fig5 = preset_spec("fig5")
    assert [axis.name for axis in fig5.grid] == ["phi12", "omega_dd"]
    assert fig5.grid[1].lo == 0.0 and fig5.grid[1].hi == 5.0


# ---------------------------------------------------------------------------
# custom sweeps and flagged rows


def test_custom_sweep_flags_vanishing_points():
    # down-only superposition: the fermion branch weight |l r' - l' r|^2
    # vanishes at l_prime = sqrt(1/2) when l = r = r' = sqrt(1/2)
    spec = SweepSpec(
        figure="custom",
        grid=(SweepAxis("l_prime", 0.0, SQRT_HALF, 3),),
        fixed=dict(mode="superposition", p1=0.5, phi12=1.0,
                   l=SQRT_HALF, r=SQRT_HALF, r_prime=SQRT_HALF,
                   omega=(1.0, 3.0, 2.0, 0.0), up_amp=0.0, down_amp=1.0))
    records = list(plain_records(run_sweep(spec)))
    assert len(records) == 3
    assert records[0].flag == ""
    assert records[-1].flag != ""
    assert records[-1].p_err_fermion is None
    assert records[-1].p_err_boson is None


def test_custom_sweep_over_generator_weight():
    spec = SweepSpec(
        figure="custom",
        grid=(SweepAxis("omega_du", -1.0, 1.0, 21),),
        fixed=dict(mode="product", p1=0.25, phi12=PI, l=SQRT_HALF, r=SQRT_HALF,
                   l_prime=SQRT_HALF, r_prime=SQRT_HALF,
                   omega=(0.0, 0.0, 0.0, 0.0)))
    records = list(plain_records(run_sweep(spec)))
    assert len(records) == 21
    # omega_du = omega_ud = 0 makes both hypotheses identical: error = p1
    center = records[10]
    assert center.coordinates["omega_du"] == pytest.approx(0.0)
    assert center.p_err_overlap == pytest.approx(0.25, abs=1e-12)
    # omega_du - omega_ud = +-1 with phi12 = pi is the zero-error point
    assert records[0].p_err_overlap <= 1e-10
    assert records[-1].p_err_overlap <= 1e-10


def test_sweep_is_deterministic():
    first = list(plain_records(run_sweep(preset_spec("fig3a"))))
    second = list(plain_records(run_sweep(preset_spec("fig3a"))))
    assert [rec.coordinates for rec in first] == [rec.coordinates for rec in second]
    assert [rec.p_err_overlap for rec in first] == [rec.p_err_overlap
                                                    for rec in second]


# ---------------------------------------------------------------------------
# oracle campaign


def test_oracle_campaign_thousand_draws():
    summary = run_oracle_campaign(n=1000, seed=20240817)
    assert summary.n_failures == 0
    assert summary.max_abs_disagreement <= 1e-10


def test_oracle_campaign_single_draw():
    summary = run_oracle_campaign(n=1, seed=5)
    assert summary.n == 1
    assert summary.n_failures in (0, 1)
    assert summary.max_abs_disagreement >= 0.0


def test_oracle_campaign_deterministic():
    a = run_oracle_campaign(n=50, seed=123)
    b = run_oracle_campaign(n=50, seed=123)
    assert a == b
    assert isinstance(a, OracleCampaignSummary)


def test_oracle_campaign_rejects_empty():
    with pytest.raises(ValueError):
        run_oracle_campaign(n=0, seed=1)


def reference_campaign(n, seed):
    """The campaign's draws from draw_instances, with every route evaluated
    one draw at a time through the scalar public functions."""
    worst, failures, worst_draw = 0.0, 0, 0
    prep = PureProduct(SpinLabel.DOWN, SpinLabel.UP)
    for block in draw_instances(seed, n, ("amps", "eta", "p1", "omega",
                                          "phi")):
        for i in range(block.size):
            amps = OverlapAmplitudes(*block.amps[i])
            channel = PhaseChannel(omega=tuple(block.omega[i]),
                                   phi=tuple(block.phi[i]),
                                   priors=(block.p1[i], block.p2[i]))
            stats = Statistics.BOSON if block.eta[i] == 1 else Statistics.FERMION
            state = project_pure(prep, amps, stats)
            closed = closed_form_error_product(amps, channel)
            projected = helstrom_error(*channel.priors,
                                       apply_phase(channel, 1, state),
                                       apply_phase(channel, 2, state))
            oracle = optimal_povm(channel, state).p_err
            spread = max(abs(closed - projected), abs(closed - oracle),
                         abs(projected - oracle))
            if spread > worst:
                worst, worst_draw = spread, block.start + i
            failures += spread > experiments.ORACLE_TOL
    return worst, failures, worst_draw


def test_oracle_campaign_blocks_equal_scalar_reference():
    n = 2 * BLOCK_DRAWS + 1
    summary = run_oracle_campaign(n=n, seed=77)
    assert (summary.max_abs_disagreement, summary.n_failures,
            summary.worst_draw) == reference_campaign(n, seed=77)


def test_oracle_campaign_counts_every_disagreeing_draw(monkeypatch):
    columns = experiments.closed_form_error_general_columns

    def off_by_1e_9(*args):
        p_err, vanishing = columns(*args)
        return p_err + 1e-9, vanishing

    monkeypatch.setattr(experiments, "closed_form_error_general_columns",
                        off_by_1e_9)
    n = BLOCK_DRAWS + 3
    summary = run_oracle_campaign(n=n, seed=78)
    assert summary.n_failures == n
    assert summary.max_abs_disagreement > 1e-9


def field_stacks(seed, n, fields):
    """Each named field's stack over the n draws of seed, blocks joined."""
    blocks = list(draw_instances(seed, n, fields))
    assert [b.start for b in blocks] == list(range(0, n, BLOCK_DRAWS))
    return {name: np.concatenate([getattr(b, name) for b in blocks])
            for name in fields}


def test_draw_instances_prefix_is_stable():
    """A k-draw run is the first k draws of a longer one, field by field,
    across a block boundary."""
    whole = field_stacks(81, BLOCK_DRAWS + 5, experiments.FIELDS)
    for name in experiments.FIELDS:
        prefix = field_stacks(81, BLOCK_DRAWS + 2, (name,))[name]
        assert len(whole[name]) == BLOCK_DRAWS + 5
        np.testing.assert_array_equal(prefix, whole[name][:BLOCK_DRAWS + 2])


def test_draw_instances_field_does_not_depend_on_the_others():
    """A field's stack is the same whether it is drawn alone or with every
    other field: its value depends on (seed, field, draw index) only. Field
    i draws from child i of SeedSequence(seed).spawn."""
    together = field_stacks(85, BLOCK_DRAWS + 5, experiments.FIELDS)
    children = np.random.SeedSequence(85).spawn(len(experiments.FIELDS))
    for name, child in zip(experiments.FIELDS, children):
        np.testing.assert_array_equal(
            field_stacks(85, BLOCK_DRAWS + 5, (name,))[name], together[name])
        draw = experiments._FIELD_DRAWS[name]
        rng = np.random.default_rng(child)
        np.testing.assert_array_equal(
            np.concatenate([draw(rng), draw(rng)[:5]]), together[name])


def test_draw_instances_block_holds_only_its_fields():
    block = next(draw_instances(83, 3, ("p1", "vectors")))
    assert block.size == 3
    np.testing.assert_array_equal(block.p2, 1.0 - block.p1)
    with pytest.raises(AttributeError, match="hermitian"):
        block.hermitian
    with pytest.raises(AttributeError, match="'phi'"):
        block.phi12


def test_draw_instances_refuses_unknown_fields_before_drawing():
    with pytest.raises(ValueError, match=r"unknown instance fields \['p2'\]"):
        draw_instances(84, 3, ("p1", "p2"))


def test_draw_instances_are_valid_game_inputs():
    block = next(draw_instances(82, BLOCK_DRAWS, experiments.FIELDS))
    for i in range(block.size):
        amps = OverlapAmplitudes(*block.amps[i])
        assert (abs(amps.l * amps.r_prime) ** 2
                + abs(amps.l_prime * amps.r) ** 2) > 1e-3
        PhaseChannel(omega=tuple(block.omega[i]), phi=tuple(block.phi[i]),
                     priors=(block.p1[i], block.p2[i]))
        MixedDiagonal(weights=tuple(block.weights[i]))
        SpinSuperposition(*block.spin[i])
    assert set(block.eta.tolist()) == {1, -1}
    assert np.any(block.amps.imag.any(axis=1))
    assert not np.all(block.amps.imag.any(axis=1))
    assert np.any(block.spin[:, 1] == 0.0)
    np.testing.assert_allclose(np.linalg.norm(block.vectors, axis=-1), 1.0)
    assert hermiticity_defect(block.hermitian) == 0.0


SRC = Path(experiments.__file__).parent
RANDOM_NAMES = {"default_rng", "SeedSequence"}


def random_uses(tree):
    """Lines where code reaches numpy's or the standard library's random
    generators: np.random, default_rng, SeedSequence, import random."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (
                node.attr in RANDOM_NAMES
                or (node.attr == "random" and isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy"))):
            yield node.lineno
        elif isinstance(node, ast.Name) and node.id in RANDOM_NAMES:
            yield node.lineno
        elif isinstance(node, ast.Import) and any(
                alias.name.split(".")[0] == "random"
                or alias.name.startswith("numpy.random")
                for alias in node.names):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and (
                node.module in ("random", "numpy.random")
                or any(alias.name in RANDOM_NAMES | {"random"}
                       for alias in node.names)):
            yield node.lineno


def test_experiments_is_the_one_random_instance_generator():
    """Only experiments.draw_instances draws random numbers in the package;
    every other module takes its instances from it."""
    found = {path.name: lines for path in sorted(SRC.glob("*.py"))
             if path.name != "experiments.py"
             and (lines := sorted(set(random_uses(ast.parse(
                 path.read_text(encoding="utf-8"))))))}
    assert found == {}
    assert list(random_uses(ast.parse(
        (SRC / "experiments.py").read_text(encoding="utf-8"))))


def cmath_imports(tree):
    """Lines that import cmath, as a module or from it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(
                alias.name == "cmath" for alias in node.names):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "cmath":
            yield node.lineno


def test_no_module_imports_cmath():
    """The closed form has one implementation, the column form in
    discrimination, which replays complex arithmetic on float arrays; its
    Python complex-number formula lives in the tests as their reference."""
    found = {path.name: lines for path in sorted(SRC.glob("*.py"))
             if (lines := list(cmath_imports(ast.parse(
                 path.read_text(encoding="utf-8")))))}
    assert found == {}
    assert list(cmath_imports(ast.parse(
        "import cmath\nfrom cmath import exp\nimport math"))) == [1, 2]


def tolist_loops(tree):
    """Lines of comprehensions and for loops that iterate directly over a
    .tolist() call: a Python-level loop over an array's elements."""
    for node in ast.walk(tree):
        if (isinstance(node, (ast.comprehension, ast.For))
                and isinstance(node.iter, ast.Call)
                and isinstance(node.iter.func, ast.Attribute)
                and node.iter.func.attr == "tolist"):
            yield node.iter.lineno


def test_array_kernels_have_no_per_element_loop():
    """The package computes in numpy, not element by element in Python;
    that holds for cli's sweep writer too, which prints a piece's distinct
    values in one formatting call."""
    kernels = ("linalg", "states", "discrimination", "experiments",
               "selfcheck", "cli")
    found = {name: lines for name in kernels
             if (lines := list(tolist_loops(ast.parse(
                 (SRC / f"{name}.py").read_text(encoding="utf-8")))))}
    assert found == {}
    assert sorted(tolist_loops(ast.parse(
        "a = [v ** 2 for v in x.ravel().tolist()]\n"
        "b = {k: v for k, v in enumerate(x.tolist())}\n"
        "for v in x.tolist():\n    pass\n"
        "c = [v for v in x]"))) == [1, 3]


def small_floats(tree):
    """Lines holding a float constant of magnitude in (0, 1e-2): the size
    of a tolerance. A docstring is a string constant and never counts."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                and 0.0 < abs(node.value) < 1e-2):
            yield node.lineno


def package_imports(tree):
    """Lines that import from the sloccsim package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("sloccsim")):
            yield node.lineno
        elif isinstance(node, ast.Import) and any(
                alias.name.split(".")[0] == "sloccsim" for alias in node.names):
            yield node.lineno


def test_tolerances_is_the_one_threshold_table():
    """Every threshold is defined once, in tolerances; the other modules
    import it from there, and tolerances depends on no other module."""
    found = {path.name: lines for path in sorted(SRC.glob("*.py"))
             if path.name != "tolerances.py"
             and (lines := sorted(set(small_floats(ast.parse(
                 path.read_text(encoding="utf-8"))))))}
    assert found == {}
    table = ast.parse((SRC / "tolerances.py").read_text(encoding="utf-8"))
    assert list(small_floats(table))
    assert list(package_imports(table)) == []
    assert sorted(small_floats(ast.parse(
        '"""1e-12"""\nx = -1e-15\ny = 0.01\nz = 1e-3'))) == [2, 4]
    assert list(package_imports(ast.parse(
        "from . import linalg\nfrom .states import X\nimport sloccsim.cli\n"
        "import math\nfrom math import pi"))) == [1, 2, 3]


def assigned_names(tree):
    """Names a module assigns at its top level."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            yield from (target.id for target in node.targets
                        if isinstance(target, ast.Name))


def imported_names(tree, module: str):
    """Names imported from the package module module, relative or not."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (
                module, f"sloccsim.{module}"):
            yield from (alias.name for alias in node.names)


def test_every_tolerance_is_read_by_a_module():
    """No entry of the tolerance table is an orphan: each is imported by
    at least one other module of the package."""
    table = set(assigned_names(ast.parse(
        (SRC / "tolerances.py").read_text(encoding="utf-8"))))
    imported = set()
    for path in SRC.glob("*.py"):
        if path.name != "tolerances.py":
            imported.update(imported_names(
                ast.parse(path.read_text(encoding="utf-8")), "tolerances"))
    assert table
    assert sorted(table - imported) == []
    assert sorted(assigned_names(ast.parse("A = 1\nB = C = 2\nD += 1\n"
                                           "def f():\n    E = 3"))) == [
        "A", "B", "C"]
    assert list(imported_names(ast.parse(
        "from .tolerances import A\nfrom sloccsim.tolerances import B\n"
        "from .states import C"), "tolerances")) == ["A", "B"]


def test_package_exports_are_its_imports():
    """sloccsim.__all__ names exactly what __init__ imports, so a name a
    deletion leaves behind in __all__ fails here, and not in a user's
    star import."""
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert set(sloccsim.__all__) == imported
    namespace = {}
    exec("from sloccsim import *", namespace)
    assert set(sloccsim.__all__) <= set(namespace)


PREPARATION_TYPES = {"MixedDiagonal", "PureProduct", "SpinSuperposition"}


def preparation_dispatches(tree):
    """Lines that call isinstance with a preparation type."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            names = {n.id for n in ast.walk(node.args[1])
                     if isinstance(n, ast.Name)}
            if names & PREPARATION_TYPES:
                yield node.lineno


def test_cli_is_the_one_preparation_dispatch():
    """Only cli branches on the kind of preparation; library modules take
    the preparation type they work on."""
    found = {path.name: lines for path in sorted(SRC.glob("*.py"))
             if path.name != "cli.py"
             and (lines := list(preparation_dispatches(ast.parse(
                 path.read_text(encoding="utf-8")))))}
    assert found == {}
    assert list(preparation_dispatches(ast.parse(
        (SRC / "cli.py").read_text(encoding="utf-8"))))


def peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


BLOCKED_SUITES = {
    "oracle_campaign": lambda n: run_oracle_campaign(n=n, seed=79),
    **{name: (lambda suite: lambda n: suite(n, 79))(
        getattr(selfcheck, f"check_{name}"))
       for name in ("eigensolver", "projector_difference",
                    "projection_consistency", "separated_statistics",
                    "incoherent_operations", "closed_form_reductions",
                    "game_bounds", "statistics_roles", "povm_oracle")},
}


@pytest.mark.parametrize("suite", BLOCKED_SUITES.values(),
                         ids=BLOCKED_SUITES.keys())
def test_blocked_suites_memory_is_flat_in_n(suite):
    suite(1)  # lazy set-up (LAPACK, caches) is not part of the comparison
    one_block = peak_bytes(lambda: suite(BLOCK_DRAWS))
    four_blocks = peak_bytes(lambda: suite(4 * BLOCK_DRAWS))
    assert four_blocks <= 1.5 * one_block
