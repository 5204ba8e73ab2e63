"""Tests for the sweep engine, figure presets and the oracle campaign."""

import math
import tracemalloc

import numpy as np
import pytest

from sloccsim import experiments
from sloccsim.discrimination import (
    PhaseChannel,
    apply_phase,
    closed_form_error_product,
    helstrom_error,
    optimal_povm,
)
from sloccsim.experiments import (
    BLOCK_DRAWS,
    SQRT_HALF,
    OracleCampaignSummary,
    SweepAxis,
    SweepSpec,
    preset_spec,
    run_oracle_campaign,
    run_sweep,
)
from sloccsim.selfcheck import check_eigensolver
from sloccsim.states import PureProduct, SpinLabel, Statistics, project_pure

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


# ---------------------------------------------------------------------------
# fig3a


@pytest.fixture(scope="module")
def fig3a_records():
    return run_sweep(preset_spec("fig3a"))


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
    return run_sweep(preset_spec("fig3b"))


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
    return run_sweep(preset_spec("fig4"))


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
    records = run_sweep(preset_spec("fig5"))
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
    records = run_sweep(spec)
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
    records = run_sweep(spec)
    assert len(records) == 21
    # omega_du = omega_ud = 0 makes both hypotheses identical: error = p1
    center = records[10]
    assert center.coordinates["omega_du"] == pytest.approx(0.0)
    assert center.p_err_overlap == pytest.approx(0.25, abs=1e-12)
    # omega_du - omega_ud = +-1 with phi12 = pi is the zero-error point
    assert records[0].p_err_overlap <= 1e-10
    assert records[-1].p_err_overlap <= 1e-10


def test_sweep_is_deterministic():
    first = run_sweep(preset_spec("fig3a"))
    second = run_sweep(preset_spec("fig3a"))
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
    """The campaign's draws, with every route evaluated one draw at a time
    through the scalar functions."""
    rng = np.random.default_rng(seed)
    worst, failures = 0.0, 0
    prep = PureProduct(SpinLabel.DOWN, SpinLabel.UP)
    for _ in range(n):
        amps = experiments._draw_amplitudes(rng)
        p1 = float(rng.uniform(0.0, 1.0))
        omega = tuple(rng.uniform(-5.0, 5.0, 4))
        phi2 = float(rng.uniform(-math.pi, math.pi))
        phi12 = float(rng.uniform(-2.0 * math.pi, 2.0 * math.pi))
        channel = PhaseChannel(omega=omega, phi=(phi2 + phi12, phi2),
                               priors=(p1, 1.0 - p1))
        stats = Statistics.BOSON if rng.integers(2) else Statistics.FERMION
        state = project_pure(prep, amps, stats)
        closed = closed_form_error_product(amps, channel)
        projected = helstrom_error(p1, 1.0 - p1, apply_phase(channel, 1, state),
                                   apply_phase(channel, 2, state))
        oracle = optimal_povm(channel, state).p_err
        spread = max(abs(closed - projected), abs(closed - oracle),
                     abs(projected - oracle))
        worst = max(worst, spread)
        failures += spread > experiments.ORACLE_TOL
    return worst, failures


def test_oracle_campaign_blocks_equal_scalar_reference():
    n = 2 * BLOCK_DRAWS + 1
    summary = run_oracle_campaign(n=n, seed=77)
    assert (summary.max_abs_disagreement, summary.n_failures) \
        == reference_campaign(n, seed=77)


def test_oracle_campaign_counts_every_disagreeing_draw(monkeypatch):
    def off_by_1e_9(amps, channel):
        return closed_form_error_product(amps, channel) + 1e-9

    monkeypatch.setattr(experiments, "closed_form_error_product", off_by_1e_9)
    n = BLOCK_DRAWS + 3
    summary = run_oracle_campaign(n=n, seed=78)
    assert summary.n_failures == n
    assert summary.max_abs_disagreement > 1e-9


def peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("suite", [
    lambda n: run_oracle_campaign(n=n, seed=79),
    lambda n: check_eigensolver(n, 79, 1.0),
], ids=["oracle_campaign", "eigensolver"])
def test_blocked_suites_memory_is_flat_in_n(suite):
    suite(1)  # lazy set-up (LAPACK, caches) is not part of the comparison
    one_block = peak_bytes(lambda: suite(BLOCK_DRAWS))
    four_blocks = peak_bytes(lambda: suite(4 * BLOCK_DRAWS))
    assert four_blocks <= 1.5 * one_block
