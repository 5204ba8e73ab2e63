"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the printed
PASS lines). Criteria with runtime budgets warm the code path up first and
then time a single representative run.
"""

import math
import time

import numpy as np

from helpers import (
    boson_fermion_errors,
    plain_records,
    random_amplitudes,
    random_channel,
)

from sloccsim.cli import EXIT_OK, main
from sloccsim.discrimination import (
    PhaseChannel,
    closed_form_error_balanced,
    closed_form_error_product,
    optimal_povm,
)
from sloccsim.experiments import SQRT_HALF, preset_spec, run_sweep
from sloccsim.linalg import eigh
from sloccsim.states import (
    DensityMatrix4,
    MixedDiagonal,
    OverlapAmplitudes,
    PureProduct,
    SpinLabel,
    SpinSuperposition,
    Statistics,
    cnot_slocc,
    is_incoherent,
    project_distinguishable,
    project_pure,
    project_superposition,
)
from sloccsim.selfcheck import run_oracle_campaign

DOWN, UP = SpinLabel.DOWN, SpinLabel.UP
THIRD = 1.0 / 3.0
PI = math.pi

CAMPAIGN_SEED = 20240817


def fig3a_channel(phi12):
    return PhaseChannel(omega=(0.0, 1.0, 0.0, 0.0), phi=(phi12, 0.0),
                        priors=(THIRD, 2.0 * THIRD))


def test_criterion_1_zero_error_point():
    # p1 = 1/3, balanced overlaps, generator difference 1, phi12 = pi:
    # both the balanced closed form and the POVM oracle give zero error,
    # and one full evaluation stays under 1 ms.
    channel = fig3a_channel(PI)
    state = project_pure(PureProduct(DOWN, UP), OverlapAmplitudes.balanced(),
                         Statistics.BOSON)

    def evaluate():
        return (closed_form_error_balanced(channel),
                optimal_povm(channel, state).p_err)

    evaluate()  # warm-up
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        closed, oracle = evaluate()
        best = min(best, time.perf_counter() - start)
    assert closed <= 1e-10
    assert oracle <= 1e-10
    assert best < 1e-3, f"evaluation took {best * 1e3:.3f} ms"
    print(f"PASS criterion 1: zero-error point (closed {closed:.2e}, "
          f"oracle {oracle:.2e}, {best * 1e6:.0f} us)")


def test_criterion_2_no_overlap_baseline():
    # separated particles: error pinned at the smaller prior for every
    # phase difference; the 361-point grid must evaluate in under 0.1 s.
    amps = OverlapAmplitudes(l=SQRT_HALF, r=0.0, l_prime=0.0, r_prime=SQRT_HALF)
    grid = np.linspace(0.0, 2.0 * PI, 361)
    closed_form_error_product(amps, fig3a_channel(1.0))  # warm-up
    start = time.perf_counter()
    errors = [closed_form_error_product(amps, fig3a_channel(float(phi)))
              for phi in grid]
    elapsed = time.perf_counter() - start
    worst = max(abs(err - THIRD) for err in errors)
    assert worst <= 1e-12
    assert elapsed < 0.1, f"grid took {elapsed:.3f} s"
    print(f"PASS criterion 2: no-overlap baseline constant at 1/3 "
          f"(worst dev {worst:.2e}, {elapsed * 1e3:.1f} ms)")


def test_criterion_3_overlap_dominance():
    # on the standard curve configuration the overlapping-particle error
    # never exceeds the separated-particle baseline
    records = list(plain_records(run_sweep(preset_spec("fig3a"))))
    assert len(records) == 361
    margin = max(rec.p_err_overlap - rec.p_err_baseline for rec in records)
    assert margin <= 1e-12
    print(f"PASS criterion 3: overlap curve <= baseline at all 361 points "
          f"(max margin {margin:.2e})")


def test_criterion_4_contour_minimum():
    # at phi12 = pi the error over the (l_prime, r) square is minimized at
    # the fully balanced corner, where it vanishes
    records = list(plain_records(run_sweep(preset_spec("fig3b"))))
    assert len(records) == 101 * 101
    best = min(records, key=lambda rec: rec.p_err_overlap)
    cell = SQRT_HALF / 100.0
    assert best.p_err_overlap <= 1e-8
    assert abs(best.coordinates["l_prime"] ** 2 - 0.5) <= (2 * SQRT_HALF * cell
                                                           + cell * cell)
    assert abs(best.coordinates["r"] ** 2 - 0.5) <= (2 * SQRT_HALF * cell
                                                     + cell * cell)
    assert abs(best.coordinates["l_prime"] - SQRT_HALF) <= cell + 1e-12
    assert abs(best.coordinates["r"] - SQRT_HALF) <= cell + 1e-12
    print(f"PASS criterion 4: contour minimum {best.p_err_overlap:.2e} at "
          f"l_prime={best.coordinates['l_prime']:.6f}, "
          f"r={best.coordinates['r']:.6f}")


def test_criterion_5_oracle_equivalence():
    # closed form, projected-state bound and the spectral POVM agree on
    # 1000 seeded random games, in under a second
    run_oracle_campaign(n=5, seed=CAMPAIGN_SEED)  # warm-up
    start = time.perf_counter()
    summary = run_oracle_campaign(n=1000, seed=CAMPAIGN_SEED)
    elapsed = time.perf_counter() - start
    assert summary.n_failures == 0
    assert summary.max_abs_disagreement <= 1e-10
    assert elapsed < 1.0, f"campaign took {elapsed:.2f} s"
    print(f"PASS criterion 5: oracle equivalence over 1000 draws "
          f"(worst {summary.max_abs_disagreement:.2e}, {elapsed:.2f} s)")


def test_criterion_6_statistics_independence_and_dependence():
    # product preparation: exchange statistics never matter
    rng = np.random.default_rng(CAMPAIGN_SEED + 1)
    worst = 0.0
    for _ in range(100):
        amps = random_amplitudes(rng)
        channel = random_channel(rng)
        boson, fermion = boson_fermion_errors(project_pure,
                                              PureProduct(DOWN, UP), amps,
                                              channel)
        worst = max(worst, abs(boson - fermion))
    assert worst <= 1e-12

    # superposition preparation: somewhere on the phase grid fermions beat
    # bosons by a clear margin
    prep = SpinSuperposition(up_amp=SQRT_HALF, down_amp=SQRT_HALF)
    amps = OverlapAmplitudes.balanced()
    advantage = 0.0
    for phi12 in np.linspace(0.0, 2.0 * PI, 361):
        channel = PhaseChannel(omega=(1.0, 3.0, 2.0, 0.0),
                               phi=(float(phi12), 0.0),
                               priors=(THIRD, 2.0 * THIRD))
        boson, fermion = boson_fermion_errors(project_superposition, prep,
                                              amps, channel)
        advantage = max(advantage, boson - fermion)
    assert advantage > 1e-6
    print(f"PASS criterion 6: product games statistics-free (worst "
          f"{worst:.2e}); fermion advantage up to {advantage:.4f}")


def test_criterion_7_incoherent_operations():
    rng = np.random.default_rng(CAMPAIGN_SEED + 2)
    worst_cnot = 0.0
    for _ in range(200):
        diag = rng.uniform(0.0, 1.0, 4)
        diag /= diag.sum()
        rho = DensityMatrix4(mat=np.diag(diag).astype(complex), trace_raw=1.0)
        flipped = cnot_slocc(rho)
        off = flipped.mat - np.diag(np.diag(flipped.mat))
        worst_cnot = max(worst_cnot, float(np.max(np.abs(off))))
    assert worst_cnot <= 1e-14

    # the box unitaries leave diagonal states exactly diagonal
    for _ in range(50):
        diag = rng.uniform(0.0, 1.0, 4)
        diag /= diag.sum()
        channel = random_channel(rng)
        for k in (1, 2):
            factors = np.exp(1j * np.asarray(channel.omega) * channel.phi[k - 1])
            conjugated = factors[:, None] * np.diag(diag) * factors.conj()[None, :]
            off = conjugated - np.diag(np.diag(conjugated))
            assert float(np.max(np.abs(off))) == 0.0

    for _ in range(50):
        amps = random_amplitudes(rng)
        if abs(amps.l * amps.r_prime) ** 2 < 1e-6:
            continue
        weights = rng.uniform(0.0, 1.0, 4)
        weights /= weights.sum()
        rho = project_distinguishable(MixedDiagonal(weights=tuple(weights)), amps)
        assert is_incoherent(rho)
    print(f"PASS criterion 7: incoherent operations stay incoherent "
          f"(worst cnot off-diagonal {worst_cnot:.2e})")


def test_criterion_8_linear_algebra_substrate():
    rng = np.random.default_rng(CAMPAIGN_SEED + 3)
    worst_res = worst_orth = 0.0
    for _ in range(1000):
        m = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
        m = 0.5 * (m + m.conj().T)
        pairs = eigh(m)
        vmat = np.column_stack([p.vector for p in pairs])
        lam = np.array([p.value for p in pairs])
        worst_res = max(worst_res, float(np.max(np.abs(
            m - vmat @ np.diag(lam) @ vmat.conj().T))))
        worst_orth = max(worst_orth, float(np.max(np.abs(
            vmat.conj().T @ vmat - np.eye(4)))))
    assert worst_res <= 1e-10
    assert worst_orth <= 1e-10

    diag_pairs = eigh(np.diag([3.0, 1.0, 2.0, 0.0]))
    assert max(abs(p.value - e) for p, e in
               zip(diag_pairs, (3.0, 2.0, 1.0, 0.0))) <= 1e-12
    block = np.zeros((4, 4))
    block[1, 2] = block[2, 1] = 1.0
    values = sorted(p.value for p in eigh(block))
    assert max(abs(v - e) for v, e in
               zip(values, (-1.0, 0.0, 0.0, 1.0))) <= 1e-12
    print(f"PASS criterion 8: eigensolver residual {worst_res:.2e}, "
          f"orthonormality {worst_orth:.2e} over 1000 matrices")


def test_criterion_9_deterministic_sweep_output(tmp_path):
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert main(["sweep", "--preset", "fig3a", "--out", str(first)]) == EXIT_OK
    assert main(["sweep", "--preset", "fig3a", "--out", str(second)]) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()
    print("PASS criterion 9: fig3a sweep output byte-identical across runs")
