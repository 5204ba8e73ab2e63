"""Runtime invariant suites behind the `check` CLI command.

Each suite exercises one family of invariants on seeded random inputs and
reports its worst observed metric against a fixed tolerance. The
tolerance_scale hook exists so a harness can verify the failure path by
tightening every tolerance below what double precision can achieve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrimination import (
    PhaseChannel,
    apply_phase,
    closed_form_error_balanced,
    closed_form_error_general,
    closed_form_error_product,
    dephase_channel_check,
    helstrom_error,
    optimal_povm,
)
from .experiments import BLOCK_DRAWS, run_oracle_campaign
from .linalg import eigh, eigh_stack
from .states import (
    BASIS_SPINS,
    DensityMatrix4,
    MixedDiagonal,
    OverlapAmplitudes,
    PureProduct,
    SpinLabel,
    SpinSuperposition,
    Statistics,
    VanishingProjection,
    cnot_slocc,
    is_incoherent,
    project_distinguishable,
    project_mixed,
    project_pure,
    project_superposition,
)

DEFAULT_SEED = 20240817
DEFAULT_DRAWS = 1000


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    worst: float
    tolerance: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} {self.name}: worst {self.worst:.3e} "
                f"(tolerance {self.tolerance:.1e})")


def _result(name: str, worst: float, tolerance: float,
            scale: float) -> SuiteResult:
    tol = tolerance * scale
    return SuiteResult(name=name, passed=worst <= tol, worst=worst, tolerance=tol)


def _random_amplitudes(rng, real_only=False):
    while True:
        if real_only:
            raw = rng.uniform(-1, 1, 4).astype(complex)
        else:
            raw = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
        l, r, lp, rp = raw
        n1 = abs(l) ** 2 + abs(r) ** 2
        n2 = abs(lp) ** 2 + abs(rp) ** 2
        if n1 > 1.0:
            l, r = l / math.sqrt(n1), r / math.sqrt(n1)
        if n2 > 1.0:
            lp, rp = lp / math.sqrt(n2), rp / math.sqrt(n2)
        amps = OverlapAmplitudes(l, r, lp, rp)
        if abs(amps.l * amps.r_prime) ** 2 + abs(amps.l_prime * amps.r) ** 2 > 1e-3:
            return amps


def _random_channel(rng):
    p1 = float(rng.uniform(0, 1))
    phi2 = float(rng.uniform(-math.pi, math.pi))
    phi12 = float(rng.uniform(-2 * math.pi, 2 * math.pi))
    return PhaseChannel(omega=tuple(rng.uniform(-5, 5, 4)),
                        phi=(phi2 + phi12, phi2), priors=(p1, 1 - p1))


def _random_mixture(rng):
    w = rng.uniform(0, 1, 4)
    w /= w.sum()
    return MixedDiagonal(weights=tuple(w))


def check_eigensolver(n: int, seed: int, scale: float) -> SuiteResult:
    """LAPACK's eigh_stack, the kernel behind linalg.eigh, on n random
    Hermitian matrices, drawn one at a time and solved in blocks."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for start in range(0, n, BLOCK_DRAWS):
        m = np.array([rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
                      for _ in range(min(BLOCK_DRAWS, n - start))])
        m = 0.5 * (m + m.conj().swapaxes(-1, -2))
        lam, vmat = eigh_stack(m)
        vmat_h = vmat.conj().swapaxes(-1, -2)
        worst = max(
            worst,
            float(np.max(np.abs(m - (vmat * lam[:, None, :]) @ vmat_h))),
            float(np.max(np.abs(vmat_h @ vmat - np.eye(4)))),
            float(np.max(np.abs(np.trace(m, axis1=1, axis2=2).real
                                - lam.sum(axis=1)))),
        )
    return _result("eigensolver_random_hermitian", worst, 1e-10, scale)


def check_eigensolver_analytic(scale: float) -> SuiteResult:
    worst = 0.0
    pairs = eigh(np.diag([3.0, 1.0, 2.0, 0.0]))
    worst = max(worst, max(abs(p.value - e)
                           for p, e in zip(pairs, (3.0, 2.0, 1.0, 0.0))))
    block = np.zeros((4, 4))
    block[1, 2] = block[2, 1] = 1.0
    values = sorted(p.value for p in eigh(block))
    worst = max(worst, max(abs(v - e)
                           for v, e in zip(values, (-1.0, 0.0, 0.0, 1.0))))
    return _result("eigensolver_analytic_spectra", worst, 1e-12, scale)


def check_projector_difference(n: int, seed: int, scale: float) -> SuiteResult:
    rng = np.random.default_rng(seed + 1)
    worst = 0.0
    for _ in range(n):
        p1 = rng.uniform(0, 1)
        v1 = rng.normal(size=4) + 1j * rng.normal(size=4)
        v2 = rng.normal(size=4) + 1j * rng.normal(size=4)
        v1 /= np.linalg.norm(v1)
        v2 /= np.linalg.norm(v2)
        delta = p1 * np.outer(v1, v1.conj()) - (1 - p1) * np.outer(v2, v2.conj())
        values = sorted(p.value for p in eigh(delta))
        # middle two eigenvalues of the rank-<=2 difference must vanish
        worst = max(worst, abs(values[1]), abs(values[2]))
    return _result("projector_difference_spectrum", worst, 1e-10, scale)


def check_projection_consistency(n: int, seed: int, scale: float) -> SuiteResult:
    rng = np.random.default_rng(seed + 2)
    worst = 0.0
    for _ in range(n):
        amps = _random_amplitudes(rng)
        stats = Statistics.BOSON if rng.integers(2) else Statistics.FERMION
        for k, (s, t) in enumerate(BASIS_SPINS):
            weights = [0.0] * 4
            weights[k] = 1.0
            try:
                state = project_pure(PureProduct(s, t), amps, stats)
                rho = project_mixed(MixedDiagonal(weights=tuple(weights)),
                                    amps, stats)
            except VanishingProjection:
                continue
            worst = max(worst,
                        float(np.max(np.abs(rho.mat - state.projector()))),
                        abs(rho.trace_raw - state.norm_sq_raw))
        try:
            up_only = project_superposition(SpinSuperposition(1.0, 0.0), amps, stats)
            reference = project_pure(PureProduct(SpinLabel.DOWN, SpinLabel.UP),
                                     amps, stats)
            worst = max(worst, float(np.max(np.abs(up_only.entries
                                                   - reference.entries))))
        except VanishingProjection:
            pass
    return _result("projection_consistency", worst, 1e-12, scale)


def check_separated_statistics(n: int, seed: int, scale: float) -> SuiteResult:
    rng = np.random.default_rng(seed + 3)
    worst = 0.0
    for _ in range(n):
        amps = _random_amplitudes(rng).without_overlap()
        if abs(amps.l * amps.r_prime) ** 2 < 1e-6:
            continue
        mix = _random_mixture(rng)
        rho_b = project_mixed(mix, amps, Statistics.BOSON)
        rho_f = project_mixed(mix, amps, Statistics.FERMION)
        worst = max(worst, float(np.max(np.abs(rho_b.mat - rho_f.mat))))
        if not is_incoherent(rho_b):
            worst = max(worst, 1.0)
    return _result("separated_particles_statistics_free", worst, 1e-12, scale)


def check_incoherent_operations(n: int, seed: int, scale: float) -> SuiteResult:
    rng = np.random.default_rng(seed + 4)
    worst = 0.0
    for _ in range(n):
        diag = rng.uniform(0, 1, 4)
        diag /= diag.sum()
        rho = DensityMatrix4(mat=np.diag(diag).astype(complex), trace_raw=1.0)
        flipped = cnot_slocc(rho)
        off = flipped.mat - np.diag(np.diag(flipped.mat))
        worst = max(worst, float(np.max(np.abs(off))))
        back = cnot_slocc(flipped)
        worst = max(worst, float(np.max(np.abs(back.mat - rho.mat))))
        if not dephase_channel_check(_random_channel(rng), rho):
            worst = max(worst, 1.0)
        amps = _random_amplitudes(rng)
        if abs(amps.l * amps.r_prime) ** 2 >= 1e-6:
            if not is_incoherent(project_distinguishable(_random_mixture(rng),
                                                         amps)):
                worst = max(worst, 1.0)
    return _result("incoherent_operations", worst, 1e-14, scale)


def check_closed_form_reductions(n: int, seed: int, scale: float) -> SuiteResult:
    rng = np.random.default_rng(seed + 5)
    worst = 0.0
    balanced = OverlapAmplitudes.balanced()
    for _ in range(n):
        channel = _random_channel(rng)
        worst = max(worst, abs(closed_form_error_product(balanced, channel)
                               - closed_form_error_balanced(channel)))
        amps = _random_amplitudes(rng)
        up_only = SpinSuperposition(1.0, 0.0)
        for stats in (Statistics.BOSON, Statistics.FERMION):
            worst = max(worst, abs(
                closed_form_error_general(up_only, amps, stats, channel)
                - closed_form_error_product(amps, channel)))
    return _result("closed_form_reductions", worst, 1e-12, scale)


def check_game_bounds(n: int, seed: int, scale: float) -> SuiteResult:
    rng = np.random.default_rng(seed + 6)
    worst = 0.0
    for _ in range(n):
        amps = _random_amplitudes(rng)
        channel = _random_channel(rng)
        err = closed_form_error_product(amps, channel)
        worst = max(worst, err - min(channel.priors), -err)
        swapped = PhaseChannel(omega=channel.omega,
                               phi=(channel.phi[1], channel.phi[0]),
                               priors=(channel.priors[1], channel.priors[0]))
        worst = max(worst, abs(err - closed_form_error_product(amps, swapped)))
        shift = float(rng.uniform(-3, 3))
        shifted = PhaseChannel(omega=tuple(w + shift for w in channel.omega),
                               phi=channel.phi, priors=channel.priors)
        worst = max(worst, abs(err - closed_form_error_product(amps, shifted)))
    return _result("game_bounds_and_symmetries", worst, 1e-12, scale)


def check_povm_oracle(n: int, seed: int, scale: float) -> SuiteResult:
    summary = run_oracle_campaign(n=n, seed=seed)
    return _result("oracle_equivalence", summary.max_abs_disagreement, 1e-10,
                   scale)


def check_statistics_roles(n: int, seed: int, scale: float) -> SuiteResult:
    rng = np.random.default_rng(seed + 7)
    worst = 0.0
    prep = PureProduct(SpinLabel.DOWN, SpinLabel.UP)
    for _ in range(n):
        amps = _random_amplitudes(rng)
        channel = _random_channel(rng)
        p1, p2 = channel.priors
        errs = []
        for stats in (Statistics.BOSON, Statistics.FERMION):
            state = project_pure(prep, amps, stats)
            errs.append(helstrom_error(p1, p2,
                                       apply_phase(channel, 1, state),
                                       apply_phase(channel, 2, state)))
        worst = max(worst, abs(errs[0] - errs[1]))
        state = project_pure(prep, amps, Statistics.BOSON)
        worst = max(worst, abs(optimal_povm(channel, state).p_err - errs[0]))
    return _result("product_preparation_statistics_free", worst, 1e-10, scale)


def run_selfcheck(n: int = DEFAULT_DRAWS, seed: int = DEFAULT_SEED,
                  tolerance_scale: float = 1.0) -> list[SuiteResult]:
    """Run every invariant suite; n controls the random-draw counts."""
    loop = max(1, n // 10)
    return [
        check_eigensolver(n, seed, tolerance_scale),
        check_eigensolver_analytic(tolerance_scale),
        check_projector_difference(loop, seed, tolerance_scale),
        check_projection_consistency(loop, seed, tolerance_scale),
        check_separated_statistics(loop, seed, tolerance_scale),
        check_incoherent_operations(loop, seed, tolerance_scale),
        check_closed_form_reductions(loop, seed, tolerance_scale),
        check_game_bounds(loop, seed, tolerance_scale),
        check_statistics_roles(loop, seed, tolerance_scale),
        check_povm_oracle(n, seed, tolerance_scale),
    ]
