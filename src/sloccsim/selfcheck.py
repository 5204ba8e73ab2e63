"""Runtime invariant suites behind the `check` CLI command.

Each suite tests one family of invariants, named in its docstring after
the definition it rests on: the incoherent operations and l1 coherence of
Baumgratz, Cramer and Plenio, PRL 113, 140401 (2014), or Helstrom's bound
(Quantum Detection and Estimation Theory, 1976). A suite reports its worst
observed metric against its tolerance in tolerances.SUITE_TOLERANCES.

Every random instance comes from experiments.draw_instances: a suite
called with (n, seed) names the instance fields its metric reads and
evaluates the n draws of seed in blocks of BLOCK_DRAWS, through the
library's stack kernels. Each field has its own child stream of the seed,
so a suite draws only what it reads and a value depends only on (seed,
field, draw index). One rule, _reduce_draws, reduces the draws: the worst
value is the largest per-draw metric, at the first draw with it, and NaN
counts as inf. The oracle campaign is one more metric under that rule.
A result carries the seed and the worst draw; running the suite alone
with n = draw + 1 reproduces the value. run_selfcheck gives suite k the
seed seed + k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# apply_phase, closed_form_error_product, closed_form_error_general,
# closed_form_error_balanced, dephase_channel_check, helstrom_error,
# optimal_povm, cnot_slocc, is_incoherent and the project_* functions are
# not called here: the suites call their stack kernels. perfbench's traced
# run wraps these names.
from .discrimination import (  # noqa: F401
    UP_ONLY,
    apply_phase,
    apply_phase_stack,
    closed_form_error_balanced,
    closed_form_error_balanced_columns,
    closed_form_error_general,
    closed_form_error_general_columns,
    closed_form_error_product,
    dephase_channel_check,
    dephase_channel_check_stack,
    helstrom_error,
    helstrom_error_stack,
    optimal_povm,
    projector_difference,
    spectral_povm,
)
from .experiments import draw_instances
from .linalg import eigh, eigh_stack, outer_stack
from .states import (  # noqa: F401
    BASIS_SPINS,
    SQRT_HALF,
    SpinLabel,
    cnot_slocc,
    cnot_stack,
    is_incoherent,
    offdiagonal_max,
    project_distinguishable,
    project_distinguishable_stack,
    project_mixed,
    project_mixed_stack,
    project_pure,
    project_pure_stack,
    project_superposition,
    project_superposition_stack,
)
from .tolerances import (LABELLED_WEIGHT, NORMALIZATION_TOL, ORACLE_TOL,
                         SUITE_TOLERANCES)

DEFAULT_SEED = 20240817
DEFAULT_DRAWS = 1000


@dataclass(frozen=True)
class SuiteResult:
    """A suite's worst metric against its tolerance. seed is the seed the
    suite drew its instances from and draw the index of the draw with the
    worst value; both are None for a suite without random draws."""

    name: str
    passed: bool
    worst: float
    tolerance: float
    seed: int | None = None
    draw: int | None = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = (f"{status} {self.name}: worst {self.worst:.3e} "
                f"(tolerance {self.tolerance:.1e})")
        if not self.passed and self.seed is not None:
            line += f" seed={self.seed} draw={self.draw}"
        return line


def _result(name: str, worst: float, seed=None, draw=None) -> SuiteResult:
    tolerance = SUITE_TOLERANCES[name]
    return SuiteResult(name=name, passed=worst <= tolerance, worst=worst,
                       tolerance=tolerance, seed=seed, draw=draw)


def _nan_as_inf(values) -> np.ndarray:
    """values with each NaN counted as infinitely bad."""
    return np.where(np.isnan(values), np.inf, values)


def _reduce_draws(n: int, seed: int, fields, metric, tolerance: float):
    """The worst value of metric, which maps an Instances block holding the
    named fields to one value per draw, over the n draws of seed, the first
    draw with it and the number of draws over tolerance; NaN counts as inf."""
    worst, draw, failures = 0.0, 0, 0
    for block in draw_instances(seed, n, fields):
        values = _nan_as_inf(metric(block))
        k = int(np.argmax(values))
        if values[k] > worst:
            worst, draw = float(values[k]), block.start + k
        failures += int(np.count_nonzero(values > tolerance))
    return worst, draw, failures


def _run_suite(name: str, n: int, seed: int, fields, metric) -> SuiteResult:
    worst, draw, _ = _reduce_draws(n, seed, fields, metric,
                                   SUITE_TOLERANCES[name])
    return _result(name, worst, seed, draw)


def _largest(*metrics) -> np.ndarray:
    """Per-draw maximum of several (size,) metrics."""
    return np.maximum.reduce(np.broadcast_arrays(*metrics))


def _entry_max(a) -> np.ndarray:
    """Largest entry magnitude of each matrix in a (size, 4, 4) stack."""
    return np.abs(a).max(axis=(-2, -1))


def _phased_product(block, eta) -> list[np.ndarray]:
    """Each draw's (down, up) product state under exchange phase eta, after
    each of the draw's two phases."""
    state = project_pure_stack(SpinLabel.DOWN, SpinLabel.UP, block.amps.T,
                               eta)[0]
    return [apply_phase_stack(block.omega, block.phi[:, k], state)
            for k in (0, 1)]


def check_eigensolver(n: int, seed: int) -> SuiteResult:
    """LAPACK's eigh_stack, the kernel behind linalg.eigh, on n random
    Hermitian matrices: residual, orthonormality and trace."""
    def metric(block):
        m = block.hermitian
        lam, vmat = eigh_stack(m)
        vmat_h = vmat.conj().swapaxes(-1, -2)
        return _largest(
            _entry_max(m - (vmat * lam[:, None, :]) @ vmat_h),
            _entry_max(vmat_h @ vmat - np.eye(4)),
            abs(np.trace(m, axis1=1, axis2=2).real - lam.sum(axis=1)))
    return _run_suite("eigensolver_random_hermitian", n, seed,
                      ("hermitian",), metric)


def check_eigensolver_analytic() -> SuiteResult:
    """linalg.eigh on two matrices with exactly known spectra."""
    block = np.zeros((4, 4))
    block[1, 2] = block[2, 1] = 1.0
    values = [p.value for p in eigh(np.diag([3.0, 1.0, 2.0, 0.0]))]
    values += sorted(p.value for p in eigh(block))
    errors = abs(np.subtract(values, (3.0, 2.0, 1.0, 0.0, -1.0, 0.0, 0.0, 1.0)))
    return _result("eigensolver_analytic_spectra",
                   float(_nan_as_inf(errors).max()))


def check_projector_difference(n: int, seed: int) -> SuiteResult:
    """Helstrom's (1976) measurement operator p1 |v1><v1| - p2 |v2><v2|
    (projector_difference) has rank at most two, so its middle two
    eigenvalues vanish, for random unit vectors and priors."""
    def metric(block):
        values = eigh_stack(projector_difference(
            (block.p1, block.p2), block.vectors[:, 0], block.vectors[:, 1]))[0]
        return _largest(abs(values[:, 1]), abs(values[:, 2]))
    return _run_suite("projector_difference_spectrum", n, seed,
                      ("p1", "vectors"), metric)


def check_projection_consistency(n: int, seed: int) -> SuiteResult:
    """Each definite-spin projection equals the mixed projection of the
    matching one-component mixture (matrix and weight), and the up-only
    superposition equals the (down, up) product, under the draw's exchange
    statistics; vanishing projections are skipped."""
    def metric(block):
        amps = block.amps.T
        worst = np.zeros(block.size)
        for k, (s, t) in enumerate(BASIS_SPINS):
            entries, norm_sq, pure_vanishes = project_pure_stack(
                s, t, amps, block.eta)
            mat, trace, mixed_vanishes = project_mixed_stack(
                np.eye(4)[k], amps, block.eta)
            gap = _largest(_entry_max(mat - outer_stack(entries, entries)),
                           abs(trace - norm_sq))
            worst = _largest(worst, np.where(pure_vanishes | mixed_vanishes,
                                             0.0, gap))
        up_only, _, up_vanishes = project_superposition_stack(
            UP_ONLY.up_amp, UP_ONLY.down_amp, amps, block.eta)
        product = project_pure_stack(SpinLabel.DOWN, SpinLabel.UP, amps,
                                     block.eta)[0]
        gap = np.abs(up_only - product).max(axis=-1)
        return _largest(worst, np.where(up_vanishes, 0.0, gap))
    return _run_suite("projection_consistency", n, seed,
                      ("amps", "eta"), metric)


def check_separated_statistics(n: int, seed: int) -> SuiteResult:
    """Without spatial overlap (l_prime = r = 0) boson and fermion mixtures
    project to the same state, and it is incoherent in the sense of
    Baumgratz, Cramer and Plenio (2014); draws with |l r'|^2 below
    LABELLED_WEIGHT are skipped."""
    def metric(block):
        amps = block.amps.T.copy()
        amps[1] = amps[2] = 0.0
        rho_b = project_mixed_stack(block.weights, amps, 1)[0]
        rho_f = project_mixed_stack(block.weights, amps, -1)[0]
        scale = project_distinguishable_stack(block.weights, amps)[1]
        coherent = offdiagonal_max(rho_b) > NORMALIZATION_TOL
        return np.where(scale < LABELLED_WEIGHT, 0.0,
                        _largest(_entry_max(rho_b - rho_f),
                                 np.where(coherent, 1.0, 0.0)))
    return _run_suite("separated_particles_statistics_free", n, seed,
                      ("amps", "weights"), metric)


def check_incoherent_operations(n: int, seed: int) -> SuiteResult:
    """Incoherent operations of Baumgratz, Cramer and Plenio (2014) keep
    diagonal states diagonal: the region-controlled NOT (an involution) and
    both phase-box unitaries on random diagonal states, and the labelled-
    particle projection is incoherent (draws with |l r'|^2 >= LABELLED_WEIGHT)."""
    def metric(block):
        rho = block.weights[:, :, None] * np.eye(4, dtype=np.complex128)
        flipped = cnot_stack(rho)
        labelled, scale, _ = project_distinguishable_stack(block.weights,
                                                           block.amps.T)
        failed = (((scale >= LABELLED_WEIGHT)
                   & (offdiagonal_max(labelled) > NORMALIZATION_TOL))
                  | ~dephase_channel_check_stack(block.omega, block.phi, rho))
        return _largest(offdiagonal_max(flipped),
                        _entry_max(cnot_stack(flipped) - rho),
                        np.where(failed, 1.0, 0.0))
    return _run_suite("incoherent_operations", n, seed,
                      ("amps", "weights", "omega", "phi"), metric)


def check_closed_form_reductions(n: int, seed: int) -> SuiteResult:
    """The amplitude closed forms against independent references: the
    product form on balanced amplitudes against the analytic cosine form,
    and the superposition form against Helstrom's bound (1976) on the
    projected states, for the draw's preparation (a quarter of them
    up-only, the product game) under both exchange statistics; vanishing
    projections are skipped."""
    def metric(block):
        amps, omega = block.amps.T, block.omega.T
        priors = (block.p1, block.p2)
        balanced = closed_form_error_general_columns(
            (UP_ONLY.up_amp, UP_ONLY.down_amp), (SQRT_HALF,) * 4, 1, omega,
            block.phi12, priors)[0]
        worst = abs(balanced - closed_form_error_balanced_columns(
            omega, block.phi12, priors))
        up, down = block.spin.T
        for eta in (1, -1):
            closed, closed_vanishes = closed_form_error_general_columns(
                (up, down), amps, eta, omega, block.phi12, priors)
            state, _, state_vanishes = project_superposition_stack(
                up, down, amps, eta)
            projected = helstrom_error_stack(
                *priors, apply_phase_stack(block.omega, block.phi[:, 0], state),
                apply_phase_stack(block.omega, block.phi[:, 1], state))
            worst = _largest(worst, np.where(closed_vanishes | state_vanishes,
                                             0.0, abs(closed - projected)))
        return worst
    return _run_suite("closed_form_reductions", n, seed,
                      ("amps", "p1", "omega", "phi", "spin"), metric)


def check_game_bounds(n: int, seed: int) -> SuiteResult:
    """The product-game error lies in [0, min(priors)] (Helstrom 1976), and
    is unchanged by swapping the two hypotheses with their priors and by a
    common shift of the generator weights."""
    def metric(block):
        spin = (UP_ONLY.up_amp, UP_ONLY.down_amp)
        amps, omega = block.amps.T, block.omega.T
        priors = (block.p1, block.p2)
        err = closed_form_error_general_columns(
            spin, amps, 1, omega, block.phi12, priors)[0]
        swapped = closed_form_error_general_columns(
            spin, amps, 1, omega, block.phi[:, 1] - block.phi[:, 0],
            priors[::-1])[0]
        shifted = closed_form_error_general_columns(
            spin, amps, 1, (block.omega + block.shift[:, None]).T,
            block.phi12, priors)[0]
        return _largest(err - np.minimum(*priors), -err, abs(err - swapped),
                        abs(err - shifted))
    return _run_suite("game_bounds_and_symmetries", n, seed,
                      ("amps", "p1", "omega", "phi", "shift"), metric)


@dataclass(frozen=True)
class OracleCampaignSummary:
    n: int
    seed: int
    max_abs_disagreement: float
    n_failures: int
    worst_draw: int = 0


def run_oracle_campaign(n: int, seed: int) -> OracleCampaignSummary:
    """Compare the closed-form, projected-state and POVM error routes on n
    random (down, up) product games from draw_instances; report the worst
    pairwise disagreement, its draw and the number of draws over ORACLE_TOL.

    Each block of draws goes through the stack kernels: the column closed
    form, helstrom_error_stack on project_pure_stack's states after
    apply_phase_stack, and spectral_povm, the spectral step of
    optimal_povm."""
    def spread(block):
        priors = (block.p1, block.p2)
        # the product game never vanishes here (weight > ADMISSIBLE_WEIGHT)
        psi = _phased_product(block, block.eta)
        closed = closed_form_error_general_columns(
            (UP_ONLY.up_amp, UP_ONLY.down_amp), block.amps.T, block.eta,
            block.omega.T, block.phi12, priors)[0]
        projected = helstrom_error_stack(*priors, *psi)
        oracle = spectral_povm(priors, *psi)[0]
        return _largest(abs(closed - projected), abs(closed - oracle),
                        abs(projected - oracle))
    worst, draw, failures = _reduce_draws(
        n, seed, ("amps", "eta", "p1", "omega", "phi"), spread, ORACLE_TOL)
    return OracleCampaignSummary(n=n, seed=seed, max_abs_disagreement=worst,
                                 n_failures=failures, worst_draw=draw)


def check_povm_oracle(n: int, seed: int) -> SuiteResult:
    """The oracle campaign: closed form, Helstrom's bound (1976) on the
    projected states and the spectral POVM agree on every draw."""
    summary = run_oracle_campaign(n=n, seed=seed)
    return _result("oracle_equivalence", summary.max_abs_disagreement, seed,
                   summary.worst_draw)


def check_statistics_roles(n: int, seed: int) -> SuiteResult:
    """The (down, up) product game's Helstrom (1976) error is the same for
    bosons and fermions, and the spectral POVM attains it."""
    def metric(block):
        priors = (block.p1, block.p2)
        boson, fermion = (_phased_product(block, eta) for eta in (1, -1))
        err = helstrom_error_stack(*priors, *boson)
        povm_err = spectral_povm(priors, *boson)[0]
        return _largest(abs(err - helstrom_error_stack(*priors, *fermion)),
                        abs(povm_err - err))
    return _run_suite("product_preparation_statistics_free", n, seed,
                      ("amps", "p1", "omega", "phi"), metric)


def run_selfcheck(n: int = DEFAULT_DRAWS,
                  seed: int = DEFAULT_SEED) -> list[SuiteResult]:
    """Run every invariant suite on n random draws each; suite k draws from
    seed + k. n must be an integer >= 1 and seed an integer >= 0: the first
    suite's draw_instances call refuses anything else with a ValueError."""
    return [
        check_eigensolver(n, seed),
        check_eigensolver_analytic(),
        check_projector_difference(n, seed + 2),
        check_projection_consistency(n, seed + 3),
        check_separated_statistics(n, seed + 4),
        check_incoherent_operations(n, seed + 5),
        check_closed_form_reductions(n, seed + 6),
        check_game_bounds(n, seed + 7),
        check_statistics_roles(n, seed + 8),
        check_povm_oracle(n, seed + 9),
    ]
