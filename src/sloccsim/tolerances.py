"""Every numerical threshold of the package, in one table.

Each entry is the one definition of its value; the modules that apply a
threshold import it from here, and the README cites this table. This
module imports nothing from the package, so any module can read it.
"""

# Largest deviation from 1 accepted for a sum that must be 1 (priors,
# mixture weights, a state's norm, a density matrix's trace, a spin
# superposition) or at most 1 (an amplitude pair's norm), and the largest
# off-diagonal magnitude of a matrix still classed as incoherent.
NORMALIZATION_TOL = 1e-12

# Largest entry of |a - a^dagger| accepted as Hermitian, by eigh_stack,
# DensityMatrix4 and Povm; a smaller defect is symmetrized away.
HERMITICITY_TOL = 1e-12

# Smallest entry magnitude of a unit eigenvector that anchors its global
# phase (canonical_phase).
PHASE_ANCHOR_TOL = 1e-12

# A projection whose norm^2 (or trace) is below this vanishes: the
# preparation has no support on the localized subspace.
VANISHING_TOL = 1e-14

# Most negative eigenvalue a DensityMatrix4 or a POVM element may have.
EIGENVALUE_FLOOR = -1e-10

# Largest entry of |sum of POVM elements - I| a Povm accepts.
POVM_COMPLETENESS_TOL = 1e-10

# Helstrom's top eigenvalue at or below this leaves the optimal POVM's first
# element zero: "guess phase 1" never pays.
DEGENERATE_LAMBDA_TOL = 1e-14

# Largest disagreement of the three error routes (closed form, Helstrom on
# the projected states, spectral POVM) the oracle campaign accepts.
ORACLE_TOL = 1e-10

# Each check suite's tolerance on its worst metric, in report order.
SUITE_TOLERANCES = {
    "eigensolver_random_hermitian": 1e-10,
    "eigensolver_analytic_spectra": 1e-12,
    "projector_difference_spectrum": 1e-10,
    "projection_consistency": 1e-12,
    "separated_particles_statistics_free": 1e-12,
    "incoherent_operations": 1e-14,
    "closed_form_reductions": 1e-12,
    "game_bounds_and_symmetries": 1e-12,
    "product_preparation_statistics_free": 1e-10,
    "oracle_equivalence": ORACLE_TOL,
}

# Test data: draw_instances redraws amplitude rows whose (down, up)
# product-game weight |l r'|^2 + |l' r|^2 is at most this, so no random
# game comes near VANISHING_TOL.
ADMISSIBLE_WEIGHT = 1e-3

# Test data: the check suites that read the labelled-particle projection
# skip draws whose weight |l r'|^2 is below this.
LABELLED_WEIGHT = 1e-6
