"""Localized projections of two identical spins and the phase-guessing game
their basis coherence wins.

The package is organised bottom-up:

    linalg          small dense complex vectors/matrices and the Hermitian
                    eigensolver (LAPACK through numpy, stacked)
    states          preparations, projections onto the localized basis,
                    coherence classification, the region-controlled NOT
    discrimination  the two-phase guessing game: closed-form minimum error
                    probabilities and the spectral optimal-measurement oracle
    experiments     parameter sweeps (figure presets), the random-instance
                    generator and the oracle-equivalence campaign
    cli             `sloccsim` command line front end
"""

from .linalg import EigenPair, eigh
from .states import (
    BASIS_LABELS,
    DensityMatrix4,
    MixedDiagonal,
    OverlapAmplitudes,
    PureProduct,
    SpinLabel,
    SpinSuperposition,
    StateVector4,
    Statistics,
    VanishingProjection,
    basis_index,
    cnot_slocc,
    coherence_l1,
    is_incoherent,
    project_distinguishable,
    project_mixed,
    project_pure,
    project_superposition,
)
from .discrimination import (
    DiscriminationOutcome,
    PhaseChannel,
    Povm,
    apply_phase,
    closed_form_error_balanced,
    closed_form_error_general,
    closed_form_error_product,
    dephase_channel_check,
    helstrom_error,
    optimal_povm,
)
from .experiments import (
    OracleCampaignSummary,
    SweepAxis,
    SweepColumns,
    SweepSpec,
    preset_spec,
    run_oracle_campaign,
    run_sweep,
)

__all__ = [
    "BASIS_LABELS",
    "DensityMatrix4",
    "DiscriminationOutcome",
    "EigenPair",
    "MixedDiagonal",
    "OracleCampaignSummary",
    "OverlapAmplitudes",
    "PhaseChannel",
    "Povm",
    "PureProduct",
    "SpinLabel",
    "SpinSuperposition",
    "StateVector4",
    "Statistics",
    "SweepAxis",
    "SweepColumns",
    "SweepSpec",
    "VanishingProjection",
    "apply_phase",
    "basis_index",
    "closed_form_error_balanced",
    "closed_form_error_general",
    "closed_form_error_product",
    "cnot_slocc",
    "coherence_l1",
    "dephase_channel_check",
    "eigh",
    "helstrom_error",
    "is_incoherent",
    "optimal_povm",
    "preset_spec",
    "project_distinguishable",
    "project_mixed",
    "project_pure",
    "project_superposition",
    "run_oracle_campaign",
    "run_sweep",
]

__version__ = "0.1.0"
