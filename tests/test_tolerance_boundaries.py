"""Entries of the tolerance table (sloccsim.tolerances), each tested with
one input just inside and one just outside its boundary, so that moving
the entry past either input fails a test: VANISHING_TOL,
EIGENVALUE_FLOOR, POVM_COMPLETENESS_TOL, PHASE_ANCHOR_TOL,
HERMITICITY_TOL, NORMALIZATION_TOL, P_ERR_CAP and P_ERR_FLOOR."""

import math

import numpy as np
import pytest

from sloccsim.discrimination import (
    PhaseChannel,
    Povm,
    closed_form_error_general,
    closed_form_error_general_columns,
    closed_form_error_product,
)
from sloccsim.experiments import SweepRecord
from sloccsim.linalg import canonical_phase
from sloccsim.states import (
    SQRT_HALF,
    DensityMatrix4,
    OverlapAmplitudes,
    PureProduct,
    SpinLabel,
    SpinSuperposition,
    Statistics,
    VanishingProjection,
    is_incoherent,
    project_pure,
)

CHANNEL = PhaseChannel(omega=(1.0, 3.0, 2.0, 0.0), phi=(2.0, 0.0),
                       priors=(0.4, 0.6))


def weak_game(weight: float) -> OverlapAmplitudes:
    """Amplitudes whose only nonzero branch, l' r, has squared magnitude
    weight: the (down, up) projection and both superposition branches
    weigh weight in all."""
    return OverlapAmplitudes(l=0.0, r=1.0, l_prime=math.sqrt(weight),
                             r_prime=0.0)


@pytest.mark.parametrize("weight, vanishes", [(5e-15, True), (2e-14, False)])
def test_vanishing_tol_boundary(weight, vanishes):
    amps = weak_game(weight)
    prep = SpinSuperposition(up_amp=SQRT_HALF, down_amp=SQRT_HALF)
    calls = (
        lambda: closed_form_error_product(amps, CHANNEL),
        lambda: closed_form_error_general(prep, amps, Statistics.FERMION,
                                          CHANNEL),
        lambda: project_pure(PureProduct(SpinLabel.DOWN, SpinLabel.UP), amps,
                             Statistics.BOSON),
    )
    for call in calls:
        if vanishes:
            with pytest.raises(VanishingProjection):
                call()
        else:
            call()
    p_err, vanishing = closed_form_error_general_columns(
        (prep.up_amp, prep.down_amp), (amps.l, amps.r, amps.l_prime,
                                       amps.r_prime),
        np.array([1, -1]), CHANNEL.omega, CHANNEL.phi12, CHANNEL.priors)
    assert vanishing.tolist() == [vanishes, vanishes]
    assert np.isnan(p_err).tolist() == [vanishes, vanishes]


@pytest.mark.parametrize("smallest, accepted", [(-1e-9, False),
                                                (-1e-11, True)])
def test_eigenvalue_floor_boundary(smallest, accepted):
    # unit trace: the smallest eigenvalue is taken from the third
    diag = np.array([0.5, 0.25, 0.25 - smallest, smallest])
    mat = np.diag(diag).astype(complex)
    if accepted:
        DensityMatrix4(mat=mat, trace_raw=1.0)
    else:
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix4(mat=mat, trace_raw=1.0)


@pytest.mark.parametrize("excess, accepted", [(1e-9, False), (1e-11, True)])
def test_povm_completeness_tol_boundary(excess, accepted):
    # the elements sum to I + excess * E_00
    first = np.diag([1.0 + excess, 0.0, 0.0, 0.0]).astype(complex)
    second = np.diag([0.0, 1.0, 1.0, 1.0]).astype(complex)
    if accepted:
        Povm(elements=(first, second))
    else:
        with pytest.raises(ValueError, match="sum to the identity"):
            Povm(elements=(first, second))


@pytest.mark.parametrize("lead, anchored", [(1e-11, True), (1e-13, False)])
def test_phase_anchor_tol_boundary(lead, anchored):
    # an imaginary leading entry of magnitude lead, then a real one
    v = np.array([1j * lead, math.sqrt(1.0 - lead * lead), 0.0, 0.0])
    out = canonical_phase(v)
    if anchored:
        # rotated by -i: the lead becomes real positive
        assert out[0] == pytest.approx(lead, rel=1e-12)
        assert out[1].real == 0.0 and out[1].imag < 0.0
    else:
        # anchored on the second entry, which is already real positive
        assert np.array_equal(out, v)


def quarter_identity(defect: float = 0.0) -> np.ndarray:
    """I / 4, with entry (0, 1) off its mirror image (1, 0) by defect."""
    mat = np.diag([0.25] * 4).astype(complex)
    mat[0, 1] += defect
    return mat


@pytest.mark.parametrize("defect, accepted", [(1e-11, False), (1e-13, True)])
def test_hermiticity_tol_boundary_on_density_matrix(defect, accepted):
    mat = quarter_identity(defect)
    if accepted:
        DensityMatrix4(mat=mat, trace_raw=1.0)
    else:
        with pytest.raises(ValueError, match="density matrix is not Hermitian"):
            DensityMatrix4(mat=mat, trace_raw=1.0)


@pytest.mark.parametrize("defect, accepted", [(1e-11, False), (1e-13, True)])
def test_hermiticity_tol_boundary_on_povm(defect, accepted):
    # I/2 + I/2, the first with the defect
    elements = (quarter_identity(defect) + quarter_identity(),
                2.0 * quarter_identity())
    if accepted:
        Povm(elements=elements)
    else:
        with pytest.raises(ValueError, match="POVM element not Hermitian"):
            Povm(elements=elements)


@pytest.mark.parametrize("excess, accepted", [(1e-11, False), (1e-13, True)])
def test_normalization_tol_boundary_on_priors(excess, accepted):
    priors = (0.4, 0.6 + excess)
    if accepted:
        PhaseChannel(omega=CHANNEL.omega, phi=CHANNEL.phi, priors=priors)
    else:
        with pytest.raises(ValueError, match="priors must sum to 1"):
            PhaseChannel(omega=CHANNEL.omega, phi=CHANNEL.phi, priors=priors)


@pytest.mark.parametrize("entry, incoherent", [(1e-11, False), (1e-13, True)])
def test_normalization_tol_boundary_on_coherence(entry, incoherent):
    mat = np.diag([0.25] * 4).astype(complex)
    mat[0, 1] = mat[1, 0] = entry
    assert is_incoherent(DensityMatrix4(mat=mat, trace_raw=1.0)) is incoherent


@pytest.mark.parametrize("excess, accepted", [(1e-11, False), (1e-13, True)])
def test_p_err_cap_boundary(excess, accepted):
    value = 0.5 + excess
    if accepted:
        assert SweepRecord(coordinates={}, p_err_boson=value).p_err_boson == value
    else:
        with pytest.raises(ValueError, match="outside"):
            SweepRecord(coordinates={}, p_err_boson=value)


@pytest.mark.parametrize("value, accepted", [(-1e-14, False), (-1e-16, True)])
def test_p_err_floor_boundary(value, accepted):
    if accepted:
        assert SweepRecord(coordinates={}, p_err_boson=value).p_err_boson == value
    else:
        with pytest.raises(ValueError, match="outside"):
            SweepRecord(coordinates={}, p_err_boson=value)
