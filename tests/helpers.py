"""Shared random generators for the test suite (all seeded by callers),
the per-point reference of the closed form, and the inverse of the CLI's
scenario parser."""

import cmath
import math

from sloccsim.discrimination import (
    UP_ONLY,
    PhaseChannel,
    apply_phase,
    helstrom_error,
)
from sloccsim.cli import ScenarioConfig
from sloccsim.states import (
    BASIS_LABELS,
    VANISHING_TOL,
    MixedDiagonal,
    OverlapAmplitudes,
    PureProduct,
    Statistics,
    VanishingProjection,
)


def random_amplitudes(rng, real_only=False, min_overlap=0.0):
    """Draw admissible overlap amplitudes, optionally with a floor on |l' r|."""
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
        if abs(amps.l * amps.r_prime) ** 2 + abs(amps.l_prime * amps.r) ** 2 > 1e-3 \
                and abs(amps.l_prime * amps.r) >= min_overlap:
            return amps


def random_mixture(rng):
    w = rng.uniform(0.0, 1.0, 4)
    w /= w.sum()
    return MixedDiagonal(weights=tuple(w))


def random_channel(rng, phi12=None, p1=None):
    if p1 is None:
        p1 = float(rng.uniform(0.0, 1.0))
    omega = tuple(rng.uniform(-5.0, 5.0, 4))
    phi2 = float(rng.uniform(-math.pi, math.pi))
    if phi12 is None:
        phi12 = float(rng.uniform(-2.0 * math.pi, 2.0 * math.pi))
    return PhaseChannel(omega=omega, phi=(phi2 + phi12, phi2), priors=(p1, 1.0 - p1))


def boson_fermion_errors(project, prep, amps, channel):
    """The game's error for bosons and for fermions, by Helstrom's bound on
    the projected state's two phased hypotheses: project, then apply_phase,
    then helstrom_error."""
    def error(stats):
        state = project(prep, amps, stats)
        return helstrom_error(*channel.priors, apply_phase(channel, 1, state),
                              apply_phase(channel, 2, state))
    return error(Statistics.BOSON), error(Statistics.FERMION)


def closed_form_reference(prep, amps, stats, channel) -> float:
    """The superposition closed form at one point, in Python complex
    numbers and cmath.exp: the reference the library's column form must
    equal bit for bit. The down-down branch is skipped for a preparation
    without a down component, as in the library. Raises VanishingProjection
    with the library's message, checked before the weights' overflow."""
    eta = stats.eta
    direct = amps.l * amps.r_prime
    exchanged = amps.l_prime * amps.r
    a_weight = abs(direct) ** 2
    b_weight = abs(exchanged) ** 2
    c_weight = abs(direct + eta * exchanged) ** 2
    up_sq = abs(prep.up_amp) ** 2
    down_sq = abs(prep.down_amp) ** 2
    norm_sq = up_sq * (a_weight + b_weight) + down_sq * c_weight
    if norm_sq < VANISHING_TOL:
        raise VanishingProjection(
            f"superposition preparation with eta={eta:+d} has vanishing weight "
            "on the localized basis")
    phi12 = channel.phi12
    weights = channel.omega[:3] if down_sq else channel.omega[1:3]
    if not all(math.isfinite(w * phi12) for w in weights):
        raise ValueError("generator weight times phi12 overflows")
    mixed = up_sq * (a_weight * cmath.exp(1j * channel.omega[1] * phi12)
                     + b_weight * cmath.exp(1j * channel.omega[2] * phi12))
    if down_sq:
        mixed += down_sq * c_weight * cmath.exp(1j * channel.omega[0] * phi12)
    p1, p2 = channel.priors
    disc = max(1.0 - 4.0 * p1 * p2 * abs(mixed / norm_sq) ** 2, 0.0)
    return 0.5 * (1.0 - math.sqrt(disc))


def product_reference(amps, channel) -> float:
    """closed_form_reference on the up-only preparation, with the library's
    product-game message."""
    try:
        return closed_form_reference(UP_ONLY, amps, Statistics.BOSON, channel)
    except VanishingProjection:
        raise VanishingProjection(
            "product preparation has vanishing weight on the localized "
            "basis") from None


def complex_pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _preparation_to_dict(prep) -> dict:
    if isinstance(prep, MixedDiagonal):
        return {"kind": "mixed_diagonal", "weights": list(prep.weights)}
    if isinstance(prep, PureProduct):
        return {"kind": "pure_product", "first": prep.first.name.lower(),
                "second": prep.second.name.lower()}
    return {"kind": "spin_superposition",
            "up_amp": complex_pair(prep.up_amp),
            "down_amp": complex_pair(prep.down_amp)}


def scenario_to_dict(config: ScenarioConfig) -> dict:
    """The JSON value tree that cli.scenario_from_dict parses into config."""
    data = {
        "preparation": _preparation_to_dict(config.preparation),
        "overlaps": {
            "l": complex_pair(config.overlaps.l),
            "r": complex_pair(config.overlaps.r),
            "l_prime": complex_pair(config.overlaps.l_prime),
            "r_prime": complex_pair(config.overlaps.r_prime),
        },
        "statistics": config.statistics.value,
        "channel": {
            "omega": dict(zip(BASIS_LABELS, config.channel.omega)),
            "phases": list(config.channel.phi),
            "priors": list(config.channel.priors),
        },
    }
    if config.output is not None:
        data["output"] = {"path": config.output.path,
                          "format": config.output.format}
    return data
