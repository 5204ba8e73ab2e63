"""Shared random generators for the test suite (all seeded by callers)."""

import math

from sloccsim.discrimination import PhaseChannel, apply_phase, helstrom_error
from sloccsim.states import MixedDiagonal, OverlapAmplitudes, Statistics


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
