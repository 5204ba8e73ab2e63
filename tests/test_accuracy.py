"""Accuracy of the preset sweeps and the discriminate results against an
exact reference.

Every value column of the four figure presets, and the two error routes
and λ+ of the four golden discriminate cells, are compared with a 40-digit
mpmath evaluation of the paper's overlap formula and Helstrom's bound. The
projected state puts weight w_j on localized basis state j, and the phase
ω_j φ_k on it under hypothesis k, so

    |<ψ1|ψ2>| = |Σ_j w_j exp(i ω_j φ12)| / Σ_j w_j,
    disc = 1 - 4 p1 p2 |<ψ1|ψ2>|^2,
    p_err = (1 - sqrt(disc)) / 2    (Helstrom 1976),
    λ+ = ((p1 - p2) + sqrt(disc)) / 2,

λ+ being the positive eigenvalue of p1 ρ1 - p2 ρ2.

The weights are |l r'|^2 on down_up and |l' r|^2 on up_down. A
superposition scales both by |up_amp|^2 and adds
|down_amp|^2 |l r' + η l' r|^2 on down_down, with η = +1 for bosons and -1
for fermions. The separated baseline sets l' = r = 0.

The reference imports nothing from sloccsim: the presets' fixed parameters
and the discriminate config are restated below, and the values are read
back from JSON output, which prints each float64 exactly (CSV's 15
significant digits would add up to 3e-15 of printing error). Each bound is
the worst absolute error of its column or field when the bound was
recorded, so a change that moves any value further from the exact one
fails here.
"""

import contextlib
import functools
import io
import json
import math

import mpmath
import pytest

from sloccsim.cli import EXIT_OK, main

DIGITS = 40

S = math.sqrt(0.5)
BALANCED = dict(l=S, r=S, l_prime=S, r_prime=S)
OMEGA_AXES = ("omega_dd", "omega_du", "omega_ud", "omega_uu")

# the fixed parameters of each preset, in the library's float64 values
PRESETS = {
    "fig3a": dict(mode="product", p1=1.0 / 3.0, omega=(0.0, 1.0, 0.0, 0.0),
                  **BALANCED),
    "fig3b": dict(mode="product", p1=1.0 / 3.0, omega=(0.0, 1.0, 0.0, 0.0),
                  phi12=math.pi, l=S, r_prime=S),
    "fig4": dict(mode="superposition", p1=1.0 / 3.0,
                 omega=(1.0, 3.0, 2.0, 0.0), up_amp=S, down_amp=S,
                 **BALANCED),
    "fig5": dict(mode="superposition", p1=1.0 / 3.0,
                 omega=(0.0, 3.0, 2.0, 0.0), up_amp=S, down_amp=S,
                 **BALANCED),
}

# the worst absolute error of each value column against the reference,
# rounded up at two significant digits
BOUNDS = {
    "fig3a": {"p_err_overlap": 2.4e-16, "p_err_baseline": 1.2e-16},
    "fig3b": {"p_err_overlap": 3.0e-16, "p_err_baseline": 5.6e-17},
    "fig4": {"p_err_baseline": 3.8e-16, "p_err_boson": 3.2e-16,
             "p_err_fermion": 3.7e-16},
    "fig5": {"p_err_baseline": 6.9e-16, "p_err_boson": 4.6e-16,
             "p_err_fermion": 2.8e-16},
}


@functools.cache
def _phase(omega: float, phi12: float) -> tuple:
    """cos and sin of omega * phi12, the product taken exactly."""
    return mpmath.cos_sin(mpmath.mpf(omega) * phi12)


def _overlap_sq(weights: dict, omega: list, phi12):
    """|<ψ1|ψ2>|^2 for weights {basis index: w_j} under the generator
    omega."""
    re = im = mpmath.mpf(0)
    for index, weight in weights.items():
        cos, sin = _phase(omega[index], phi12)
        re += weight * cos
        im += weight * sin
    return (re * re + im * im) / sum(weights.values()) ** 2


def _helstrom(p1: float, weights: dict, omega: list, phi12: float):
    """p_err for weights {basis index: w_j} under the generator omega."""
    p1 = mpmath.mpf(p1)
    overlap_sq = _overlap_sq(weights, omega, phi12)
    return (1 - mpmath.sqrt(1 - 4 * p1 * (1 - p1) * overlap_sq)) / 2


def reference(fixed: dict, coordinates: dict) -> dict:
    """The exact value of every column the preset's mode fills at one grid
    point."""
    params = {**fixed, **coordinates}
    omega = [params.get(name, weight)
             for name, weight in zip(OMEGA_AXES, fixed["omega"])]
    l, r, l_prime, r_prime = (mpmath.mpf(params[key])
                              for key in ("l", "r", "l_prime", "r_prime"))
    direct = (l * r_prime) ** 2
    exchanged = (l_prime * r) ** 2
    p1, phi12 = params["p1"], params["phi12"]
    if fixed["mode"] == "product":
        return {
            "p_err_overlap": _helstrom(p1, {1: direct, 2: exchanged}, omega,
                                       phi12),
            "p_err_baseline": _helstrom(p1, {1: direct}, omega, phi12),
        }
    up_sq = mpmath.mpf(params["up_amp"]) ** 2
    down_sq = mpmath.mpf(params["down_amp"]) ** 2
    values = {"p_err_baseline": _helstrom(
        p1, {0: down_sq * direct, 1: up_sq * direct}, omega, phi12)}
    for column, eta in (("p_err_boson", 1), ("p_err_fermion", -1)):
        symmetrized = (l * r_prime + eta * l_prime * r) ** 2
        values[column] = _helstrom(
            p1, {0: down_sq * symmetrized, 1: up_sq * direct,
                 2: up_sq * exchanged}, omega, phi12)
    return values


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_columns_match_the_exact_reference(name):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["sweep", "--preset", name, "--format", "json"]) == EXIT_OK
    records = json.loads(stdout.getvalue())["records"]
    worst = dict.fromkeys(BOUNDS[name], 0.0)
    with mpmath.workdps(DIGITS):
        for record in records:
            assert record["flag"] == ""
            exact = reference(PRESETS[name], record["coordinates"])
            assert exact.keys() == worst.keys()
            for column, value in exact.items():
                worst[column] = max(worst[column],
                                    float(abs(record[column] - value)))
    assert {column: error for column, error in worst.items()
            if error > BOUNDS[name][column]} == {}


# ---------------------------------------------------------------------------
# the golden discriminate cells

# The config of the golden scenario cells (tests/test_cli.py), played by a
# (down, up) product and by a spin superposition, for bosons and fermions.
SCENARIO_OVERLAPS = {"l": 0.6, "r": [0.3, 0.2], "l_prime": [0.5, -0.1],
                     "r_prime": 0.7}
SCENARIO_OMEGA = {"down_down": 0.5, "down_up": 1.5, "up_down": -1.0,
                  "up_up": 2.0}
SCENARIO_PHASES = [0.3, 2.1]
SCENARIO_PRIORS = [0.4, 0.6]
SCENARIO_PREPARATIONS = {
    "pure_product": {"kind": "pure_product", "first": "down", "second": "up"},
    "spin_superposition": {"kind": "spin_superposition", "up_amp": 0.6,
                           "down_amp": [0.0, 0.8]},
}
ETA = {"boson": 1, "fermion": -1}

# the worst absolute error of each field over the four cells, rounded up
# at two significant digits
SCENARIO_BOUNDS = {"p_err_closed_form": 6.2e-17, "p_err_povm": 3.5e-16,
                   "lambda_plus": 1.1e-16}


def _complex(value) -> mpmath.mpc:
    """A config number or [re, im] pair, exactly."""
    return mpmath.mpc(*value) if isinstance(value, list) else mpmath.mpc(value)


def scenario_reference(kind: str, eta: int) -> dict:
    """The exact p_err and λ+ of one discriminate cell. A (down, up)
    product puts |l r'|^2 on down_up and |l' r|^2 on up_down, whatever the
    statistics; a superposition weights those by |up_amp|^2 and adds
    |down_amp|^2 |l r' + η l' r|^2 on down_down."""
    l, r, l_prime, r_prime = (_complex(SCENARIO_OVERLAPS[key])
                              for key in ("l", "r", "l_prime", "r_prime"))
    direct = abs(l * r_prime) ** 2
    exchanged = abs(l_prime * r) ** 2
    if kind == "pure_product":
        weights = {1: direct, 2: exchanged}
    else:
        prep = SCENARIO_PREPARATIONS[kind]
        up_sq = abs(_complex(prep["up_amp"])) ** 2
        down_sq = abs(_complex(prep["down_amp"])) ** 2
        weights = {0: down_sq * abs(l * r_prime + eta * l_prime * r) ** 2,
                   1: up_sq * direct, 2: up_sq * exchanged}
    omega = list(SCENARIO_OMEGA.values())
    phi12 = mpmath.mpf(SCENARIO_PHASES[0]) - mpmath.mpf(SCENARIO_PHASES[1])
    p1, p2 = (mpmath.mpf(p) for p in SCENARIO_PRIORS)
    root = mpmath.sqrt(1 - 4 * p1 * p2 * _overlap_sq(weights, omega, phi12))
    p_err = (1 - root) / 2
    return {"p_err_closed_form": p_err, "p_err_povm": p_err,
            "lambda_plus": (p1 - p2 + root) / 2}


@pytest.mark.parametrize("kind", sorted(SCENARIO_PREPARATIONS))
@pytest.mark.parametrize("stats", sorted(ETA))
def test_discriminate_cell_matches_the_exact_reference(tmp_path, kind,
                                                       stats):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "preparation": SCENARIO_PREPARATIONS[kind],
        "overlaps": SCENARIO_OVERLAPS, "statistics": stats,
        "channel": {"omega": SCENARIO_OMEGA, "phases": SCENARIO_PHASES,
                    "priors": SCENARIO_PRIORS}}), encoding="utf-8")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["discriminate", "--config", str(config)]) == EXIT_OK
    result = json.loads(stdout.getvalue())
    with mpmath.workdps(DIGITS):
        exact = scenario_reference(kind, ETA[stats])
        errors = {field: float(abs(result[field] - value))
                  for field, value in exact.items()}
    assert {field: error for field, error in errors.items()
            if error > SCENARIO_BOUNDS[field]} == {}
