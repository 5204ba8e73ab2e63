"""Seeded input generation for the three benchmark workloads.

`make_plan` writes every config file a workload reads into a work directory
and returns the plan: the CLI argument lists to run, the check each output
must pass, and the exit code each call must end with. Generation happens
before any timing starts, uses only the standard library, and depends on
nothing but the workload name and the seed.

A plan is a dict:

    warmup  ops run once, untimed and unchecked, before measuring
    passes  list of pass templates; the worker cycles through them in order
            and each pass runs every op of one template

and each op is {"argv": [...], "expect_exit": int, "check": {...}}; a
check that names an "out" file expects the op to write it (exit 0) or to
leave it absent (any other exit).
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("figures", "check", "scenarios")
PRESETS = ("fig3a", "fig3b", "fig4", "fig5")

# The custom grid is fixed so that its JSON output has a stored reference
# hash. up_amp = 0 leaves only the down-down branch, whose fermion weight
# |l r' - l' r|^2 vanishes at the grid point l_prime = r = 0.5, so the
# flagged-record path runs on every pass.
CUSTOM_SWEEP = {
    "sweep": {
        "figure": "custom",
        "grid": [
            {"name": "l_prime", "min": 0.0, "max": 0.8, "points": 41},
            {"name": "r", "min": 0.0, "max": 0.8, "points": 41},
        ],
        "fixed": {
            "mode": "superposition",
            "p1": 0.4,
            "phi12": 2.0,
            "l": 0.5,
            "r_prime": 0.5,
            "up_amp": 0.0,
            "down_amp": 1.0,
            "omega": {"down_down": 1.5, "down_up": 3.0, "up_down": 2.0,
                      "up_up": 0.0},
        },
    },
}

CHECK_DRAWS = 1000
CHECK_TEMPLATES = 64

# Scenario stream: every (command, preparation, statistics, format) cell
# that must succeed, each the same number of times, plus the error kinds,
# so that the mix, and with it the latency distribution, is the same for
# every seed. 22 cells x 18 + 4 kinds x 11 = 440 calls, 10 % of them errors.
SCENARIO_CELLS = tuple(
    [("project", kind, stats, fmt)
     for kind, stats_options in (
         ("mixed_diagonal", ("boson", "fermion", "distinguishable")),
         ("pure_product", ("boson", "fermion")),
         ("spin_superposition", ("boson", "fermion")))
     for stats in stats_options
     for fmt in ("json", "csv")]
    + [("discriminate", kind, stats, fmt)
       for kind in ("pure_product", "spin_superposition")
       for stats in ("boson", "fermion")
       for fmt in ("json", "csv")])
SCENARIO_REPEATS = 18
ERROR_KINDS = ("unknown_key", "amplitudes_over_one",
               "distinguishable_pure", "fermion_equal_spins_full_overlap")
ERROR_REPEATS = 11

# Smallest localized weight a valid scenario may have; it keeps every
# projection far from the vanishing tolerance, whatever the statistics.
MIN_WEIGHT = 1e-2


def make_plan(workload: str, seed: int, workdir: Path) -> dict:
    """Write the workload's inputs under workdir and return its plan."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "figures":
        return _figures_plan(seed, workdir)
    if workload == "check":
        return _check_plan(seed)
    if workload == "scenarios":
        return _scenarios_plan(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}; expected one of "
                     f"{', '.join(WORKLOADS)}")


def _figures_plan(seed: int, workdir: Path) -> dict:
    config = workdir / "custom_sweep.json"
    config.write_text(json.dumps(CUSTOM_SWEEP, indent=2), encoding="utf-8")
    ops = [{"argv": ["sweep", "--preset", name,
                     "--out", str(workdir / f"{name}.csv")],
            "expect_exit": 0,
            "check": {"kind": "sha256", "reference": name, "format": "csv",
                      "out": str(workdir / f"{name}.csv")}}
           for name in PRESETS]
    ops.append({"argv": ["sweep", "--config", str(config), "--format", "json",
                         "--out", str(workdir / "custom.json")],
                "expect_exit": 0,
                "check": {"kind": "sha256", "reference": "custom",
                          "format": "json",
                          "out": str(workdir / "custom.json")}})
    random.Random(seed).shuffle(ops)
    warmup = [{"argv": ["sweep", "--preset", "fig3a",
                        "--out", str(workdir / "warmup.csv")]}]
    return {"warmup": warmup, "passes": [ops]}


def _check_plan(seed: int) -> dict:
    rng = random.Random(seed)
    passes = [[{"argv": ["check", "--n", str(CHECK_DRAWS),
                         "--seed", str(rng.randrange(2**31))],
                "expect_exit": 0,
                "check": {"kind": "selfcheck", "draws": CHECK_DRAWS}}]
              for _ in range(CHECK_TEMPLATES)]
    warmup = [{"argv": ["check", "--n", "20", "--seed", "1"]}]
    return {"warmup": warmup, "passes": passes}


# ---------------------------------------------------------------------------
# scenario generator


def _complex_value(rng: random.Random, z: complex):
    """A complex number in one of the two accepted spellings."""
    if z.imag == 0.0 and rng.random() < 0.5:
        return z.real
    return [z.real, z.imag]


def _random_pair(rng: random.Random) -> tuple[complex, complex]:
    """Two region amplitudes with |a|^2 + |b|^2 <= 1."""
    while True:
        a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if rng.random() < 0.3:
            a, b = complex(a.real, 0.0), complex(b.real, 0.0)
        if abs(a) ** 2 + abs(b) ** 2 <= 0.999:
            return a, b


def _random_overlaps(rng: random.Random) -> tuple[complex, ...]:
    """(l, r, l_prime, r_prime) whose direct and both exchange-combined
    weights exceed MIN_WEIGHT, so no projection can vanish."""
    while True:
        l, r = _random_pair(rng)
        lp, rp = _random_pair(rng)
        direct, exchanged = l * rp, lp * r
        if (abs(direct) ** 2 > MIN_WEIGHT
                and abs(direct + exchanged) ** 2 > MIN_WEIGHT
                and abs(direct - exchanged) ** 2 > MIN_WEIGHT):
            return l, r, lp, rp


def _random_preparation(rng: random.Random, kind: str) -> dict:
    if kind == "mixed_diagonal":
        weights = [rng.random() + 0.01 for _ in range(4)]
        total = sum(weights)
        return {"kind": kind, "weights": [w / total for w in weights]}
    if kind == "pure_product":
        return {"kind": kind, "first": rng.choice(("down", "up")),
                "second": rng.choice(("down", "up"))}
    angle = rng.uniform(0.1, 0.5 * math.pi - 0.1)
    phase = rng.uniform(-math.pi, math.pi)
    up = complex(math.cos(angle), 0.0)
    down = complex(math.sin(angle) * math.cos(phase),
                   math.sin(angle) * math.sin(phase))
    return {"kind": kind, "up_amp": _complex_value(rng, up),
            "down_amp": _complex_value(rng, down)}


def _random_channel(rng: random.Random) -> dict:
    p1 = rng.uniform(0.05, 0.95)
    omega = [rng.uniform(-5.0, 5.0) for _ in range(4)]
    return {"omega": dict(zip(("down_down", "down_up", "up_down", "up_up"),
                              omega)),
            "phases": [rng.uniform(-math.pi, math.pi),
                       rng.uniform(-math.pi, math.pi)],
            "priors": [p1, 1.0 - p1]}


def _scenario_config(rng: random.Random, kind: str, stats: str,
                     overlaps: tuple[complex, ...] | None = None) -> dict:
    l, r, lp, rp = overlaps or _random_overlaps(rng)
    return {
        "preparation": _random_preparation(rng, kind),
        "overlaps": {"l": _complex_value(rng, l), "r": _complex_value(rng, r),
                     "l_prime": _complex_value(rng, lp),
                     "r_prime": _complex_value(rng, rp)},
        "statistics": stats,
        "channel": _random_channel(rng),
    }


def _error_config(rng: random.Random, error: str,
                  command: str) -> tuple[dict, int]:
    """A config that must be refused, and the exit code it must end with."""
    if error == "unknown_key":
        kind = ("pure_product" if command == "discriminate"
                else "mixed_diagonal")
        config = _scenario_config(rng, kind, "boson")
        config["colour"] = "blue"
        return config, 2
    if error == "amplitudes_over_one":
        config = _scenario_config(rng, "pure_product", "fermion")
        config["overlaps"]["l"] = 0.9
        config["overlaps"]["r"] = 0.9
        return config, 2
    if error == "distinguishable_pure":
        kind = rng.choice(("pure_product", "spin_superposition"))
        return _scenario_config(rng, kind, "distinguishable"), 2
    # Two fermions in the same spin, one wavefunction for both: the direct
    # and exchanged branches cancel exactly (a*a - a*a == 0).
    a = complex(rng.uniform(0.2, 0.7), 0.0)
    config = _scenario_config(rng, "pure_product", "fermion",
                              overlaps=(a, a, a, a))
    spin = rng.choice(("down", "up"))
    config["preparation"] = {"kind": "pure_product", "first": spin,
                             "second": spin}
    return config, 3


def _scenario_op(index: int, workdir: Path, command: str, config: dict,
                 fmt: str, expect_exit: int) -> dict:
    out = workdir / f"out_{index:04d}.{fmt}"
    argv = [command, "--config", str(workdir / f"config_{index:04d}.json")]
    if fmt == "json":
        # JSON output is requested through the config's output section,
        # CSV through the command-line flags, so both routes run.
        config["output"] = {"path": str(out), "format": "json"}
    else:
        argv += ["--format", "csv", "--out", str(out)]
    Path(argv[2]).write_text(json.dumps(config), encoding="utf-8")
    check = {"kind": command, "format": fmt, "out": str(out)}
    if expect_exit == 0 and command == "discriminate":
        check["priors"] = config["channel"]["priors"]
    if expect_exit == 0 and command == "project":
        check["distinguishable"] = config["statistics"] == "distinguishable"
    return {"argv": argv, "expect_exit": expect_exit, "check": check}


def _scenarios_plan(seed: int, workdir: Path) -> dict:
    rng = random.Random(seed)
    specs = [cell for cell in SCENARIO_CELLS for _ in range(SCENARIO_REPEATS)]
    specs += [("error", error, None, None) for error in ERROR_KINDS
              for _ in range(ERROR_REPEATS)]
    rng.shuffle(specs)
    ops = []
    for index, (command, kind, stats, fmt) in enumerate(specs):
        if command == "error":
            command = rng.choice(("project", "discriminate"))
            config, code = _error_config(rng, kind, command)
            fmt = rng.choice(("json", "csv"))
        else:
            config, code = _scenario_config(rng, kind, stats), 0
        ops.append(_scenario_op(index, workdir, command, config, fmt, code))
    return {"warmup": ops[:len(SCENARIO_CELLS)], "passes": [ops]}
