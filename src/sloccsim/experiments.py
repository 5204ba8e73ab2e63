"""Parameter sweeps over the discrimination game, and the instance generator.

A sweep walks a rectangular grid (row-major over the axes in declaration
order), evaluates the game's closed forms at each point, and returns one
float64 column per coordinate and per value. The bundled presets
regenerate the standard curves:

    fig3a  error vs. phase difference, overlapping vs. separated particles
    fig3b  error over the (l_prime, r) amplitude square at phi12 = pi
    fig4   error vs. phase difference for bosons/fermions/baseline
    fig5   same comparison over the (phi12, omega_dd) plane

Sweeps are evaluated column-wise. run_sweep builds the grid once with
np.meshgrid and computes each value column in one array pass through the
column form in discrimination, closed_form_error_general_columns; product
sweeps pass the up-only preparation UP_ONLY, which is the (down, up)
product game. The scalar closed forms are one-point calls of the same
column form, so a column value equals what the scalar form returns at
that point. Where a projection vanishes the point is flagged with the
message of the first column, in plan order (product: overlap, baseline;
superposition: baseline, boson, fermion), whose mask is set there. Each
column's message is fixed by its closed form (discrimination's
vanishing_message): the product message, or the superposition message
with the column's exchange phase. No scalar form is re-run to find it.

SweepSpec checks the whole grid before anything is evaluated: axes are
finite, amplitude axes (l_prime, r) are nonnegative, no parameter is both
fixed and swept, the amplitudes stay admissible (|l|^2+|r|^2 and
|l'|^2+|r'|^2 at most 1, to NORMALIZATION_TOL) at each amplitude axis's
maximum, the fixed parameters form a valid channel and preparation, and
the grid has at most MAX_SWEEP_RECORDS points.

draw_instances is the package's one random-instance generator: it yields
stacks of game instances (amplitudes, statistics, channels, mixtures, spin
superpositions, Hermitian matrices and vector pairs) in blocks of
BLOCK_DRAWS. Each field has its own child stream of the seed, and a caller
draws only the fields it names, so a value depends only on (seed, field,
draw index); amplitude rows keep a product-game weight above
ADMISSIBLE_WEIGHT. selfcheck's suites and oracle campaign consume its blocks.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .discrimination import (  # noqa: F401
    UP_ONLY,
    PhaseChannel,
    closed_form_error_general_columns,
    vanishing_message,
    # not called here; perfbench's traced run wraps these names
    apply_phase,
    closed_form_error_general,
    closed_form_error_product,
    helstrom_error,
    optimal_povm,
)
from .linalg import hermitian_part
from .states import (  # noqa: F401
    SQRT_HALF,
    OverlapAmplitudes,
    SpinSuperposition,
    Statistics,
    pair_norm_sq,
    # not called here; perfbench's traced run wraps this name
    project_pure,
)
from .tolerances import ADMISSIBLE_WEIGHT, NORMALIZATION_TOL

MODES = ("product", "superposition")

# the axes a grid may sweep; an omega axis replaces one generator weight,
# in basis order
_OMEGA_AXES = ("omega_dd", "omega_du", "omega_ud", "omega_uu")
AXIS_NAMES = ("phi12", "l_prime", "r", *_OMEGA_AXES)
# swept amplitude -> the fixed amplitude it shares a wavefunction norm with,
# and the norm as OverlapAmplitudes names it
_AMPLITUDE_AXES = {"r": ("l", "|l|^2 + |r|^2"),
                   "l_prime": ("r_prime", "|l_prime|^2 + |r_prime|^2")}

# fixed parameter -> (how a config writes it, superposition only?), where
# a config writes a "mode" as one of MODES, a "real" as a number, a
# "complex" as a number or an [re, im] pair and "omega" as the four
# generator weights by basis label. A sweep needs each parameter its mode
# takes, fixed or swept.
FIXED_PARAMETERS = {
    "mode": ("mode", False), "p1": ("real", False), "phi12": ("real", False),
    "l": ("complex", False), "r": ("complex", False),
    "l_prime": ("complex", False), "r_prime": ("complex", False),
    "omega": ("omega", False),
    "up_amp": ("complex", True), "down_amp": ("complex", True),
}

# Every value column, in output order; a mode fills the columns of its plan.
SWEEP_COLUMNS = ("p_err_overlap", "p_err_baseline", "p_err_boson",
                 "p_err_fermion")
# Value columns per mode, in evaluation order: (column, statistics,
# separated baseline?). Product columns do not depend on the statistics.
_SWEEP_PLAN = {
    "product": (("p_err_overlap", Statistics.BOSON, False),
                ("p_err_baseline", Statistics.BOSON, True)),
    "superposition": (("p_err_baseline", Statistics.BOSON, True),
                      ("p_err_boson", Statistics.BOSON, False),
                      ("p_err_fermion", Statistics.FERMION, False)),
}

# A sweep holds all of its columns at once. The tracemalloc peak of
# evaluating and writing a 10^6-point grid is 81-244 bytes per point: 81-90
# on two axes, 130 on one (no axis broadcasts), 244 when every point is
# flagged. The writer adds one window's printed cells, about 72 bytes a
# cell whatever the sweep's size.
# The cap keeps a sweep under about 500 MB.
MAX_SWEEP_RECORDS = 2_000_000

# Random instances per draw_instances block: the oracle campaign and every
# check suite evaluate one block at a time. A fixed block keeps memory flat
# in the draw count.
BLOCK_DRAWS = 256


@dataclass(frozen=True)
class SweepAxis:
    name: str
    lo: float
    hi: float
    points: int

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ValueError(f"unknown axis {self.name!r}; expected one of "
                             f"{', '.join(AXIS_NAMES)}")
        if self.points < 2:
            raise ValueError(f"axis {self.name!r} needs at least 2 points")
        if not (self.lo < self.hi):
            raise ValueError(f"axis {self.name!r} needs lo < hi")
        if not math.isfinite(self.hi - self.lo):
            raise ValueError(f"axis {self.name!r} needs a finite range, got "
                             f"[{self.lo!r}, {self.hi!r}]")

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.points)


@dataclass(frozen=True)
class SweepSpec:
    figure: str
    grid: tuple[SweepAxis, ...]
    fixed: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.figure not in FIGURES:
            raise ValueError(f"unknown figure {self.figure!r}")
        if not self.grid:
            raise ValueError("sweep needs at least one axis")
        names = [axis.name for axis in self.grid]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate axis names in {names}")
        count = self.record_count()
        if count > MAX_SWEEP_RECORDS:
            raise ValueError(f"sweep grid has {count} points; at most "
                             f"{MAX_SWEEP_RECORDS} are allowed")
        mode = self.fixed.get("mode")
        if mode not in MODES:
            raise ValueError(f"fixed['mode'] must be one of {MODES}, got {mode!r}")
        allowed = {key for key, (_, superposition_only)
                   in FIXED_PARAMETERS.items()
                   if mode == "superposition" or not superposition_only}
        if unknown := set(self.fixed) - allowed:
            raise ValueError(f"unknown fixed parameters: {sorted(unknown)}")
        if overlap := set(self.fixed) & set(names):
            raise ValueError(f"parameters both fixed and swept: {sorted(overlap)}")
        if missing := allowed - set(self.fixed) - set(names):
            raise ValueError(f"missing sweep parameters: {sorted(missing)}")
        self._check_domain()

    def _check_domain(self) -> None:
        """Refuse the grid if any point would fail the game's value checks.

        Only the amplitude axes can move a point out of the domain, and an
        amplitude norm is largest where its axis is: at the axis maximum,
        once the axis is nonnegative. So building the validated game objects
        with every amplitude axis at its maximum covers the whole grid.
        """
        extremes = {axis.name: axis.lo for axis in self.grid}
        for axis in self.grid:
            if axis.name not in _AMPLITUDE_AXES:
                continue
            if axis.lo < 0.0:
                raise ValueError(f"amplitude axis {axis.name!r} must be "
                                 f"nonnegative, got min {axis.lo!r}")
            partner, norm = _AMPLITUDE_AXES[axis.name]
            if (pair_norm_sq(complex(self.fixed[partner]), complex(axis.hi))
                    > 1.0 + NORMALIZATION_TOL):
                raise ValueError(f"amplitude axis {axis.name!r} reaches "
                                 f"{axis.hi!r}, where {norm} exceeds 1")
            extremes[axis.name] = axis.hi
        spin, amps, omega, phi12, priors = _grid_parameters(self, extremes)
        OverlapAmplitudes(*amps)
        PhaseChannel(omega=omega, phi=(phi12, 0.0), priors=priors)
        SpinSuperposition(*spin)

    @property
    def mode(self) -> str:
        return self.fixed["mode"]

    def record_count(self) -> int:
        return math.prod(axis.points for axis in self.grid)


@dataclass(frozen=True, eq=False)
class SweepColumns:
    """A whole sweep, stored by column.

    coordinates maps each axis name, in grid order, to its float64 column;
    values maps each value column the mode fills to its float64 column
    (NaN at flagged rows); flags maps the index of each flagged row to its
    message. Rows are in row-major grid order.
    """

    spec: SweepSpec
    coordinates: dict
    values: dict
    flags: dict

    def __len__(self) -> int:
        return self.spec.record_count()


def _grid_parameters(spec: SweepSpec, coords: dict):
    """The game (spin, amps, omega, phi12, priors), each swept parameter
    taken from coords (numbers for one point, arrays for the grid). A
    product sweep plays the superposition game with UP_ONLY's spin."""
    params = {**spec.fixed, **coords}
    spin = ((UP_ONLY.up_amp, UP_ONLY.down_amp) if spec.mode == "product"
            else (complex(params["up_amp"]), complex(params["down_amp"])))
    amps = tuple(params[key] for key in ("l", "r", "l_prime", "r_prime"))
    omega = tuple(params.get(name, weight) for name, weight
                  in zip(_OMEGA_AXES, spec.fixed["omega"]))
    p1 = float(params["p1"])
    return (spin, amps, omega, np.asarray(params["phi12"], dtype=np.float64),
            (p1, 1.0 - p1))


def run_sweep(spec: SweepSpec) -> SweepColumns:
    """Evaluate the game at every grid point, row-major over the axes, one
    array pass per value column."""
    names = [axis.name for axis in spec.grid]
    shape = tuple(axis.points for axis in spec.grid)
    open_grid = np.meshgrid(*(axis.values() for axis in spec.grid),
                            indexing="ij", sparse=True)
    spin, amps, omega, phi12, priors = _grid_parameters(
        spec, dict(zip(names, open_grid)))
    separated = (amps[0], 0.0, 0.0, amps[3])
    product = spec.mode == "product"

    values, masks = {}, []
    for name, stats, baseline in _SWEEP_PLAN[spec.mode]:
        p_err, mask = closed_form_error_general_columns(
            spin, separated if baseline else amps, stats.eta, omega, phi12,
            priors)
        values[name] = np.broadcast_to(p_err, shape).flatten()
        masks.append((np.broadcast_to(mask, shape).ravel(),
                      vanishing_message(None if product else stats.eta)))
    coordinates = {name: np.broadcast_to(axis, shape).flatten()
                   for name, axis in zip(names, open_grid)}

    # A row's flag is the message of the first column, in plan order, that
    # vanishes there: the message that column's closed form raises, which
    # depends only on the mode and the column's exchange phase.
    flags = {}
    unflagged = np.ones(spec.record_count(), dtype=bool)
    for mask, message in masks:
        flags.update(dict.fromkeys(np.flatnonzero(mask & unflagged).tolist(),
                                   message))
        unflagged &= ~mask
    for column in values.values():
        column[~unflagged] = np.nan
    return SweepColumns(spec=spec, coordinates=coordinates, values=values,
                        flags=dict(sorted(flags.items())))


# The bundled figures, preset name -> (grid, fixed).
_BALANCED = dict.fromkeys(("l", "r", "l_prime", "r_prime"), SQRT_HALF)
_PRODUCT = dict(mode="product", p1=1.0 / 3.0, omega=(0.0, 1.0, 0.0, 0.0))
_SUPERPOSITION = dict(mode="superposition", p1=1.0 / 3.0, up_amp=SQRT_HALF,
                      down_amp=SQRT_HALF, **_BALANCED)
_PRESET_SWEEPS = {
    "fig3a": ((SweepAxis("phi12", 0.0, 2.0 * math.pi, 361),),
              dict(_PRODUCT, **_BALANCED)),
    "fig3b": ((SweepAxis("l_prime", 0.0, SQRT_HALF, 101),
               SweepAxis("r", 0.0, SQRT_HALF, 101)),
              dict(_PRODUCT, phi12=math.pi, l=SQRT_HALF, r_prime=SQRT_HALF)),
    "fig4": ((SweepAxis("phi12", 0.0, 2.0 * math.pi, 361),),
             dict(_SUPERPOSITION, omega=(1.0, 3.0, 2.0, 0.0))),
    "fig5": ((SweepAxis("phi12", 0.0, 2.0 * math.pi, 101),
              SweepAxis("omega_dd", 0.0, 5.0, 101)),
             dict(_SUPERPOSITION, omega=(0.0, 3.0, 2.0, 0.0))),
}
PRESETS = tuple(_PRESET_SWEEPS)
FIGURES = (*PRESETS, "custom")


def preset_spec(name: str) -> SweepSpec:
    """Sweep specification for one of the bundled figure presets."""
    if name not in _PRESET_SWEEPS:
        raise ValueError(f"unknown preset {name!r}; expected one of "
                         f"{', '.join(PRESETS)}")
    grid, fixed = _PRESET_SWEEPS[name]
    return SweepSpec(figure=name, grid=grid, fixed=dict(fixed))


class Instances:
    """One block of random game instances, draws start .. start + size - 1
    of a draw_instances run. A block holds only the fields its run drew;
    reading any other raises AttributeError naming that field. Each field
    is a stack over the draws:

        amps      (size, 4) complex  l, r, l_prime, r_prime: admissible, half
                                     of them real, weight > ADMISSIBLE_WEIGHT
        eta       (size,) int        exchange phase, +1 or -1
        p1        (size,)            prior of phase 1 (p2 = 1 - p1)
        omega     (size, 4)          generator weights in [-5, 5)
        phi       (size, 2)          phases (phi2 + phi12, phi2)
        shift     (size,)            a common generator-weight shift
        weights   (size, 4)          mixture weights, summing to 1
        spin      (size, 2) complex  (up_amp, down_amp) of a unit spin
                                     superposition, a quarter up-only
        hermitian (size, 4, 4)       Hermitian matrices, entries in [-1, 1]
        vectors   (size, 2, 4)       pairs of unit vectors (Gaussian draws)
    """

    def __init__(self, start: int, size: int, **fields):
        self.start = start
        self.size = size
        self.__dict__.update(fields)

    @property
    def p2(self) -> np.ndarray:
        return 1.0 - self.p1

    @property
    def phi12(self) -> np.ndarray:
        return self.phi[:, 0] - self.phi[:, 1]


def _complex_uniform(rng, shape) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _admissible_amplitudes(rng) -> np.ndarray:
    """BLOCK_DRAWS admissible amplitude rows, drawn in candidate blocks of
    BLOCK_DRAWS: an amplitude pair above unit norm is scaled down to it, and
    rows with |l r'|^2 + |l' r|^2 <= ADMISSIBLE_WEIGHT are redrawn."""
    kept = np.empty((0, 4), dtype=np.complex128)
    while len(kept) < BLOCK_DRAWS:
        amps = _complex_uniform(rng, (BLOCK_DRAWS, 4))
        amps.imag[rng.integers(2, size=BLOCK_DRAWS) == 1] = 0.0
        pairs = amps.reshape(BLOCK_DRAWS, 2, 2)
        pairs /= np.sqrt(np.maximum(np.sum(np.abs(pairs) ** 2, axis=-1,
                                           keepdims=True), 1.0))
        l, r, l_prime, r_prime = amps.T
        weight = np.abs(l * r_prime) ** 2 + np.abs(l_prime * r) ** 2
        kept = np.concatenate([kept, amps[weight > ADMISSIBLE_WEIGHT]])
    return kept[:BLOCK_DRAWS]


def _phases(rng) -> np.ndarray:
    phi2 = rng.uniform(-math.pi, math.pi, BLOCK_DRAWS)
    phi12 = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, BLOCK_DRAWS)
    return np.stack([phi2 + phi12, phi2], axis=-1)


def _mixture_weights(rng) -> np.ndarray:
    weights = rng.uniform(0.0, 1.0, (BLOCK_DRAWS, 4))
    return weights / weights.sum(axis=-1, keepdims=True)


def _spin_superpositions(rng) -> np.ndarray:
    spin = _complex_uniform(rng, (BLOCK_DRAWS, 2))
    spin[rng.integers(4, size=BLOCK_DRAWS) == 0, 1] = 0.0
    return _unit(spin)


# How each field draws one full block from its own stream. The order fixes
# each field's child of the seed: append a new field, never insert one.
_FIELD_DRAWS = {
    "amps": _admissible_amplitudes,
    "eta": lambda rng: np.where(rng.integers(2, size=BLOCK_DRAWS) == 1, 1, -1),
    "p1": lambda rng: rng.uniform(0.0, 1.0, BLOCK_DRAWS),
    "omega": lambda rng: rng.uniform(-5.0, 5.0, (BLOCK_DRAWS, 4)),
    "phi": _phases,
    "shift": lambda rng: rng.uniform(-3.0, 3.0, BLOCK_DRAWS),
    "weights": _mixture_weights,
    "spin": _spin_superpositions,
    "hermitian": lambda rng: hermitian_part(
        _complex_uniform(rng, (BLOCK_DRAWS, 4, 4))),
    "vectors": lambda rng: _unit(rng.normal(size=(BLOCK_DRAWS, 2, 4))
                                 + 1j * rng.normal(size=(BLOCK_DRAWS, 2, 4))),
}
FIELDS = tuple(_FIELD_DRAWS)


def _require_integer(name: str, value, minimum: int) -> None:
    """Refuse value unless it is an integer (not a bool) >= minimum."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, "
                         f"got {value!r}")


def draw_instances(seed: int, n: int, fields):
    """Return an iterator over n random game instances drawn from seed, as
    Instances blocks of at most BLOCK_DRAWS draws that hold only the named
    fields (names from FIELDS). n must be an integer >= 1 and seed an
    integer >= 0; both are checked here, before any draw.

    Each field draws from its own child stream of seed, at full block size
    with the last block truncated: field i of FIELDS is child i of
    np.random.SeedSequence(seed).spawn, built alone from its spawn key. So
    a field's value at a draw depends only on (seed, field, draw index):
    not on which other fields are drawn, and the first k draws of a run
    with n >= k are those of a run with n = k. Memory stays flat in n."""
    _require_integer("n", n, 1)
    _require_integer("seed", seed, 0)
    unknown = set(fields) - set(FIELDS)
    if unknown:
        raise ValueError(f"unknown instance fields {sorted(unknown)}; "
                         f"expected names from {', '.join(FIELDS)}")
    streams = {name: np.random.default_rng(
                   np.random.SeedSequence(seed, spawn_key=(i,)))
               for i, name in enumerate(FIELDS) if name in fields}
    return _blocks(streams, n)


def _blocks(streams: dict, n: int):
    for start in range(0, n, BLOCK_DRAWS):
        size = min(BLOCK_DRAWS, n - start)
        yield Instances(start, size, **{
            name: _FIELD_DRAWS[name](rng)[:size]
            for name, rng in streams.items()})

