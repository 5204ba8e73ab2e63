"""Parameter sweeps over the discrimination game, and the oracle campaign.

A sweep walks a rectangular grid (row-major over the axes in declaration
order), evaluates the game's closed forms at each point, and emits one
record per point. The bundled presets regenerate the standard curves:

    fig3a  error vs. phase difference, overlapping vs. separated particles
    fig3b  error over the (l_prime, r) amplitude square at phi12 = pi
    fig4   error vs. phase difference for bosons/fermions/baseline
    fig5   same comparison over the (phi12, omega_dd) plane

Sweeps are evaluated column-wise. run_sweep builds the grid once with
np.meshgrid and computes each value column in one array pass through the
column forms in discrimination. Those reproduce the scalar closed forms
bit for bit (they replay CPython's complex arithmetic on float arrays and
keep its libm pow for squares), so a column value equals what the scalar
form returns at that point. Where a projection vanishes the point is
flagged, with the message the scalar forms raise there, evaluated in the
same order (product: overlap, baseline; superposition: baseline, boson,
fermion).

SweepSpec checks the whole grid before anything is evaluated: axes are
finite, amplitude axes (l_prime, r) are nonnegative, the amplitudes stay
admissible (|l|^2+|r|^2 <= 1 and |l'|^2+|r'|^2 <= 1) at each amplitude
axis's maximum, the fixed parameters form a valid channel and preparation,
and the grid has at most MAX_SWEEP_RECORDS points.

The oracle campaign draws random game instances and checks that the
closed forms and the spectral POVM route agree.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .discrimination import (
    PhaseChannel,
    apply_phase,
    closed_form_error_general,
    closed_form_error_general_columns,
    closed_form_error_product,
    closed_form_error_product_columns,
    helstrom_error,
    optimal_povm,  # not used here; perfbench's traced run wraps this name
    spectral_povm,
)
from .states import (
    NORMALIZATION_TOL,
    SQRT_HALF,
    OverlapAmplitudes,
    PureProduct,
    SpinLabel,
    SpinSuperposition,
    Statistics,
    VanishingProjection,
    project_pure,
)

FIGURES = ("fig3a", "fig3b", "fig4", "fig5", "custom")
MODES = ("product", "superposition")

# axis name -> how the grid value enters the game parameters
AXIS_NAMES = ("phi12", "l_prime", "r", "omega_dd", "omega_du", "omega_ud",
              "omega_uu")
_OMEGA_AXES = ("omega_dd", "omega_du", "omega_ud", "omega_uu")
# swept amplitude -> the fixed amplitude it shares a wavefunction norm with,
# and the norm as OverlapAmplitudes names it
_AMPLITUDE_AXES = {"r": ("l", "|l|^2 + |r|^2"),
                   "l_prime": ("r_prime", "|l_prime|^2 + |r_prime|^2")}

_COMMON_KEYS = {"mode", "p1", "phi12", "l", "r", "l_prime", "r_prime", "omega"}
_SUPERPOSITION_KEYS = {"up_amp", "down_amp"}

# Value columns per mode, in evaluation order: (column, statistics,
# separated baseline?). Product columns do not depend on the statistics.
_SWEEP_PLAN = {
    "product": (("p_err_overlap", Statistics.BOSON, False),
                ("p_err_baseline", Statistics.BOSON, True)),
    "superposition": (("p_err_baseline", Statistics.BOSON, True),
                      ("p_err_boson", Statistics.BOSON, False),
                      ("p_err_fermion", Statistics.FERMION, False)),
}

# A sweep holds all of its columns at once. Peak memory measured on
# two-axis 10^6-point grids written as CSV or JSON: 150-190 bytes per
# record, 274 when every point is flagged. The cap keeps a sweep under
# about 550 MB.
MAX_SWEEP_RECORDS = 2_000_000

ORACLE_TOL = 1e-10
# Random draws a suite solves in one stacked eigh call (oracle campaign,
# eigensolver check). A fixed block keeps memory flat in the draw count.
BLOCK_DRAWS = 256
P_ERR_CAP = 0.5 + 1e-12


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
        allowed = _COMMON_KEYS | (_SUPERPOSITION_KEYS if mode == "superposition"
                                  else set())
        unknown = set(self.fixed) - allowed
        if unknown:
            raise ValueError(f"unknown fixed parameters: {sorted(unknown)}")
        provided = set(self.fixed) | set(names)
        required = {"mode", "p1", "phi12", "l", "r", "l_prime", "r_prime", "omega"}
        if mode == "superposition":
            required |= _SUPERPOSITION_KEYS
        missing = required - provided
        if missing:
            raise ValueError(f"missing sweep parameters: {sorted(missing)}")
        self._check_domain()

    def _check_domain(self) -> None:
        """Refuse the grid if any point would fail the game's value checks.

        Only the amplitude axes can move a point out of the domain, and an
        amplitude norm is largest where its axis is: at the axis maximum,
        once the axis is nonnegative. So checking the fixed parameters with
        every amplitude axis at its maximum covers the whole grid.
        """
        extremes = {}
        for axis in self.grid:
            if axis.name not in _AMPLITUDE_AXES:
                continue
            if axis.lo < 0.0:
                raise ValueError(f"amplitude axis {axis.name!r} must be "
                                 f"nonnegative, got min {axis.lo!r}")
            partner, norm = _AMPLITUDE_AXES[axis.name]
            if (abs(complex(self.fixed[partner])) ** 2 + abs(complex(axis.hi)) ** 2
                    > 1.0 + NORMALIZATION_TOL):
                raise ValueError(f"amplitude axis {axis.name!r} reaches "
                                 f"{axis.hi!r}, where {norm} exceeds 1")
            extremes[axis.name] = axis.hi
        _point_objects(self, {axis.name: extremes.get(axis.name, axis.lo)
                              for axis in self.grid})

    @property
    def mode(self) -> str:
        return self.fixed["mode"]

    def record_count(self) -> int:
        total = 1
        for axis in self.grid:
            total *= axis.points
        return total


@dataclass(frozen=True)
class SweepRecord:
    """One grid point. Product sweeps fill p_err_overlap, superposition
    sweeps fill the boson/fermion pair; the baseline column is always the
    spatially separated (l_prime = r = 0) game. A VanishingProjection at
    the point leaves the values empty and sets flag."""

    coordinates: dict
    p_err_overlap: float | None = None
    p_err_baseline: float | None = None
    p_err_boson: float | None = None
    p_err_fermion: float | None = None
    flag: str = ""

    def __post_init__(self):
        for name in ("p_err_overlap", "p_err_baseline", "p_err_boson",
                     "p_err_fermion"):
            value = getattr(self, name)
            if value is not None and not (-1e-15 <= value <= P_ERR_CAP):
                raise ValueError(f"{name}={value} outside [0, 1/2]")


@dataclass(frozen=True, eq=False)
class SweepColumns(Sequence):
    """A whole sweep, stored by column.

    coordinates maps each axis name, in grid order, to its float64 column;
    values maps each value column the mode fills to its float64 column
    (NaN at flagged rows); flags maps the index of each flagged row to its
    message. Rows are in row-major grid order. Indexing builds the
    SweepRecord of a row, so the result reads as a list of records.
    """

    spec: SweepSpec
    coordinates: dict
    values: dict
    flags: dict

    def __len__(self) -> int:
        return self.spec.record_count()

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        index = range(len(self))[index]
        flag = self.flags.get(index, "")
        values = {} if flag else {name: float(column[index])
                                  for name, column in self.values.items()}
        return SweepRecord(
            coordinates={name: float(column[index])
                         for name, column in self.coordinates.items()},
            flag=flag, **values)


def _grid_parameters(spec: SweepSpec, coords: dict) -> dict:
    """Game parameters with the swept ones taken from coords (numbers for
    one point, arrays for the grid); omega becomes a 4-tuple again."""
    params = {**spec.fixed, **coords}
    params["omega"] = tuple(params.pop(name, weight) for name, weight
                            in zip(_OMEGA_AXES, spec.fixed["omega"]))
    return params


def _point_objects(spec: SweepSpec, point: dict):
    """The validated game objects at one grid point: amplitudes, channel
    and, for superposition sweeps, the preparation (else None)."""
    params = _grid_parameters(spec, point)
    amps = OverlapAmplitudes(l=params["l"], r=params["r"],
                             l_prime=params["l_prime"],
                             r_prime=params["r_prime"])
    p1 = float(params["p1"])
    channel = PhaseChannel(omega=params["omega"],
                           phi=(float(params["phi12"]), 0.0),
                           priors=(p1, 1.0 - p1))
    prep = None
    if spec.mode == "superposition":
        prep = SpinSuperposition(up_amp=params["up_amp"],
                                 down_amp=params["down_amp"])
    return amps, channel, prep


def _flag_at(spec: SweepSpec, point: dict) -> str:
    """Message of the first scalar closed form, in plan order, that finds a
    vanishing projection at this grid point."""
    amps, channel, prep = _point_objects(spec, point)
    try:
        for _, stats, separated in _SWEEP_PLAN[spec.mode]:
            game = amps.without_overlap() if separated else amps
            if prep is None:
                closed_form_error_product(game, channel)
            else:
                closed_form_error_general(prep, game, stats, channel)
    except VanishingProjection as exc:
        return str(exc)
    raise RuntimeError(f"column forms flagged grid point {point}, where the "
                       "scalar closed forms find no vanishing projection")


def run_sweep(spec: SweepSpec) -> SweepColumns:
    """Evaluate the game at every grid point, row-major over the axes, one
    array pass per value column."""
    names = [axis.name for axis in spec.grid]
    shape = tuple(axis.points for axis in spec.grid)
    open_grid = np.meshgrid(*(axis.values() for axis in spec.grid),
                            indexing="ij", sparse=True)
    params = _grid_parameters(spec, dict(zip(names, open_grid)))
    amps = (params["l"], params["r"], params["l_prime"], params["r_prime"])
    separated = (params["l"], 0.0, 0.0, params["r_prime"])
    omega = params["omega"]
    phi12 = np.asarray(params["phi12"], dtype=np.float64)
    # every point shares the priors and the preparation
    _, channel, prep = _point_objects(spec, {axis.name: axis.lo
                                             for axis in spec.grid})
    priors = channel.priors

    values, masks = {}, []
    for name, stats, baseline in _SWEEP_PLAN[spec.mode]:
        game = separated if baseline else amps
        if prep is None:
            p_err, mask = closed_form_error_product_columns(
                game, omega, phi12, priors)
        else:
            p_err, mask = closed_form_error_general_columns(
                prep, game, stats.eta, omega, phi12, priors)
        values[name] = np.broadcast_to(p_err, shape).flatten()
        masks.append(np.broadcast_to(mask, shape).ravel())
    coordinates = {name: np.broadcast_to(axis, shape).flatten()
                   for name, axis in zip(names, open_grid)}

    # A row's flag is the message of the first column, in plan order, that
    # vanishes there. The message depends only on that closed form, so the
    # scalar forms supply it once per column, at its first such row.
    flags = {}
    unflagged = np.ones(len(masks[0]), dtype=bool)
    for mask in masks:
        rows = np.flatnonzero(mask & unflagged)
        if rows.size:
            message = _flag_at(spec, {name: float(column[rows[0]]) for name,
                                      column in coordinates.items()})
            flags.update(dict.fromkeys(rows.tolist(), message))
            unflagged &= ~mask
    for column in values.values():
        column[~unflagged] = np.nan
    return SweepColumns(spec=spec, coordinates=coordinates, values=values,
                        flags=dict(sorted(flags.items())))


def preset_spec(name: str) -> SweepSpec:
    """Sweep specification for one of the bundled figure presets."""
    balanced = dict(l=SQRT_HALF, r=SQRT_HALF, l_prime=SQRT_HALF,
                    r_prime=SQRT_HALF)
    if name == "fig3a":
        return SweepSpec(
            figure="fig3a",
            grid=(SweepAxis("phi12", 0.0, 2.0 * math.pi, 361),),
            fixed=dict(mode="product", p1=1.0 / 3.0,
                       omega=(0.0, 1.0, 0.0, 0.0), **balanced))
    if name == "fig3b":
        fixed = dict(mode="product", p1=1.0 / 3.0, omega=(0.0, 1.0, 0.0, 0.0),
                     phi12=math.pi, l=SQRT_HALF, r_prime=SQRT_HALF)
        return SweepSpec(
            figure="fig3b",
            grid=(SweepAxis("l_prime", 0.0, SQRT_HALF, 101),
                  SweepAxis("r", 0.0, SQRT_HALF, 101)),
            fixed=fixed)
    if name == "fig4":
        return SweepSpec(
            figure="fig4",
            grid=(SweepAxis("phi12", 0.0, 2.0 * math.pi, 361),),
            fixed=dict(mode="superposition", p1=1.0 / 3.0,
                       omega=(1.0, 3.0, 2.0, 0.0),
                       up_amp=SQRT_HALF, down_amp=SQRT_HALF, **balanced))
    if name == "fig5":
        return SweepSpec(
            figure="fig5",
            grid=(SweepAxis("phi12", 0.0, 2.0 * math.pi, 101),
                  SweepAxis("omega_dd", 0.0, 5.0, 101)),
            fixed=dict(mode="superposition", p1=1.0 / 3.0,
                       omega=(0.0, 3.0, 2.0, 0.0),
                       up_amp=SQRT_HALF, down_amp=SQRT_HALF, **balanced))
    raise ValueError(f"unknown preset {name!r}; expected fig3a, fig3b, fig4 or fig5")


@dataclass(frozen=True)
class OracleCampaignSummary:
    n: int
    seed: int
    max_abs_disagreement: float
    n_failures: int


def _draw_amplitudes(rng) -> OverlapAmplitudes:
    while True:
        if rng.integers(2):
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


def run_oracle_campaign(n: int, seed: int) -> OracleCampaignSummary:
    """Compare the closed-form, projected-state and POVM error routes on n
    random game instances; report the worst pairwise disagreement.

    Draws are made one at a time, so a seed always draws the same instances;
    the spectral route (spectral_povm, as in optimal_povm) runs per block."""
    if n < 1:
        raise ValueError("need at least one draw")
    rng = np.random.default_rng(seed)
    worst = 0.0
    failures = 0
    prep = PureProduct(SpinLabel.DOWN, SpinLabel.UP)
    for start in range(0, n, BLOCK_DRAWS):
        size = min(BLOCK_DRAWS, n - start)
        references = np.empty((2, size))
        priors = np.empty((2, size))
        psi = np.empty((2, size, 4), dtype=np.complex128)
        for i in range(size):
            amps = _draw_amplitudes(rng)
            p1 = float(rng.uniform(0.0, 1.0))
            omega = tuple(rng.uniform(-5.0, 5.0, 4))
            phi2 = float(rng.uniform(-math.pi, math.pi))
            phi12 = float(rng.uniform(-2.0 * math.pi, 2.0 * math.pi))
            channel = PhaseChannel(omega=omega, phi=(phi2 + phi12, phi2),
                                   priors=(p1, 1.0 - p1))
            stats = Statistics.BOSON if rng.integers(2) else Statistics.FERMION
            state = project_pure(prep, amps, stats)
            psi1 = apply_phase(channel, 1, state)
            psi2 = apply_phase(channel, 2, state)
            references[:, i] = (closed_form_error_product(amps, channel),
                                helstrom_error(p1, 1.0 - p1, psi1, psi2))
            priors[:, i] = channel.priors
            psi[:, i] = psi1.entries, psi2.entries
        closed, projected = references
        oracle = spectral_povm(priors, psi[0], psi[1])[0]
        spread = np.maximum.reduce([abs(closed - projected),
                                    abs(closed - oracle),
                                    abs(projected - oracle)])
        worst = max(worst, float(spread.max()))
        failures += int(np.count_nonzero(spread > ORACLE_TOL))
    return OracleCampaignSummary(n=n, seed=seed, max_abs_disagreement=worst,
                                 n_failures=failures)
