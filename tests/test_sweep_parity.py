"""Column-wise sweeps against the per-point closed form, value by value.

run_sweep evaluates whole grids with the array forms in discrimination.
The reference here is the per-point route: build the validated value
objects at each grid point and evaluate the closed form in Python complex
numbers (helpers.closed_form_reference) in the order product (overlap,
baseline) and superposition (baseline, boson, fermion). Every value must be equal (==, not approx), every flag message
identical, and the CLI's CSV and JSON text must be what csv.writer and
json.dumps write for those records. Rows are read from the columns with
helpers.plain_records.
"""

import csv
import dataclasses
import io
import itertools
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    closed_form_reference,
    plain_records,
    product_reference,
    sweep_row,
)

from sloccsim import cli, experiments
from sloccsim.cli import cmd_sweep, format_number
from sloccsim.discrimination import PhaseChannel
from sloccsim.experiments import (
    AXIS_NAMES,
    FIGURES,
    SWEEP_COLUMNS,
    SweepAxis,
    SweepColumns,
    SweepSpec,
    run_sweep,
)
from sloccsim.states import (
    OverlapAmplitudes,
    SpinSuperposition,
    Statistics,
    VanishingProjection,
)

OMEGA_INDEX = {"omega_dd": 0, "omega_du": 1, "omega_ud": 2, "omega_uu": 3}


def scalar_record(spec: SweepSpec, coords: dict):
    """The grid point evaluated by the per-point reference, one value at a
    time, as a helpers.sweep_row."""
    params = dict(spec.fixed)
    omega = list(params["omega"])
    for name, value in coords.items():
        if name in OMEGA_INDEX:
            omega[OMEGA_INDEX[name]] = value
        else:
            params[name] = value
    amps = OverlapAmplitudes(l=params["l"], r=params["r"],
                             l_prime=params["l_prime"],
                             r_prime=params["r_prime"])
    p1 = float(params["p1"])
    channel = PhaseChannel(omega=tuple(omega),
                           phi=(float(params["phi12"]), 0.0),
                           priors=(p1, 1.0 - p1))
    try:
        if spec.mode == "product":
            return sweep_row(
                coords,
                p_err_overlap=product_reference(amps, channel),
                p_err_baseline=product_reference(amps.without_overlap(),
                                                 channel))
        prep = SpinSuperposition(up_amp=params["up_amp"],
                                 down_amp=params["down_amp"])
        return sweep_row(
            coords,
            p_err_baseline=closed_form_reference(
                prep, amps.without_overlap(), Statistics.BOSON, channel),
            p_err_boson=closed_form_reference(
                prep, amps, Statistics.BOSON, channel),
            p_err_fermion=closed_form_reference(
                prep, amps, Statistics.FERMION, channel))
    except VanishingProjection as exc:
        return sweep_row(coords, flag=str(exc))


def reference_csv(spec: SweepSpec, records) -> str:
    names = [axis.name for axis in spec.grid]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(names + list(SWEEP_COLUMNS) + ["flag"])
    for record in records:
        row = [format_number(record.coordinates[name]) for name in names]
        row += ["" if getattr(record, column) is None
                else format_number(getattr(record, column))
                for column in SWEEP_COLUMNS]
        writer.writerow(row + [record.flag])
    return buffer.getvalue()


def reference_json(spec: SweepSpec, records) -> str:
    payload = {"figure": spec.figure, "records": [
        {"coordinates": record.coordinates,
         **{column: getattr(record, column) for column in SWEEP_COLUMNS},
         "flag": record.flag}
        for record in records]}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# random sweep specifications

# Hypothesis picks the structure of a sweep: mode, axes, point counts and
# which amplitudes take exact special values (zeros and 1/2 make vanishing
# products and cancelling fermion branches reachable). A numpy generator
# seeded by hypothesis fills in generic values, which are where the last
# bit of each rounding step shows.
_AMPLITUDE_KINDS = ("generic", "generic", "generic", "real", "zero", "half")


@st.composite
def sweep_spec(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def amplitude() -> complex:
        kind = draw(st.sampled_from(_AMPLITUDE_KINDS))
        if kind == "zero":
            return 0j
        if kind == "half":
            return 0.5 + 0j
        magnitude = rng.uniform(0.0, 1.0)
        phase = rng.uniform(-math.pi, math.pi) if kind == "generic" else 0.0
        return complex(magnitude * math.cos(phase), magnitude * math.sin(phase))

    def pair() -> tuple[complex, complex]:
        a, b = amplitude(), amplitude()
        norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        return (a / norm, b / norm) if norm > 1.0 else (a, b)

    mode = draw(st.sampled_from(["product", "superposition"]))
    l, r = pair()
    l_prime, r_prime = pair()
    fixed = dict(mode=mode, p1=rng.uniform(0.0, 1.0),
                 phi12=rng.uniform(-10.0, 10.0), l=l, r=r, l_prime=l_prime,
                 r_prime=r_prime, omega=tuple(rng.uniform(-6.0, 6.0, 4)))
    if mode == "superposition":
        choice = draw(st.sampled_from(["up", "down", "mixed"]))
        angle = {"up": 0.0, "down": math.pi / 2}.get(
            choice, rng.uniform(0.0, math.pi / 2))
        phase = rng.uniform(-math.pi, math.pi)
        fixed.update(up_amp=math.cos(angle),
                     down_amp=math.sin(angle) * complex(math.cos(phase),
                                                        math.sin(phase)))
    partners = {"r": l, "l_prime": r_prime}
    grid = []
    for name in draw(st.lists(st.sampled_from(AXIS_NAMES), min_size=1,
                              max_size=3, unique=True)):
        points = draw(st.integers(2, 16))
        if name in partners:
            # admissible at the axis maximum: |partner|^2 + hi^2 <= 1
            room = math.sqrt(max(1.0 - abs(partners[name]) ** 2, 0.0))
            hi = room * draw(st.sampled_from([1.0, rng.uniform(0.05, 1.0)]))
            lo = draw(st.sampled_from([0.0, rng.uniform(0.0, hi)]))
            if not lo < hi:
                continue
        else:
            scale = 10.0 if name == "phi12" else 6.0
            lo, hi = sorted(rng.uniform(-scale, scale, 2))
        grid.append(SweepAxis(name, lo, hi, points))
        fixed.pop(name, None)
    if not grid:
        grid.append(SweepAxis("phi12", -1.0, 1.0, 3))
        fixed.pop("phi12", None)
    return SweepSpec(figure="custom", grid=tuple(grid), fixed=fixed)


# The flagged examples: the fermion branch of a down-only preparation
# cancels where l r' = l' r (l_prime = r = 0.5 here), and a product sweep
# with l = l_prime = 0 vanishes at every point.
_FERMION_NODE = SweepSpec(
    figure="custom",
    grid=(SweepAxis("l_prime", 0.0, 0.8, 9), SweepAxis("r", 0.0, 0.8, 9)),
    fixed=dict(mode="superposition", p1=0.4, phi12=2.0, l=0.5, r_prime=0.5,
               up_amp=0.0, down_amp=1.0, omega=(1.5, 3.0, 2.0, 0.0)))
_ALL_VANISHING = SweepSpec(
    figure="custom",
    grid=(SweepAxis("omega_du", -3.0, 3.0, 4), SweepAxis("phi12", -1.0, 2.0, 3)),
    fixed=dict(mode="product", p1=0.3, l=0.0, r=0.5, l_prime=0.0,
               r_prime=0.5, omega=(0.0, 1.0, -2.0, 0.0)))
# A down-only superposition sweep with l = 0: the baseline, first in the
# plan, vanishes on every row, and the boson and fermion columns also vanish
# where l_prime * r = 0. Every row must read the baseline's eta=+1 message.
_BASELINE_FIRST = SweepSpec(
    figure="custom",
    grid=(SweepAxis("l_prime", 0.0, 0.8, 5), SweepAxis("r", 0.0, 0.8, 5)),
    fixed=dict(mode="superposition", p1=0.4, phi12=2.0, l=0.0, r_prime=0.5,
               up_amp=0.0, down_amp=1.0, omega=(1.5, 3.0, 2.0, 0.0)))
_NEGATIVE_OMEGAS = SweepSpec(
    figure="custom",
    grid=(SweepAxis("omega_dd", -5.0, -1.0, 5), SweepAxis("omega_ud", -4.0, 4.0, 5),
          SweepAxis("phi12", -7.0, 7.0, 4)),
    fixed=dict(mode="superposition", p1=0.7, l=0.3 + 0.4j, r=-0.6j,
               l_prime=0.2 - 0.1j, r_prime=-0.5 + 0.5j, up_amp=0.6j,
               down_amp=0.8, omega=(1.0, -3.0, 2.0, -1.0)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(spec=sweep_spec())
@example(spec=_FERMION_NODE)
@example(spec=_ALL_VANISHING)
@example(spec=_BASELINE_FIRST)
@example(spec=_NEGATIVE_OMEGAS)
def test_columns_equal_scalar_closed_forms(spec):
    records = list(plain_records(run_sweep(spec)))
    assert len(records) == spec.record_count()
    names = [axis.name for axis in spec.grid]
    points = itertools.product(*(axis.values() for axis in spec.grid))
    for index, combo in enumerate(points):
        coords = {name: float(value) for name, value in zip(names, combo)}
        expected = scalar_record(spec, coords)
        assert records[index] == expected, (index, coords)


def test_flagged_examples_reach_the_flag_path():
    fermion_flags = {i: r.flag for i, r
                     in enumerate(plain_records(run_sweep(_FERMION_NODE)))
                     if r.flag}
    assert fermion_flags == {
        50: "superposition preparation with eta=-1 has vanishing weight on "
            "the localized basis"}
    assert all(record.flag
               for record in plain_records(run_sweep(_ALL_VANISHING)))
    baseline_flags = run_sweep(_BASELINE_FIRST).flags
    assert list(baseline_flags) == list(range(25))
    assert set(baseline_flags.values()) == {
        "superposition preparation with eta=+1 has vanishing weight on "
        "the localized basis"}


def test_sweep_calls_no_scalar_closed_form(monkeypatch):
    """Flag messages come from the column plan, so the scalar closed forms
    experiments imports (for perfbench's traced run) stay uncalled."""
    def refuse(*args, **kwargs):
        raise AssertionError("run_sweep called a scalar closed form")

    monkeypatch.setattr(experiments, "closed_form_error_general", refuse)
    monkeypatch.setattr(experiments, "closed_form_error_product", refuse)
    assert len(run_sweep(_FERMION_NODE).flags) == 1
    assert len(run_sweep(_ALL_VANISHING).flags) == 12


@settings(derandomize=True, max_examples=60, deadline=None)
@given(spec=sweep_spec())
@example(spec=_FERMION_NODE)
@example(spec=_ALL_VANISHING)
@example(spec=_BASELINE_FIRST)
def test_sweep_text_matches_csv_and_json_writers(spec):
    records = list(plain_records(run_sweep(spec)))
    with tempfile.TemporaryDirectory() as tmp:
        for fmt, reference in (("csv", reference_csv),
                               ("json", reference_json)):
            out = Path(tmp) / f"sweep.{fmt}"
            assert cmd_sweep(spec, str(out), fmt) == 0
            assert out.read_text(encoding="utf-8") == reference(spec, records)


# ---------------------------------------------------------------------------
# the writer prints each column's distinct floats once per window


def test_windows_hold_whole_pieces_and_every_preset():
    """A window is a whole number of CSV and of JSON pieces, and every
    preset fits in one window, so each of its columns' distinct values is
    printed once."""
    window, piece = cli._ROWS_PER_WINDOW, cli._ROWS_PER_PIECE
    assert window % piece == 0 and window % (piece // 2) == 0
    for name in experiments.PRESETS:
        assert experiments.preset_spec(name).record_count() <= window


def _hand_built_columns() -> SweepColumns:
    """Twenty rows with _ROWS_PER_PIECE at 5 and _ROWS_PER_WINDOW at 10
    (rows 0-9 and 10-19): flagged at row 0, the first row of a window; at
    row 6, inside a CSV piece (a JSON piece takes 2 rows); at rows 9 and
    10, the last row of one window and the first of the next; and at the
    last row. Rows 6, 9 and 19 share a message with "%s" and "%%" in it,
    which a row template must print as written. 0.0 and -0.0 share a
    column, and so do 0.1 and its successor, which "%.15g" prints alike and
    repr does not. Each of 0.0, -0.0, 0.1, its successor, 1.0 and 0.5
    recurs within one column in two pieces of one window and in both
    windows."""
    spec = SweepSpec(
        figure="custom", grid=(SweepAxis("phi12", -1.0, 1.0, 20),),
        fixed=dict(mode="product", p1=0.3, l=0.5, r=0.5, l_prime=0.5,
                   r_prime=0.5, omega=(0.0, 1.0, 0.0, 0.0)))
    above = math.nextafter(0.1, 1.0)
    nan = np.nan
    phi12 = np.array([0.0, -0.0, 0.0, -0.0, 1.0, 1.0, 0.0, -0.0, 2.5, 2.5,
                      -0.0, 0.0, 1.0, 1e-300, -1e-300,
                      0.0, -0.0, 2.5, 1.0, 0.0])
    overlap = np.array([nan, 0.0, -0.0, 0.1, above, 0.1, nan, above, -0.0, nan,
                        nan, 0.25, 0.0, above, -0.0,
                        0.1, 0.25, 0.1, above, nan])
    baseline = np.array([nan, 0.1, 0.1, above, 0.0, -0.0, nan, 0.5, 0.0, nan,
                         nan, above, 0.1, -0.0, 0.5,
                         0.0, 0.5, -0.0, above, nan])
    flag = "vanishing weight, on the \"localized\" basis"
    percent = "weight %s of 100%% on the basis"
    return SweepColumns(spec=spec, coordinates={"phi12": phi12},
                        values={"p_err_overlap": overlap,
                                "p_err_baseline": baseline},
                        flags={0: flag, 6: percent, 9: percent, 10: flag,
                               19: percent})


def _small_writer_bytes(columns, rows_per_piece: int) -> list[bytes]:
    """The CSV and the JSON text of columns with _ROWS_PER_PIECE at
    rows_per_piece, once for each _ROWS_PER_WINDOW of 5, 10 and its own
    value; each run is checked against the others."""
    texts = []
    for rows_per_window in (5, 10, cli._ROWS_PER_WINDOW):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_ROWS_PER_PIECE", rows_per_piece)
            patch.setattr(cli, "_ROWS_PER_WINDOW", rows_per_window)
            text = [b"".join(cli._sweep_csv_lines(columns)),
                    b"".join(cli._sweep_json_lines(columns))]
        assert not texts or text == texts, rows_per_window
        texts = texts or text
    return texts


@pytest.mark.parametrize("make", [
    lambda: run_sweep(_FERMION_NODE), lambda: run_sweep(_ALL_VANISHING),
    lambda: run_sweep(_NEGATIVE_OMEGAS), _hand_built_columns,
], ids=["fermion_node", "all_vanishing", "negative_omegas", "hand_built"])
def test_writer_in_small_pieces_matches_csv_and_json_writers(make):
    columns = make()
    records = list(plain_records(columns))
    csv_text, json_text = _small_writer_bytes(columns, 5)
    assert csv_text.decode() == reference_csv(columns.spec, records)
    assert json_text.decode() == reference_json(columns.spec, records)


# Flag messages a row template must print as written: the % fill's own
# slot, the JSON slot, an escaped slot, a lone % and other conversions, a
# NUL, and csv's line break, delimiter and quote. The first and the last
# row, rows on both sides of a piece boundary and of a window boundary are
# flagged (the NaN rows of _hand_built_columns among them); "%s" flags two
# rows.
_WORDY_FLAGS = {0: "%s", 4: '"%s"', 5: "%%s", 6: "%(flag)s %d", 7: "%",
                9: "100%% %r", 10: "a\x00NUL", 12: 'line\nbreak, "quoted"',
                19: "%s"}


@pytest.mark.parametrize("rows_per_piece", [5, 2048])
def test_flags_with_format_characters_print_as_written(rows_per_piece):
    built = _hand_built_columns()
    values = {name: column.copy() for name, column in built.values.items()}
    for column in values.values():
        column[list(_WORDY_FLAGS)] = np.nan
    columns = dataclasses.replace(built, values=values, flags=_WORDY_FLAGS)
    records = list(plain_records(columns))
    csv_text, json_text = _small_writer_bytes(columns, rows_per_piece)
    assert csv_text.decode() == reference_csv(columns.spec, records)
    assert json_text.decode() == reference_json(columns.spec, records)


# Any finite double, with the values where float printing has edges drawn
# often: signed zeros, subnormals, the ends of the exponent range, and 0.1
# beside its successor (alike under "%.15g", apart under repr).
_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                1e-300, -1e-300, 1e300, -1e300, 1.7976931348623157e308, 0.1,
                math.nextafter(0.1, 1.0), 0.5, 1.0 / 3.0)
_CELLS = st.one_of(st.sampled_from(_EDGE_FLOATS),
                   st.floats(allow_nan=False, allow_infinity=False))
_PARAMETERS = dict(p1=0.3, phi12=1.0, l=0.5, r=0.5, l_prime=0.5, r_prime=0.5,
                   omega=(0.0, 1.0, 0.0, 0.0))


@st.composite
def written_columns(draw) -> SweepColumns:
    """A SweepColumns as the writer reads it, with arbitrary finite cells
    and flagged rows with arbitrary messages; only the shape of the spec
    has to be valid."""
    mode = draw(st.sampled_from(["product", "superposition"]))
    names = draw(st.lists(st.sampled_from(AXIS_NAMES), min_size=1,
                          max_size=3, unique=True))
    grid = tuple(SweepAxis(name, 0.0, 0.5, draw(st.integers(2, 4)))
                 for name in names)
    fixed = {key: value for key, value in _PARAMETERS.items()
             if key not in names}
    fixed["mode"] = mode
    if mode == "superposition":
        fixed.update(up_amp=0.6, down_amp=0.8)
    spec = SweepSpec(figure=draw(st.sampled_from(FIGURES)), grid=grid,
                     fixed=fixed)
    rows = spec.record_count()

    def column() -> np.ndarray:
        return np.array(draw(st.lists(_CELLS, min_size=rows, max_size=rows)),
                        dtype=np.float64)

    flags = draw(st.dictionaries(
        st.integers(0, rows - 1),
        st.text(st.characters(blacklist_categories=("Cs",)), min_size=1),
        max_size=rows))
    values = {}
    for name, _, _ in experiments._SWEEP_PLAN[mode]:
        values[name] = column()
        values[name][list(flags)] = np.nan
    return SweepColumns(spec=spec, coordinates={name: column()
                                                for name in names},
                        values=values, flags=flags)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(columns=written_columns())
def test_writer_bytes_match_record_by_record_writers(columns):
    """b"%.15g" and b"%r" in one call per column and window print what
    format_number and json.dumps print for each value, with _ROWS_PER_PIECE
    at 5 (and _ROWS_PER_WINDOW at 5, 10 and its own value) and at 2,048
    (JSON pieces take half as many rows)."""
    records = list(plain_records(columns))
    csv_text = reference_csv(columns.spec, records)
    json_text = reference_json(columns.spec, records)
    for rows_per_piece in (5, 2048):
        assert _small_writer_bytes(columns, rows_per_piece) == [
            csv_text.encode(), json_text.encode()]


# ---------------------------------------------------------------------------
# the layout of the columns


def test_column_layout():
    """Every column has one entry per grid point, flags are in row order,
    and each value column is NaN exactly at the flagged rows."""
    for spec in (_FERMION_NODE, _ALL_VANISHING, _BASELINE_FIRST,
                 _NEGATIVE_OMEGAS):
        columns = run_sweep(spec)
        rows = spec.record_count()
        assert len(columns) == rows
        for column in (*columns.coordinates.values(),
                       *columns.values.values()):
            assert column.shape == (rows,)
        assert list(columns.flags) == sorted(columns.flags)
        for column in columns.values.values():
            assert np.flatnonzero(np.isnan(column)).tolist() == list(
                columns.flags)
