"""Command line front end.

Subcommands:
    project       project a configured preparation onto the localized basis
    discriminate  play one phase-discrimination game (closed form + oracle)
    sweep         regenerate figure data or a custom parameter sweep
    check         run the invariant and oracle suites

Configs are strict JSON (unknown keys are rejected); complex numbers are
written as two-element [re, im] arrays and bare numbers are accepted as
purely real. The schema is documented in the README. Exit codes: 0 success,
1 check failure, 2 config error, 3 degenerate physics input, 141 (128 +
SIGPIPE) stdout closed by its reader before the output was written.
"""

from __future__ import annotations

import argparse
import bisect
import csv
import functools
import io
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .discrimination import (
    PhaseChannel,
    closed_form_error_general,
    closed_form_error_product,
    optimal_povm,
)
from .experiments import (
    FIXED_PARAMETERS,
    PRESETS,
    SWEEP_COLUMNS,
    SweepAxis,
    SweepColumns,
    SweepSpec,
    preset_spec,
    run_sweep,
)
from .linalg import hermitian_part
from .selfcheck import DEFAULT_DRAWS, DEFAULT_SEED, run_selfcheck
from .states import (
    BASIS_LABELS,
    DensityMatrix4,
    MixedDiagonal,
    OverlapAmplitudes,
    Preparation,
    PureProduct,
    SpinLabel,
    SpinSuperposition,
    StateVector4,
    Statistics,
    VanishingProjection,
    basis_index,
    coherence_l1,
    is_incoherent,
    project_distinguishable,
    project_mixed,
    project_pure,
    project_superposition,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_BROKEN_PIPE = 141

FORMATS = ("csv", "json")
# the longest error message printed: a config value echoed with {value!r}
# can be as long as the config file
MESSAGE_LIMIT = 500

# Rows per piece of CSV sweep output, about 160 KB of text. A JSON record
# is about three times longer, so JSON pieces take half as many rows: much
# larger pieces pay page faults for each fresh output buffer.
_ROWS_PER_PIECE = 2048


class ConfigError(ValueError):
    """The configuration file does not match the schema."""


# ---------------------------------------------------------------------------
# strict JSON helpers


def _require_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {type(value).__name__}")
    return value


def _require_keys(value, where: str, allowed, required=None) -> dict:
    """value as an object with no key outside allowed and every key of
    required (by default, of allowed)."""
    data = _require_mapping(value, where)
    unknown = set(data).difference(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = set(allowed if required is None else required).difference(data)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")
    return data


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_real(value, where: str, index: int | None = None) -> float:
    """value as a float; a refusal names where, or its element where[index].
    An exact float (a JSON number with a fraction or an exponent) is taken
    as it is."""
    if type(value) is float:
        return value
    name = where if index is None else f"{where}[{index}]"
    if not _is_number(value):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:  # an integer literal beyond the float range
        raise ConfigError(f"{name} is too large for a float") from exc


def _parse_reals(value, count: int, where: str) -> tuple[float, ...]:
    """A list of count numbers; a refusal names the element, where[i]."""
    if not isinstance(value, list) or len(value) != count:
        raise ConfigError(f"{where} must be a list of {count} numbers")
    return tuple([_parse_real(x, where, i) for i, x in enumerate(value)])


def parse_complex(value, where: str) -> complex:
    if _is_number(value):
        return complex(_parse_real(value, where))
    if isinstance(value, list):
        return complex(*_parse_reals(value, 2, where))
    raise ConfigError(f"{where} must be a number or a [re, im] pair, got {value!r}")


# ---------------------------------------------------------------------------
# scenario configuration


@dataclass(frozen=True)
class ScenarioConfig:
    preparation: Preparation
    overlaps: OverlapAmplitudes
    statistics: Statistics
    channel: PhaseChannel


def _parse_spin(value, where: str) -> SpinLabel:
    if value == "down":
        return SpinLabel.DOWN
    if value == "up":
        return SpinLabel.UP
    raise ConfigError(f"{where} must be 'down' or 'up', got {value!r}")


def _parse_preparation(data) -> Preparation:
    data = _require_mapping(data, "preparation")
    kind = data.get("kind")
    if kind == "mixed_diagonal":
        _require_keys(data, "preparation", {"kind", "weights"})
        return MixedDiagonal(
            weights=_parse_reals(data["weights"], 4, "preparation.weights"))
    if kind == "pure_product":
        _require_keys(data, "preparation", {"kind", "first", "second"})
        return PureProduct(first=_parse_spin(data["first"], "preparation.first"),
                           second=_parse_spin(data["second"], "preparation.second"))
    if kind == "spin_superposition":
        _require_keys(data, "preparation", {"kind", "up_amp", "down_amp"})
        return SpinSuperposition(
            up_amp=parse_complex(data["up_amp"], "preparation.up_amp"),
            down_amp=parse_complex(data["down_amp"], "preparation.down_amp"))
    raise ConfigError(
        f"preparation.kind must be 'mixed_diagonal', 'pure_product' or "
        f"'spin_superposition', got {kind!r}")


def _parse_overlaps(data) -> OverlapAmplitudes:
    keys = ("l", "r", "l_prime", "r_prime")
    data = _require_keys(data, "overlaps", keys)
    amplitudes = {key: parse_complex(data[key], f"overlaps.{key}")
                  for key in keys}
    try:
        return OverlapAmplitudes(**amplitudes)
    except ValueError as exc:
        raise ConfigError(f"overlaps: {exc}") from exc


def _parse_statistics(value) -> Statistics:
    try:
        return Statistics(value)
    except ValueError as exc:
        raise ConfigError(
            f"statistics must be 'boson', 'fermion' or 'distinguishable', "
            f"got {value!r}") from exc


def _parse_omega(data, where: str) -> tuple[float, float, float, float]:
    data = _require_keys(data, where, BASIS_LABELS)
    return tuple(_parse_real(data[key], f"{where}.{key}")
                 for key in BASIS_LABELS)


def _parse_channel(data) -> PhaseChannel:
    data = _require_keys(data, "channel", {"omega", "phases", "priors"})
    omega = _parse_omega(data["omega"], "channel.omega")
    phi = _parse_reals(data["phases"], 2, "channel.phases")
    priors = _parse_reals(data["priors"], 2, "channel.priors")
    try:
        return PhaseChannel(omega=omega, phi=phi, priors=priors)
    except ValueError as exc:
        raise ConfigError(f"channel: {exc}") from exc


def scenario_from_dict(data) -> ScenarioConfig:
    """A scenario config's sections but output (see _output_settings)."""
    required = {"preparation", "overlaps", "statistics", "channel"}
    data = _require_keys(data, "config", required | {"output"}, required)
    return ScenarioConfig(
        preparation=_parse_preparation(data["preparation"]),
        overlaps=_parse_overlaps(data["overlaps"]),
        statistics=_parse_statistics(data["statistics"]),
        channel=_parse_channel(data["channel"]))


# ---------------------------------------------------------------------------
# sweep configuration


def _parse_axis(data, where: str) -> SweepAxis:
    data = _require_keys(data, where, {"name", "min", "max", "points"})
    name = data["name"]
    if not isinstance(name, str):
        raise ConfigError(f"{where}.name must be a string")
    points = data["points"]
    if not isinstance(points, int) or isinstance(points, bool):
        raise ConfigError(f"{where}.points must be an integer")
    lo = _parse_real(data["min"], f"{where}.min")
    hi = _parse_real(data["max"], f"{where}.max")
    try:
        return SweepAxis(name=name, lo=lo, hi=hi, points=points)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# kind of fixed parameter -> its reader; SweepSpec checks the mode itself
_FIXED_READERS = {"mode": lambda value, where: value, "real": _parse_real,
                  "complex": parse_complex, "omega": _parse_omega}


def _parse_sweep_fixed(data) -> dict:
    """sweep.fixed, each key read by its kind; SweepSpec checks which keys
    the mode and the grid need."""
    data = _require_keys(data, "sweep.fixed", FIXED_PARAMETERS, ())
    return {key: _FIXED_READERS[FIXED_PARAMETERS[key][0]](
                value, f"sweep.fixed.{key}")
            for key, value in data.items()}


def sweep_from_dict(data) -> SweepSpec:
    """A sweep config's sweep section (its output: see _output_settings)."""
    data = _require_keys(data, "config", {"sweep", "output"}, {"sweep"})
    sweep = _require_keys(data["sweep"], "sweep", {"figure", "grid", "fixed"})
    grid = sweep["grid"]
    if not isinstance(grid, list) or not grid:
        raise ConfigError("sweep.grid must be a non-empty list of axes")
    axes = tuple(_parse_axis(axis, f"sweep.grid[{i}]")
                 for i, axis in enumerate(grid))
    fixed = _parse_sweep_fixed(sweep["fixed"])
    try:
        return SweepSpec(figure=sweep["figure"], grid=axes, fixed=fixed)
    except ValueError as exc:
        raise ConfigError(f"sweep: {exc}") from exc


# ---------------------------------------------------------------------------
# formatting and output


def format_number(value: float) -> str:
    """Shortest decimal at up to 15 significant digits (bit-stable output)."""
    return format(float(value), ".15g")


def _write_lines(pieces, out_path: str | None) -> None:
    """Write the bytes pieces in order to out_path, each in unbuffered
    writes, or to stdout. stdout takes each piece decoded from UTF-8, so a
    text-only stream (an io.StringIO) takes them too."""
    if out_path is None:
        sys.stdout.writelines(map(bytes.decode, pieces))
        sys.stdout.flush()  # a reader that closed the pipe raises here
        return
    try:
        with open(out_path, "wb", buffering=0) as handle:
            for piece in pieces:
                view = memoryview(piece)
                while view:  # a raw write may take only part of the piece
                    view = view[handle.write(view):]
    except OSError as exc:
        raise ConfigError(f"cannot write output {out_path}: {exc}") from exc


def _csv_line(row) -> bytes:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow(row)
    return buffer.getvalue().encode()


# A single-record result (project, discriminate) is printed by filling a
# template with one % call. The template depends only on the record's
# layout, so it is built on the first record of each (command, result kind,
# format) and kept for the process. JSON templates are json.dumps(indent=2,
# sort_keys=True) of the record with a %s slot at every leaf; a float fills
# its slot through str, which is float.__repr__, json's own float printer.
# CSV templates are a header line and a row whose float cells are %.15g
# slots, which print what format_number prints.
_record_templates: dict = {}


def _record_template(key: tuple, build, record) -> str:
    """The template build(record) makes for the layout key, built once."""
    template = _record_templates.get((build, key))
    if template is None:
        template = _record_templates[build, key] = build(record)
    return template


def _json_skeleton(value):
    """value with a "%s" string in place of each leaf."""
    if isinstance(value, dict):
        return {key: _json_skeleton(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_json_skeleton(item) for item in value]
    if isinstance(value, np.ndarray):
        return np.full(value.shape, "%s", dtype=object).tolist()
    return "%s"


def _json_template(payload: dict) -> str:
    text = json.dumps(_json_skeleton(payload), indent=2, sort_keys=True)
    return text.replace("%", "%%").replace('"%%s"', "%s") + "\n"


def _json_leaves(value, leaves: list) -> None:
    """Append the leaves of value to leaves in the order json.dumps with
    sort_keys prints them: floats as they are, other leaves as JSON text."""
    if type(value) is float:
        leaves.append(value)
    elif isinstance(value, np.ndarray):
        leaves += value.ravel().tolist()
    elif isinstance(value, dict):
        for key in sorted(value):
            _json_leaves(value[key], leaves)
    elif isinstance(value, list):
        for item in value:
            _json_leaves(item, leaves)
    elif isinstance(value, bool):
        leaves.append("true" if value else "false")
    else:
        leaves.append(json.encoder.encode_basestring_ascii(value))


def _json_float(value: float) -> str:
    """A float as json prints it: its repr, or NaN, Infinity, -Infinity."""
    if math.isfinite(value):
        return repr(value)
    return "NaN" if math.isnan(value) else ("Infinity" if value > 0
                                            else "-Infinity")


def _json_record(key: tuple, payload: dict) -> bytes:
    """json.dumps(payload, indent=2, sort_keys=True) plus a newline, as bytes.
    The payload's leaves are floats, float arrays (printed as nested lists),
    bools and strings; key names its layout."""
    leaves = []
    _json_leaves(payload, leaves)
    template = _record_template(key, _json_template, payload)
    text = template % tuple(leaves)
    if "nan" in text or "inf" in text:
        # a non-finite float printed as str does: print every float as
        # json does (a key or string holding these letters lands here too)
        text = template % tuple(_json_float(leaf) if type(leaf) is float
                                else leaf for leaf in leaves)
    return text.encode()


def _csv_template(fields) -> str:
    """The header line and the row template of (name, value) fields. A
    complex array field's cells are named by prefix and C-order indices, re
    then im (amp0_re, rho01_im, pi1_23_re)."""
    names, slots = [], []
    for name, value in fields:
        if isinstance(value, np.ndarray):
            for index in np.ndindex(value.shape):
                cell = name + "".join(map(str, index))
                names += [f"{cell}_re", f"{cell}_im"]
            slots += ["%.15g"] * (2 * value.size)
        else:
            names.append(name)
            slots.append("%s" if isinstance(value, str) else "%.15g")
    return (_csv_line(names).decode().replace("%", "%%")
            + _csv_line(slots).decode())


def _csv_record(key: tuple, fields: list) -> bytes:
    """A header line of the cell names and a row of their values, as
    csv.writer lays them out: floats (alone or as complex arrays, see
    _csv_template) are printed by format_number, strings as they are; a
    string cell must be one that csv leaves unquoted (true, false). key
    names the layout of fields."""
    values = []
    for _, value in fields:
        if isinstance(value, np.ndarray):
            # a C-ordered complex array read as floats interleaves re, im
            values += value.ravel().view(np.float64).tolist()
        else:
            values.append(value)
    template = _record_template(key, _csv_template, fields)
    return (template % tuple(values)).encode()


# ---------------------------------------------------------------------------
# project command


def _project_scenario(config: ScenarioConfig):
    prep = config.preparation
    stats = config.statistics
    if stats is Statistics.DISTINGUISHABLE:
        if not isinstance(prep, MixedDiagonal):
            raise ConfigError(
                "distinguishable statistics require a mixed_diagonal "
                "preparation (labelled particles carry no exchange branch)")
        return project_distinguishable(prep, config.overlaps)
    if isinstance(prep, MixedDiagonal):
        return project_mixed(prep, config.overlaps, stats)
    if isinstance(prep, PureProduct):
        return project_pure(prep, config.overlaps, stats)
    return project_superposition(prep, config.overlaps, stats)


# result kind -> (JSON array name, CSV cell prefix, weight name)
_PROJECTED = {"state_vector": ("amplitudes", "amp", "norm_sq_raw"),
              "density_matrix": ("matrix", "rho", "trace_raw")}


def _project_record(fmt: str, kind: str, array: np.ndarray, weight: float,
                    coherent: bool, l1: float) -> bytes:
    """The project command's output for a result of kind (a _PROJECTED key)
    with complex entries array."""
    name, prefix, weight_name = _PROJECTED[kind]
    if fmt == "json":
        return _json_record(("project", kind), {
            "kind": kind, "basis": list(BASIS_LABELS),
            f"{name}_re": array.real, f"{name}_im": array.imag,
            weight_name: weight, "coherent": coherent, "coherence_l1": l1})
    return _csv_record(("project", kind), [
        (prefix, array), (weight_name, weight),
        ("coherent", "true" if coherent else "false"), ("coherence_l1", l1)])


def cmd_project(config: ScenarioConfig, out_path: str | None, fmt: str) -> int:
    projected = _project_scenario(config)
    if isinstance(projected, StateVector4):
        kind, array, weight = ("state_vector", projected.entries,
                               projected.norm_sq_raw)
        rho = DensityMatrix4._trusted(hermitian_part(projected.projector()),
                                      weight)
    else:
        kind, array, weight = ("density_matrix", projected.mat,
                               projected.trace_raw)
        rho = projected
    _write_lines((_project_record(fmt, kind, array, weight,
                                  not is_incoherent(rho), coherence_l1(rho)),),
                 out_path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# discriminate command


def _closed_form_for(config: ScenarioConfig) -> float:
    prep = config.preparation
    channel = config.channel
    if isinstance(prep, SpinSuperposition):
        return closed_form_error_general(prep, config.overlaps,
                                         config.statistics, channel)
    if prep.first == prep.second:
        # single-basis-state hypotheses differ by a global phase only
        return min(channel.priors)
    # the (down, up) form, with the generator weights the two branches see
    # (for (down, up) itself the remap is the identity)
    remapped = PhaseChannel(
        omega=(channel.omega[0],
               channel.omega[basis_index(prep.first, prep.second)],
               channel.omega[basis_index(prep.second, prep.first)],
               channel.omega[3]),
        phi=channel.phi, priors=channel.priors)
    return closed_form_error_product(config.overlaps, remapped)


def _discriminate_record(fmt: str, scalars: dict, elements) -> bytes:
    """The discriminate command's output: the float scalars, then the POVM
    elements, each a complex 4x4 array."""
    if fmt == "json":
        return _json_record(("discriminate",), {**scalars, "povm": [
            {"re": element.real, "im": element.imag} for element in elements]})
    return _csv_record(("discriminate",), [
        *scalars.items(),
        *((f"pi{k}_", element) for k, element in enumerate(elements, 1))])


def cmd_discriminate(config: ScenarioConfig, out_path: str | None,
                     fmt: str) -> int:
    if isinstance(config.preparation, MixedDiagonal):
        raise ConfigError("the discrimination game needs a pure preparation "
                          "(pure_product or spin_superposition)")
    if config.statistics is Statistics.DISTINGUISHABLE:
        raise ConfigError(
            "the discrimination game projects identical particles; model "
            "distinguishable ones by setting l_prime and r to zero")
    state = _project_scenario(config)
    closed = _closed_form_for(config)
    # the box multiplies every entry, even a zero one (0 * inf is NaN), so
    # every weight times every phase must be finite
    for key, weight in zip(BASIS_LABELS, config.channel.omega):
        for k, phase in enumerate(config.channel.phi):
            if not math.isfinite(weight * phase):
                raise ConfigError(f"channel.omega.{key} times "
                                  f"channel.phases[{k}] overflows")
    outcome = optimal_povm(config.channel, state)
    scalars = {
        "p_err_closed_form": closed,
        "p_err_povm": outcome.p_err,
        "difference": abs(closed - outcome.p_err),
        "lambda_plus": outcome.lambda_plus,
        "overlap_re": outcome.overlap.real,
        "overlap_im": outcome.overlap.imag,
    }
    _write_lines((_discriminate_record(fmt, scalars, outcome.povm.elements),),
                 out_path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep command


def _filled(template: bytes, block: np.ndarray, float_format: bytes,
            nan_text: bytes) -> bytes:
    """template (one row per row of block) with its %s slots filled with
    the block's cells. The distinct floats are printed with float_format in
    one formatting call, each once, and NaN as nan_text; np.unique on the
    bit patterns keeps 0.0 and -0.0 (and NaN payloads) apart."""
    bits, inverse = np.unique(block.ravel().view(np.int64),
                              return_inverse=True)
    floats = bits.view(np.float64)
    texts = np.array(((float_format + b"\n") * len(bits)
                      % tuple(floats.tolist())).split(b"\n"), dtype=object)
    texts[np.flatnonzero(np.isnan(floats))] = nan_text
    return template % tuple(texts[inverse].tolist())


def _templated_rows(columns: SweepColumns, names: list[str],
                    filled: list[str], row_template, float_format: bytes,
                    nan_text: bytes, rows_per_piece: int):
    """Bytes of every sweep row, rows_per_piece rows a piece, each piece
    one _filled call: a row's cells are its coordinates (names) and values
    (filled). row_template(flag) is the template of a row with the
    %-escaped flag message ("" unflagged), a %s slot per cell; it is built
    once per distinct message. A flagged row's values are NaN."""
    table = np.column_stack([columns.coordinates[name] for name in names]
                            + [columns.values[column] for column in filled])
    template = functools.cache(row_template)
    flagged = sorted(columns.flags)
    for lo in range(0, len(columns), rows_per_piece):
        hi = min(lo + rows_per_piece, len(columns))
        parts, start = [], lo
        for index in flagged[bisect.bisect_left(flagged, lo):
                             bisect.bisect_left(flagged, hi)]:
            parts += [template("") * (index - start),
                      template(columns.flags[index].replace("%", "%%"))]
            start = index + 1
        yield _filled(b"".join([*parts, template("") * (hi - start)]),
                      table[lo:hi], float_format, nan_text)


def _sweep_csv_lines(columns: SweepColumns):
    """CSV bytes of a sweep. b"%.15g" prints exactly what format_number
    does, and csv.writer lays out each row template, so it quotes a flag
    message where the message needs it."""
    names = [axis.name for axis in columns.spec.grid]
    filled = [column for column in SWEEP_COLUMNS if column in columns.values]
    slots = ["%s"] * len(names) + ["%s" if column in filled else ""
                                   for column in SWEEP_COLUMNS]
    yield _csv_line(names + list(SWEEP_COLUMNS) + ["flag"])
    yield from _templated_rows(columns, names, filled,
                               lambda flag: _csv_line(slots + [flag]),
                               b"%.15g", b"", _ROWS_PER_PIECE)


def _json_record_template(names: list[str], cells: dict, flag: str) -> bytes:
    """One record as json.dumps(indent=2, sort_keys=True) lays it out inside
    the records list, led by its separator; each coordinate is a %s slot
    for its repr, which prints a float as json does."""
    coordinates = ",\n".join(f"        {json.dumps(name)}: %s"
                             for name in sorted(names))
    fields = [f"      \"coordinates\": {{\n{coordinates}\n      }}",
              f"      \"flag\": {json.dumps(flag)}"]
    fields += [f"      {json.dumps(column)}: {cells.get(column, 'null')}"
               for column in sorted(SWEEP_COLUMNS)]
    return (",\n    {\n" + ",\n".join(fields) + "\n    }").encode()


def _sweep_json_lines(columns: SweepColumns):
    """The sweep's JSON document as bytes, byte for byte what
    json.dumps(indent=2, sort_keys=True) writes for the list of its
    records."""
    names = sorted(axis.name for axis in columns.spec.grid)
    filled = sorted(columns.values)
    rows = _templated_rows(columns, names, filled, functools.partial(
        _json_record_template, names, dict.fromkeys(filled, "%s")), b"%r",
        b"null", _ROWS_PER_PIECE // 2)
    yield (f"{{\n  \"figure\": {json.dumps(columns.spec.figure)},\n"
           f"  \"records\": [").encode()
    yield next(rows)[1:]  # the first record has no separator
    yield from rows
    yield b"\n  ]\n}\n"


def cmd_sweep(spec: SweepSpec, out_path: str | None, fmt: str) -> int:
    columns = run_sweep(spec)
    if fmt == "json":
        _write_lines(_sweep_json_lines(columns), out_path)
    else:
        _write_lines(_sweep_csv_lines(columns), out_path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# check command


def cmd_check(n: int, seed: int) -> int:
    results = run_selfcheck(n=n, seed=seed)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} suites passed "
          f"(n={n}, seed={seed})")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _int_at_least(minimum: int):
    """argparse type for an integer >= minimum; a refusal names the flag."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be an integer >= {minimum}, got {text!r}")
        return value
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every later
    main() call in the process; parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="sloccsim",
        description="Localized-projection and phase-discrimination simulator "
                    "for two identical spins.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
            ("project", "project a preparation onto the localized basis"),
            ("discriminate", "play one phase-discrimination game")):
        scenario = sub.add_parser(name, help=help_text)
        scenario.add_argument("--config", required=True,
                              help="JSON scenario config")
        scenario.add_argument("--out", help="output path (default: stdout)")
        scenario.add_argument("--format", choices=FORMATS,
                              help="output format (default: json)")

    sweep = sub.add_parser("sweep", help="run a parameter sweep")
    sweep.add_argument("--preset", choices=PRESETS,
                       help="bundled figure preset")
    sweep.add_argument("--config", help="JSON sweep config (alternative to "
                                        "--preset)")
    sweep.add_argument("--out", help="output path (default: stdout)")
    sweep.add_argument("--format", choices=FORMATS,
                       help="output format (default: csv)")

    check = sub.add_parser("check", help="run the invariant and oracle suites")
    check.add_argument("--n", type=_int_at_least(1), default=DEFAULT_DRAWS,
                       help="random draws per suite (at least 1)")
    check.add_argument("--seed", type=_int_at_least(0), default=DEFAULT_SEED,
                       help="campaign seed (nonnegative)")
    return parser


def _load_json(path: str):
    try:
        with open(path, "rb", buffering=0) as handle:
            text = handle.read().decode()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if "\r" in text:
        # universal newlines, as a text-mode read translates them: the
        # decoder's error positions count lines and characters after it
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nesting deeper than the decoder's recursion limit
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def _output_settings(config: dict, args,
                     default_format: str) -> tuple[str | None, str]:
    """(path, format) from the config's output section, read after its other
    sections; --out and --format take precedence. No path means stdout."""
    section = _require_keys(config.get("output", {}), "output",
                            {"path", "format"}, ())
    path = section.get("path")
    if path is not None and not isinstance(path, str):
        raise ConfigError("output.path must be a string")
    fmt = section.get("format")
    if fmt is not None and fmt not in FORMATS:
        raise ConfigError(f"output.format must be 'csv' or 'json', got {fmt!r}")
    return (path if args.out is None else args.out,
            args.format or fmt or default_format)


def _clip(message: str) -> str:
    """message cut to MESSAGE_LIMIT characters, "..." marking a cut."""
    if len(message) <= MESSAGE_LIMIT:
        return message
    return message[:MESSAGE_LIMIT - 3] + "..."


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "check":
            return cmd_check(n=args.n, seed=args.seed)
        if args.command == "sweep":
            if (args.preset is None) == (args.config is None):
                raise ConfigError("sweep needs exactly one of --preset or "
                                  "--config")
            if args.preset is not None:
                data, spec = {}, preset_spec(args.preset)
            else:
                data = _load_json(args.config)
                spec = sweep_from_dict(data)
            return cmd_sweep(spec, *_output_settings(data, args, "csv"))
        data = _load_json(args.config)
        config = scenario_from_dict(data)
        command = cmd_project if args.command == "project" else cmd_discriminate
        return command(config, *_output_settings(data, args, "json"))
    except VanishingProjection as exc:
        print(f"degenerate input: {_clip(str(exc))}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ValueError as exc:
        # ConfigError plus any domain violation raised by the library types
        print(f"config error: {_clip(str(exc))}", file=sys.stderr)
        return EXIT_CONFIG
    except BrokenPipeError:
        # stdout's reader left early (`sloccsim sweep ... | head`); send
        # what is still buffered to devnull, so the flush at exit does not
        # fail again (the SIGPIPE note in the Python signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
