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
import csv
import functools
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .discrimination import (
    PhaseChannel,
    closed_form_error_general,
    closed_form_error_product,
    optimal_povm,
)
from .experiments import (
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

PRESETS = ("fig3a", "fig3b", "fig4", "fig5")

SWEEP_COLUMNS = ("p_err_overlap", "p_err_baseline", "p_err_boson",
                 "p_err_fermion")
_ROWS_PER_PIECE = 2048


class ConfigError(ValueError):
    """The configuration file does not match the schema."""


# ---------------------------------------------------------------------------
# strict JSON helpers


def _require_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {type(value).__name__}")
    return value


def _check_keys(mapping: dict, allowed: set, required: set, where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - set(mapping)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _to_float(value, where: str) -> float:
    """float(value), refusing an integer literal beyond the float range."""
    try:
        return float(value)
    except OverflowError as exc:
        raise ConfigError(f"{where} is too large for a float") from exc


def parse_complex(value, where: str) -> complex:
    if _is_number(value):
        return complex(_to_float(value, where))
    if (isinstance(value, list) and len(value) == 2
            and all(_is_number(x) for x in value)):
        return complex(_to_float(value[0], where), _to_float(value[1], where))
    raise ConfigError(f"{where} must be a number or a [re, im] pair, got {value!r}")


def _parse_real(value, where: str) -> float:
    if _is_number(value):
        return _to_float(value, where)
    raise ConfigError(f"{where} must be a number, got {value!r}")


# ---------------------------------------------------------------------------
# scenario configuration


@dataclass(frozen=True)
class OutputSpec:
    path: str | None = None
    format: str | None = None


@dataclass(frozen=True)
class ScenarioConfig:
    preparation: Preparation
    overlaps: OverlapAmplitudes
    statistics: Statistics
    channel: PhaseChannel
    output: OutputSpec | None = None


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
        _check_keys(data, {"kind", "weights"}, {"kind", "weights"}, "preparation")
        weights = data["weights"]
        if not isinstance(weights, list) or len(weights) != 4:
            raise ConfigError("preparation.weights must be a list of 4 numbers "
                              "in basis order (down_down, down_up, up_down, up_up)")
        return MixedDiagonal(weights=tuple(
            _parse_real(w, "preparation.weights") for w in weights))
    if kind == "pure_product":
        _check_keys(data, {"kind", "first", "second"},
                    {"kind", "first", "second"}, "preparation")
        return PureProduct(first=_parse_spin(data["first"], "preparation.first"),
                           second=_parse_spin(data["second"], "preparation.second"))
    if kind == "spin_superposition":
        _check_keys(data, {"kind", "up_amp", "down_amp"},
                    {"kind", "up_amp", "down_amp"}, "preparation")
        return SpinSuperposition(
            up_amp=parse_complex(data["up_amp"], "preparation.up_amp"),
            down_amp=parse_complex(data["down_amp"], "preparation.down_amp"))
    raise ConfigError(
        f"preparation.kind must be 'mixed_diagonal', 'pure_product' or "
        f"'spin_superposition', got {kind!r}")


def _parse_overlaps(data) -> OverlapAmplitudes:
    data = _require_mapping(data, "overlaps")
    keys = {"l", "r", "l_prime", "r_prime"}
    _check_keys(data, keys, keys, "overlaps")
    try:
        return OverlapAmplitudes(
            l=parse_complex(data["l"], "overlaps.l"),
            r=parse_complex(data["r"], "overlaps.r"),
            l_prime=parse_complex(data["l_prime"], "overlaps.l_prime"),
            r_prime=parse_complex(data["r_prime"], "overlaps.r_prime"))
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
    data = _require_mapping(data, where)
    _check_keys(data, set(BASIS_LABELS), set(BASIS_LABELS), where)
    return tuple(_parse_real(data[key], f"{where}.{key}")
                 for key in BASIS_LABELS)


def _parse_channel(data) -> PhaseChannel:
    data = _require_mapping(data, "channel")
    keys = {"omega", "phases", "priors"}
    _check_keys(data, keys, keys, "channel")
    phases = data["phases"]
    priors = data["priors"]
    for name, pair in (("phases", phases), ("priors", priors)):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"channel.{name} must be a list of 2 numbers")
    try:
        return PhaseChannel(
            omega=_parse_omega(data["omega"], "channel.omega"),
            phi=tuple(_parse_real(x, "channel.phases") for x in phases),
            priors=tuple(_parse_real(x, "channel.priors") for x in priors))
    except ValueError as exc:
        raise ConfigError(f"channel: {exc}") from exc


def _parse_output(data) -> OutputSpec:
    data = _require_mapping(data, "output")
    _check_keys(data, {"path", "format"}, set(), "output")
    fmt = data.get("format")
    if fmt is not None and fmt not in ("csv", "json"):
        raise ConfigError(f"output.format must be 'csv' or 'json', got {fmt!r}")
    path = data.get("path")
    if path is not None and not isinstance(path, str):
        raise ConfigError("output.path must be a string")
    return OutputSpec(path=path, format=fmt)


def scenario_from_dict(data) -> ScenarioConfig:
    data = _require_mapping(data, "config")
    allowed = {"preparation", "overlaps", "statistics", "channel", "output"}
    required = {"preparation", "overlaps", "statistics", "channel"}
    _check_keys(data, allowed, required, "config")
    output = _parse_output(data["output"]) if "output" in data else None
    return ScenarioConfig(
        preparation=_parse_preparation(data["preparation"]),
        overlaps=_parse_overlaps(data["overlaps"]),
        statistics=_parse_statistics(data["statistics"]),
        channel=_parse_channel(data["channel"]),
        output=output)


# ---------------------------------------------------------------------------
# sweep configuration


def _parse_axis(data, index: int) -> SweepAxis:
    data = _require_mapping(data, f"sweep.grid[{index}]")
    keys = {"name", "min", "max", "points"}
    _check_keys(data, keys, keys, f"sweep.grid[{index}]")
    name = data["name"]
    if not isinstance(name, str):
        raise ConfigError(f"sweep.grid[{index}].name must be a string")
    points = data["points"]
    if not isinstance(points, int) or isinstance(points, bool):
        raise ConfigError(f"sweep.grid[{index}].points must be an integer")
    try:
        return SweepAxis(name=name,
                         lo=_parse_real(data["min"], "sweep.grid.min"),
                         hi=_parse_real(data["max"], "sweep.grid.max"),
                         points=points)
    except ValueError as exc:
        raise ConfigError(f"sweep.grid[{index}]: {exc}") from exc


def _parse_sweep_fixed(data) -> dict:
    data = _require_mapping(data, "sweep.fixed")
    fixed = {}
    for key, value in data.items():
        if key == "mode":
            fixed[key] = value
        elif key == "omega":
            fixed[key] = _parse_omega(value, "sweep.fixed.omega")
        elif key in ("p1", "phi12"):
            fixed[key] = _parse_real(value, f"sweep.fixed.{key}")
        elif key in ("l", "r", "l_prime", "r_prime", "up_amp", "down_amp"):
            fixed[key] = parse_complex(value, f"sweep.fixed.{key}")
        else:
            raise ConfigError(f"unknown keys in sweep.fixed: ['{key}']")
    return fixed


def sweep_from_dict(data) -> SweepSpec:
    data = _require_mapping(data, "config")
    _check_keys(data, {"sweep", "output"}, {"sweep"}, "config")
    sweep = _require_mapping(data["sweep"], "sweep")
    keys = {"figure", "grid", "fixed"}
    _check_keys(sweep, keys, keys, "sweep")
    grid = sweep["grid"]
    if not isinstance(grid, list) or not grid:
        raise ConfigError("sweep.grid must be a non-empty list of axes")
    axes = tuple(_parse_axis(axis, i) for i, axis in enumerate(grid))
    try:
        return SweepSpec(figure=sweep["figure"], grid=axes,
                         fixed=_parse_sweep_fixed(sweep["fixed"]))
    except ValueError as exc:
        raise ConfigError(f"sweep: {exc}") from exc


# ---------------------------------------------------------------------------
# formatting and output


def format_number(value: float) -> str:
    """Shortest decimal at up to 15 significant digits (bit-stable output)."""
    return format(float(value), ".15g")


def _write_lines(pieces, out_path: str | None) -> None:
    """Write the text pieces in order to out_path, or to stdout."""
    if out_path is None:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()  # a reader that closed the pipe raises here
    else:
        try:
            with Path(out_path).open("w", encoding="utf-8") as handle:
                handle.writelines(pieces)
        except OSError as exc:
            raise ConfigError(f"cannot write output {out_path}: {exc}") from exc


def _dump_json(payload, out_path: str | None) -> None:
    _write_lines([json.dumps(payload, indent=2, sort_keys=True) + "\n"],
                 out_path)


def _csv_line(row) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow(row)
    return buffer.getvalue()


def _complex_cells(prefix: str, array: np.ndarray):
    """(name, value) cells of a complex array in C order: <prefix><indices>_re
    then <prefix><indices>_im, e.g. amp0_re, rho01_im, pi1_23_re."""
    for index, z in zip(np.ndindex(array.shape), array.ravel().tolist()):
        name = prefix + "".join(map(str, index))
        yield f"{name}_re", z.real
        yield f"{name}_im", z.imag


def _csv_result(cells, out_path: str | None) -> None:
    """A header line of the cell names and a row of their values; numbers
    are printed by format_number, strings as they are."""
    names, values = zip(*cells)
    row = [v if isinstance(v, str) else format_number(v) for v in values]
    _write_lines([_csv_line(names), _csv_line(row)], out_path)


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


def cmd_project(config: ScenarioConfig, out_path: str | None, fmt: str) -> int:
    projected = _project_scenario(config)
    if isinstance(projected, StateVector4):
        kind, key, prefix, weight_name = ("state_vector", "amplitudes", "amp",
                                          "norm_sq_raw")
        array, weight = projected.entries, projected.norm_sq_raw
        rho = DensityMatrix4._trusted(hermitian_part(projected.projector()),
                                      weight)
    else:
        kind, key, prefix, weight_name = ("density_matrix", "matrix", "rho",
                                          "trace_raw")
        array, weight, rho = projected.mat, projected.trace_raw, projected
    coherent = not is_incoherent(rho)
    l1 = coherence_l1(rho)
    if fmt == "json":
        _dump_json({"kind": kind, "basis": list(BASIS_LABELS),
                    f"{key}_re": array.real.tolist(),
                    f"{key}_im": array.imag.tolist(), weight_name: weight,
                    "coherent": coherent, "coherence_l1": l1}, out_path)
    else:
        _csv_result([*_complex_cells(prefix, array), (weight_name, weight),
                     ("coherent", "true" if coherent else "false"),
                     ("coherence_l1", l1)], out_path)
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
    elements = outcome.povm.elements
    if fmt == "json":
        _dump_json({**scalars, "povm": [
            {"re": element.real.tolist(), "im": element.imag.tolist()}
            for element in elements]}, out_path)
    else:
        _csv_result([*scalars.items(), *(
            cell for k, element in enumerate(elements, start=1)
            for cell in _complex_cells(f"pi{k}_", element))], out_path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep command


def _filled(template: str, block: np.ndarray, float_format: str) -> str:
    """template once per row of block, its %s slots filled with the row's
    cells. Each distinct float is printed once with float_format; np.unique
    on the bit patterns keeps 0.0 and -0.0 (and NaN payloads) apart."""
    bits, inverse = np.unique(block.ravel().view(np.int64),
                              return_inverse=True)
    texts = np.array([float_format % x
                      for x in bits.view(np.float64).tolist()], dtype=object)
    return (template * len(block)) % tuple(texts[inverse].tolist())


def _templated_rows(columns: SweepColumns, cells: list[np.ndarray],
                    template: str, float_format: str, flagged_row):
    """Text of every sweep row, in pieces. Unflagged rows are _filled,
    _ROWS_PER_PIECE rows at a time; a flagged row is flagged_row(index)
    instead."""
    table = np.column_stack(cells)
    start = 0
    for stop in [*sorted(columns.flags), len(columns)]:
        for lo in range(start, stop, _ROWS_PER_PIECE):
            yield _filled(template, table[lo:min(lo + _ROWS_PER_PIECE, stop)],
                          float_format)
        if stop < len(columns):
            yield flagged_row(stop)
        start = stop + 1


def _sweep_csv_lines(spec: SweepSpec, columns: SweepColumns):
    """CSV text of a sweep. "%.15g" prints exactly what format_number does;
    flagged rows go through csv.writer, which quotes the message when it
    needs it."""
    names = [axis.name for axis in spec.grid]
    filled = [column for column in SWEEP_COLUMNS if column in columns.values]
    template = ",".join(["%s"] * len(names)
                        + ["%s" if column in filled else ""
                           for column in SWEEP_COLUMNS] + ["\n"])

    def flagged_row(index: int) -> str:
        return _csv_line(
            [format_number(columns.coordinates[name][index]) for name in names]
            + [""] * len(SWEEP_COLUMNS) + [columns.flags[index]])

    yield _csv_line(names + list(SWEEP_COLUMNS) + ["flag"])
    yield from _templated_rows(
        columns, [columns.coordinates[name] for name in names]
        + [columns.values[column] for column in filled], template, "%.15g",
        flagged_row)


def _json_record_template(names: list[str], cells: dict, flag: str) -> str:
    """One record as json.dumps(indent=2, sort_keys=True) lays it out inside
    the records list, led by its separator; each coordinate is a %s slot
    for its repr, which prints a float as json does."""
    coordinates = ",\n".join(f"        {json.dumps(name)}: %s"
                             for name in sorted(names))
    fields = [f"      \"coordinates\": {{\n{coordinates}\n      }}",
              f"      \"flag\": {flag}"]
    fields += [f"      {json.dumps(column)}: {cells.get(column, 'null')}"
               for column in sorted(SWEEP_COLUMNS)]
    return ",\n    {\n" + ",\n".join(fields) + "\n    }"


def _sweep_json_lines(spec: SweepSpec, columns: SweepColumns):
    """The sweep's JSON document, byte for byte what json.dumps(indent=2,
    sort_keys=True) writes for the list of its records."""
    names = sorted(axis.name for axis in spec.grid)
    filled = sorted(columns.values)
    template = _json_record_template(names, dict.fromkeys(filled, "%s"), '""')
    flagged = _json_record_template(names, {}, "%s")

    def flagged_row(index: int) -> str:
        return flagged % (*(repr(columns.coordinates[name][index].item())
                            for name in names),
                          json.dumps(columns.flags[index]))

    rows = _templated_rows(
        columns, [columns.coordinates[name] for name in names]
        + [columns.values[column] for column in filled], template, "%r",
        flagged_row)
    yield f"{{\n  \"figure\": {json.dumps(spec.figure)},\n  \"records\": ["
    yield next(rows)[1:]  # the first record has no separator
    yield from rows
    yield "\n  ]\n}\n"


def cmd_sweep(spec: SweepSpec, out_path: str | None, fmt: str) -> int:
    columns = run_sweep(spec)
    if fmt == "json":
        _write_lines(_sweep_json_lines(spec, columns), out_path)
    else:
        _write_lines(_sweep_csv_lines(spec, columns), out_path)
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

    project = sub.add_parser("project", help="project a preparation onto the "
                                             "localized basis")
    project.add_argument("--config", required=True, help="JSON scenario config")
    project.add_argument("--out", help="output path (default: stdout)")
    project.add_argument("--format", choices=("csv", "json"),
                         help="output format (default: json)")

    disc = sub.add_parser("discriminate", help="play one phase-discrimination "
                                               "game")
    disc.add_argument("--config", required=True, help="JSON scenario config")
    disc.add_argument("--out", help="output path (default: stdout)")
    disc.add_argument("--format", choices=("csv", "json"),
                      help="output format (default: json)")

    sweep = sub.add_parser("sweep", help="run a parameter sweep")
    sweep.add_argument("--preset", choices=PRESETS,
                       help="bundled figure preset")
    sweep.add_argument("--config", help="JSON sweep config (alternative to "
                                        "--preset)")
    sweep.add_argument("--out", help="output path (default: stdout)")
    sweep.add_argument("--format", choices=("csv", "json"),
                       help="output format (default: csv)")

    check = sub.add_parser("check", help="run the invariant and oracle suites")
    check.add_argument("--n", type=_int_at_least(1), default=DEFAULT_DRAWS,
                       help="random draws per suite (at least 1)")
    check.add_argument("--seed", type=_int_at_least(0), default=DEFAULT_SEED,
                       help="campaign seed (nonnegative)")
    return parser


def _load_json(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def _resolve_output(args, config_output: OutputSpec | None,
                    default_fmt: str) -> tuple[str | None, str]:
    out_path = args.out
    fmt = args.format
    if config_output is not None:
        if out_path is None:
            out_path = config_output.path
        if fmt is None:
            fmt = config_output.format
    return out_path, fmt or default_fmt


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "project" or args.command == "discriminate":
            config = scenario_from_dict(_load_json(args.config))
            out_path, fmt = _resolve_output(args, config.output, "json")
            if args.command == "project":
                return cmd_project(config, out_path, fmt)
            return cmd_discriminate(config, out_path, fmt)
        if args.command == "sweep":
            if (args.preset is None) == (args.config is None):
                raise ConfigError("sweep needs exactly one of --preset or "
                                  "--config")
            if args.preset is not None:
                spec = preset_spec(args.preset)
                output = None
            else:
                data = _load_json(args.config)
                spec = sweep_from_dict(data)
                output = (_parse_output(data["output"])
                          if "output" in data else None)
            out_path, fmt = _resolve_output(args, output, "csv")
            return cmd_sweep(spec, out_path, fmt)
        return cmd_check(n=args.n, seed=args.seed)
    except VanishingProjection as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ValueError as exc:
        # ConfigError plus any domain violation raised by the library types
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BrokenPipeError:
        # stdout's reader left early (`sloccsim sweep ... | head`); send
        # what is still buffered to devnull, so the flush at exit does not
        # fail again (the SIGPIPE note in the Python signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
