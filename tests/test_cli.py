"""End-to-end tests for the command line front end."""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from sloccsim.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_DEGENERATE,
    EXIT_OK,
    MESSAGE_LIMIT,
    ScenarioConfig,
    build_parser,
    main,
    scenario_from_dict,
)
from sloccsim import cli, selfcheck
from sloccsim.discrimination import PhaseChannel
from sloccsim.experiments import FIXED_PARAMETERS
from sloccsim.selfcheck import OracleCampaignSummary
from sloccsim.states import OverlapAmplitudes, SpinSuperposition, Statistics

from helpers import scenario_to_dict

S = 1.0 / math.sqrt(2.0)
THIRD = 1.0 / 3.0
ABSENT = object()  # for _set_at: remove the field


def base_config(**overrides):
    config = {
        "preparation": {"kind": "pure_product", "first": "down", "second": "up"},
        "overlaps": {"l": S, "r": S, "l_prime": S, "r_prime": S},
        "statistics": "boson",
        "channel": {
            "omega": {"down_down": 0, "down_up": 1, "up_down": 0, "up_up": 0},
            "phases": [math.pi, 0.0],
            "priors": [THIRD, 1.0 - THIRD],
        },
    }
    config.update(overrides)
    return config


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_OK, captured.err
    return json.loads(captured.out)


# ---------------------------------------------------------------------------
# project


def test_project_balanced_product(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    payload = run_json(capsys, ["project", "--config", path])
    assert payload["kind"] == "state_vector"
    magnitudes = [math.hypot(re, im) for re, im in
                  zip(payload["amplitudes_re"], payload["amplitudes_im"])]
    np.testing.assert_allclose(magnitudes, [0, S, S, 0], atol=1e-12)
    assert payload["coherent"] is True
    assert payload["norm_sq_raw"] == pytest.approx(0.5, abs=1e-12)


def test_project_separated_particles_incoherent(tmp_path, capsys):
    config = base_config(overlaps={"l": S, "r": 0.0, "l_prime": 0.0,
                                   "r_prime": S})
    path = write_config(tmp_path, config)
    payload = run_json(capsys, ["project", "--config", path])
    assert payload["coherent"] is False
    assert payload["coherence_l1"] == pytest.approx(0.0, abs=1e-14)


def test_project_fermion_equal_spins_exits_3(tmp_path, capsys):
    config = base_config(
        preparation={"kind": "pure_product", "first": "down", "second": "down"},
        statistics="fermion")
    path = write_config(tmp_path, config)
    assert main(["project", "--config", path]) == EXIT_DEGENERATE
    err = capsys.readouterr().err
    assert "degenerate" in err
    assert "down" in err


def test_project_mixed_diagonal_density_output(tmp_path, capsys):
    config = base_config(
        preparation={"kind": "mixed_diagonal", "weights": [0, 1, 0, 0]})
    path = write_config(tmp_path, config)
    payload = run_json(capsys, ["project", "--config", path])
    assert payload["kind"] == "density_matrix"
    assert payload["matrix_re"][1][1] == pytest.approx(0.5, abs=1e-12)
    assert payload["matrix_re"][1][2] == pytest.approx(0.5, abs=1e-12)
    assert payload["coherent"] is True


def test_project_distinguishable_mixture_incoherent(tmp_path, capsys):
    config = base_config(
        preparation={"kind": "mixed_diagonal", "weights": [0.25, 0.25, 0.25, 0.25]},
        statistics="distinguishable")
    path = write_config(tmp_path, config)
    payload = run_json(capsys, ["project", "--config", path])
    assert payload["coherent"] is False
    np.testing.assert_allclose(np.diag(payload["matrix_re"]), [0.25] * 4,
                               atol=1e-14)


def test_project_distinguishable_pure_rejected(tmp_path, capsys):
    config = base_config(statistics="distinguishable")
    path = write_config(tmp_path, config)
    assert main(["project", "--config", path]) == EXIT_CONFIG
    assert "mixed_diagonal" in capsys.readouterr().err


def test_project_superposition(tmp_path, capsys):
    config = base_config(
        preparation={"kind": "spin_superposition", "up_amp": S, "down_amp": S})
    path = write_config(tmp_path, config)
    payload = run_json(capsys, ["project", "--config", path])
    np.testing.assert_allclose(
        payload["amplitudes_re"],
        [math.sqrt(2.0 / 3.0), 1 / math.sqrt(6), 1 / math.sqrt(6), 0],
        atol=1e-12)


def test_project_csv_format(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "state.csv"
    code = main(["project", "--config", path, "--format", "csv",
                 "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    header = lines[0].split(",")
    assert header[0] == "amp0_re"
    assert "coherent" in header
    row = dict(zip(header, lines[1].split(",")))
    assert float(row["amp1_re"]) == pytest.approx(S, abs=1e-12)
    assert row["coherent"] == "true"


# ---------------------------------------------------------------------------
# discriminate


def test_discriminate_zero_error_point(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    payload = run_json(capsys, ["discriminate", "--config", path])
    assert payload["p_err_closed_form"] <= 1e-10
    assert payload["p_err_povm"] <= 1e-10
    assert payload["difference"] <= 1e-10
    assert len(payload["povm"]) == 2


def test_discriminate_separated_particles_hit_prior(tmp_path, capsys):
    config = base_config(overlaps={"l": S, "r": 0.0, "l_prime": 0.0,
                                   "r_prime": S})
    path = write_config(tmp_path, config)
    payload = run_json(capsys, ["discriminate", "--config", path])
    assert payload["p_err_closed_form"] == pytest.approx(THIRD, abs=1e-12)
    assert payload["p_err_povm"] == pytest.approx(THIRD, abs=1e-10)


def test_discriminate_equal_phases_guess_prior(tmp_path, capsys):
    config = base_config()
    config["channel"]["phases"] = [0.7, 0.7]
    path = write_config(tmp_path, config)
    payload = run_json(capsys, ["discriminate", "--config", path])
    assert payload["p_err_closed_form"] == pytest.approx(THIRD, abs=1e-12)
    assert payload["p_err_povm"] == pytest.approx(THIRD, abs=1e-10)


def test_discriminate_swapped_product_spins(tmp_path, capsys):
    # closed form must track the POVM oracle for the (up, down) preparation too
    config = base_config(
        preparation={"kind": "pure_product", "first": "up", "second": "down"})
    config["channel"]["omega"] = {"down_down": 0, "down_up": 2.0,
                                  "up_down": 0.5, "up_up": 0}
    config["channel"]["phases"] = [1.3, 0.0]
    path = write_config(tmp_path, config)
    payload = run_json(capsys, ["discriminate", "--config", path])
    assert payload["difference"] <= 1e-10


def test_discriminate_superposition_fermion(tmp_path, capsys):
    config = base_config(
        preparation={"kind": "spin_superposition", "up_amp": S, "down_amp": S},
        statistics="fermion")
    config["channel"]["omega"] = {"down_down": 1.0, "down_up": 3.0,
                                  "up_down": 2.0, "up_up": 0.0}
    path = write_config(tmp_path, config)
    payload = run_json(capsys, ["discriminate", "--config", path])
    assert payload["p_err_closed_form"] == pytest.approx(0.0, abs=1e-10)
    assert payload["p_err_povm"] == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("settings", [
    {"channel.omega.down_up": 1e308, "channel.phases": [1e10, 0.0]},
    {"channel.phases": [1e308, -1e308]},  # phi12 itself overflows
    {"preparation": {"kind": "spin_superposition", "up_amp": S,
                     "down_amp": S},
     "channel.omega.down_down": 1e308, "channel.phases": [1e10, 0.0]},
], ids=["down_up", "phi12", "down_down"])
def test_discriminate_phase_product_overflow_exits_2(tmp_path, capsys,
                                                     settings):
    config = base_config()
    for field, value in settings.items():
        _set_at(config, field, value)
    path = write_config(tmp_path, config)
    assert main(["discriminate", "--config", path]) == EXIT_CONFIG
    assert ("generator weight times phi12 overflows"
            in capsys.readouterr().err)


@pytest.mark.parametrize("preparation", [
    {"kind": "pure_product", "first": "down", "second": "up"},
    {"kind": "pure_product", "first": "up", "second": "up"},
], ids=["down_up", "equal_spins"])
def test_discriminate_weight_times_phase_overflow_exits_2(tmp_path, capsys,
                                                          preparation):
    # phi12 = 0 keeps the closed form finite; the box itself overflows,
    # and a pure product of equal spins skips the closed form altogether
    config = base_config(preparation=preparation)
    _set_at(config, "channel.omega.down_up", 2)
    _set_at(config, "channel.phases", [1e308, 1e308])
    path = write_config(tmp_path, config)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["discriminate", "--config", path]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: channel.omega.down_up times channel.phases[0] "
        "overflows\n")


def test_discriminate_rejects_mixture(tmp_path, capsys):
    config = base_config(
        preparation={"kind": "mixed_diagonal", "weights": [0, 1, 0, 0]})
    path = write_config(tmp_path, config)
    assert main(["discriminate", "--config", path]) == EXIT_CONFIG
    assert "pure preparation" in capsys.readouterr().err


def test_discriminate_rejects_distinguishable(tmp_path, capsys):
    config = base_config(statistics="distinguishable")
    path = write_config(tmp_path, config)
    assert main(["discriminate", "--config", path]) == EXIT_CONFIG


# ---------------------------------------------------------------------------
# sweep


def test_sweep_fig3a_csv(tmp_path):
    out = tmp_path / "fig3a.csv"
    assert main(["sweep", "--preset", "fig3a", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == ("phi12,p_err_overlap,p_err_baseline,p_err_boson,"
                        "p_err_fermion,flag")
    assert len(lines) == 362
    overlap = [float(line.split(",")[1]) for line in lines[1:]]
    assert min(overlap) <= 1e-10
    baseline = {line.split(",")[2] for line in lines[1:]}
    assert len(baseline) == 1


def test_sweep_fig3b_row_count(tmp_path):
    out = tmp_path / "fig3b.csv"
    assert main(["sweep", "--preset", "fig3b", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 10202


def test_sweep_fig4_statistics_columns(tmp_path):
    out = tmp_path / "fig4.csv"
    assert main(["sweep", "--preset", "fig4", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    boson_col = header.index("p_err_boson")
    fermion_col = header.index("p_err_fermion")
    baseline_col = header.index("p_err_baseline")
    overlap_col = header.index("p_err_overlap")
    cells = [line.split(",") for line in lines[1:]]
    assert all(cell[overlap_col] == "" for cell in cells)
    assert all(cell[boson_col] != "" and cell[fermion_col] != "" for cell in cells)
    assert any(float(c[fermion_col]) < float(c[boson_col]) - 1e-6 for c in cells)
    assert all(c[baseline_col] != "" for c in cells)


def test_sweep_byte_identical_reruns(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(["sweep", "--preset", "fig3a", "--out", str(first)]) == EXIT_OK
    assert main(["sweep", "--preset", "fig3a", "--out", str(second)]) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()


def test_sweep_json_format(tmp_path, capsys):
    payload = run_json(capsys, ["sweep", "--preset", "fig3a", "--format",
                                "json"])
    assert payload["figure"] == "fig3a"
    assert len(payload["records"]) == 361
    assert payload["records"][0]["p_err_boson"] is None


def test_sweep_custom_config(tmp_path):
    config = {
        "sweep": {
            "figure": "custom",
            "grid": [{"name": "phi12", "min": 0.0, "max": 2 * math.pi,
                      "points": 41}],
            "fixed": {"mode": "product", "p1": 0.25, "l": S, "r": S,
                      "l_prime": S, "r_prime": S,
                      "omega": {"down_down": 0, "down_up": 1, "up_down": 0,
                                "up_up": 0}},
        },
        "output": {"format": "csv"},
    }
    path = write_config(tmp_path, config, "sweep.json")
    out = tmp_path / "custom.csv"
    assert main(["sweep", "--config", path, "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 42


def test_sweep_requires_exactly_one_source(tmp_path, capsys):
    assert main(["sweep"]) == EXIT_CONFIG
    config = write_config(tmp_path, {"sweep": {}}, "s.json")
    assert main(["sweep", "--preset", "fig3a", "--config", config]) == EXIT_CONFIG


def test_sweep_domain_violation_exits_2(tmp_path, capsys):
    # axis drives |l_prime|^2 + |r_prime|^2 past 1: a domain error, not a crash
    config = {
        "sweep": {
            "figure": "custom",
            "grid": [{"name": "l_prime", "min": 0.0, "max": 1.0, "points": 5}],
            "fixed": {"mode": "product", "p1": 0.25, "phi12": 1.0, "l": S,
                      "r": S, "r_prime": S,
                      "omega": {"down_down": 0, "down_up": 1, "up_down": 0,
                                "up_up": 0}},
        },
    }
    path = write_config(tmp_path, config, "domain.json")
    assert main(["sweep", "--config", path]) == EXIT_CONFIG
    assert "exceeds 1" in capsys.readouterr().err


# SHA-256 of the sweep outputs, pinned so that any change to a printed
# byte fails here rather than only between two runs of the same code.
GOLDEN_SWEEPS = {
    "fig3a": "219e0a184087f97712120c855670f9b70a84bdd9b8f7d8a6a771704f307c9454",
    "fig3b": "3b4c8d56ecacd6dddef59ab5559b1df506c879b44cf0bdaff07fcf30a7df1663",
    "fig4": "2f0b1a6ecd384846d269b9dacf29081712860659b31734ce9c1d47ce27255d69",
    "fig5": "2573659507bcf504969aa0b0aadf6b82188117f9273efba04f457dbb00c44350",
    "custom": "baf79e6ef2d2bdd53d1f5ea517457c07ca9a4e744543267f67226ebdbe03a201",
}

# Written as JSON: a down-only superposition whose fermion branch vanishes
# at l_prime = r = 0.5, so the output includes one flagged record.
GOLDEN_CUSTOM_SWEEP = {
    "sweep": {
        "figure": "custom",
        "grid": [
            {"name": "l_prime", "min": 0.0, "max": 0.8, "points": 41},
            {"name": "r", "min": 0.0, "max": 0.8, "points": 41},
        ],
        "fixed": {
            "mode": "superposition", "p1": 0.4, "phi12": 2.0, "l": 0.5,
            "r_prime": 0.5, "up_amp": 0.0, "down_amp": 1.0,
            "omega": {"down_down": 1.5, "down_up": 3.0, "up_down": 2.0,
                      "up_up": 0.0},
        },
    },
}


def _golden_argv(tmp_path, name):
    if name != "custom":
        return ["sweep", "--preset", name]
    config = tmp_path / "custom.json"
    config.write_text(json.dumps(GOLDEN_CUSTOM_SWEEP, indent=2),
                      encoding="utf-8")
    return ["sweep", "--config", str(config), "--format", "json"]


@pytest.mark.parametrize("name", sorted(GOLDEN_SWEEPS))
def test_sweep_output_matches_golden_hash(tmp_path, name):
    out = tmp_path / f"{name}.out"
    assert main(_golden_argv(tmp_path, name) + ["--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SWEEPS[name]


@pytest.mark.parametrize("name", ["fig5", "custom"])
def test_sweep_stdout_matches_golden_hash(tmp_path, capsysbinary, name):
    assert main(_golden_argv(tmp_path, name)) == EXIT_OK
    out = capsysbinary.readouterr().out
    assert hashlib.sha256(out).hexdigest() == GOLDEN_SWEEPS[name]


@pytest.mark.parametrize("name", ["fig5", "custom"])
def test_sweep_to_a_text_only_stdout_matches_golden_hash(tmp_path, name):
    """A stdout with no binary buffer underneath takes the same output as
    text."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(_golden_argv(tmp_path, name)) == EXIT_OK
    text = stdout.getvalue()
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SWEEPS[name]


# SHA-256 of one project/discriminate output per benchmark scenario cell
# (command, preparation, statistics, format), every cell but the separated
# ones from one fixed config with complex amplitudes, so that any change to
# a printed byte of a single-row result fails here.
GOLDEN_SCENARIO_PREPARATIONS = {
    "mixed_diagonal": {"kind": "mixed_diagonal",
                       "weights": [0.1, 0.2, 0.3, 0.4]},
    "pure_product": {"kind": "pure_product", "first": "down", "second": "up"},
    "spin_superposition": {"kind": "spin_superposition", "up_amp": 0.6,
                           "down_amp": [0.0, 0.8]},
}
GOLDEN_OVERLAPS = {"l": 0.6, "r": [0.3, 0.2], "l_prime": [0.5, -0.1],
                   "r_prime": 0.7}
# l_prime = r = 0 keeps the particles apart: the (down, up) product then
# projects to one basis state, the state-vector record with "coherent": false
SEPARATED_OVERLAPS = {"l": 0.6, "r": 0, "l_prime": 0, "r_prime": 0.7}
GOLDEN_SCENARIOS = {
    ("project", "mixed_diagonal", "boson", "json"):
        "71954a2a6e537ce09b3be4f20f78f6050dfd41c562f43f5c8b64b6c6e0493a42",
    ("project", "mixed_diagonal", "boson", "csv"):
        "62c9a8005c4d61d8ec99f97af92ba471410ecad6d4300217c7b69cec7db747fd",
    ("project", "mixed_diagonal", "fermion", "json"):
        "d03a1aa286d2fce104642493a19ac44ed0e94ecb4648e7e482bd2b85f176ddf4",
    ("project", "mixed_diagonal", "fermion", "csv"):
        "1284701af69fa8c64ee5af5ab0de0247980f2f7f40b6f6baebe9e9f248f46e00",
    ("project", "mixed_diagonal", "distinguishable", "json"):
        "0ab913562ae04f4c23c6c6418b4e37a27df93b5da23c7b7c040a19b84e6b9ae6",
    ("project", "mixed_diagonal", "distinguishable", "csv"):
        "dd66ac558e347cc98aa2a347286b649b28a3c7aec2f1cc66b24cb4b8259c0c8d",
    ("project", "pure_product", "boson", "json"):
        "902da8eac4cb9f3d0be39b9f71e0424f3ea1cb4d4c8e2b506a27447c32bb4556",
    ("project", "pure_product", "boson", "csv"):
        "faafaa3e373ea29bc89437204816cbdd21def7c78cf7599b89e539c9315e53e9",
    ("discriminate", "pure_product", "boson", "json"):
        "b4b4d4ec44129917308584a3dcb45a3b986bfdde73e7bf54c004a565ab54f37b",
    ("discriminate", "pure_product", "boson", "csv"):
        "ad8afeeda72f55695adbfb8805fa2c203574db38263b1eed9ec53b5f6d699b8b",
    ("project", "pure_product", "fermion", "json"):
        "0fb0c95c56f22b250ce869ea0782795d97ff2225662049119feb97d990c65456",
    ("project", "pure_product", "fermion", "csv"):
        "9eb908272988663c224c8819753e436ef29f53f4c5f3488a17eb3ce37bbd021e",
    ("discriminate", "pure_product", "fermion", "json"):
        "cee981c2707191ac867ff472ce714a4dc78e0aaf64fabb8bfb5f5b66a5be7d83",
    ("discriminate", "pure_product", "fermion", "csv"):
        "1d8164aa97a021ec3443c1106e770f8fa6b8f3948df583c475cd67a5177c0d64",
    ("project", "spin_superposition", "boson", "json"):
        "5297b0c246f894bee7689f63128cc56573c24188e4fc8a448280aa40da5a9b91",
    ("project", "spin_superposition", "boson", "csv"):
        "5c23039b2058203bcc91c4cea86af785785b6a34adc7d0525096e4268ac3cd84",
    ("discriminate", "spin_superposition", "boson", "json"):
        "cc77c673ed8afd46e9d7a97858385f435e7fb292a40ba437145821461f83a402",
    ("discriminate", "spin_superposition", "boson", "csv"):
        "e054ce40072773cdb4e99b5cbdcfad006001c875c0433c37a41fb939d4164508",
    ("project", "spin_superposition", "fermion", "json"):
        "aeddc4324cc81f5a04a717ca459e5f50e4e6869e56233430ab74281a4c01a1c3",
    ("project", "spin_superposition", "fermion", "csv"):
        "f26ee01d6ab15a2069b684b9ed2cc3e6d5d63a7fa9e92c01a783d8f29a44eba7",
    ("discriminate", "spin_superposition", "fermion", "json"):
        "3082b4c543f475e59f7871b9279a09f469079adbcdc8ddc4d6a2f36d7e0af154",
    ("discriminate", "spin_superposition", "fermion", "csv"):
        "85a93ae3589fc2e3266ee9b95ef51176d2b3627219e7ae5a8d831dcf1d84c8b5",
    ("project", "separated_pure_product", "boson", "json"):
        "4f32072a24b6c71653831bc106a83c95967eeb572d5ba0242b47d10fe8822e52",
    ("project", "separated_pure_product", "boson", "csv"):
        "a9c2b39ad498189e49615304f9947f8b93f050e9c5546620a69489f8f31d4896",
}


def _golden_scenario_cells():
    cells = []
    for kind in GOLDEN_SCENARIO_PREPARATIONS:
        stats_options = ["boson", "fermion"]
        if kind == "mixed_diagonal":
            stats_options.append("distinguishable")
        for stats in stats_options:
            cells += [("project", kind, stats, fmt) for fmt in ("json", "csv")]
            if kind != "mixed_diagonal":
                cells += [("discriminate", kind, stats, fmt)
                          for fmt in ("json", "csv")]
    return cells + [("project", "separated_pure_product", "boson", fmt)
                    for fmt in ("json", "csv")]


def _golden_cell_run(tmp_path, cell):
    """Write one golden scenario cell's config; return a call that runs
    the cell and returns the SHA-256 of its output."""
    command, kind, stats, fmt = cell
    separated = kind == "separated_pure_product"
    config = base_config(
        preparation=GOLDEN_SCENARIO_PREPARATIONS[
            "pure_product" if separated else kind],
        overlaps=SEPARATED_OVERLAPS if separated else GOLDEN_OVERLAPS,
        statistics=stats,
        channel={"omega": {"down_down": 0.5, "down_up": 1.5,
                           "up_down": -1.0, "up_up": 2.0},
                 "phases": [0.3, 2.1], "priors": [0.4, 0.6]})
    name = "-".join(cell)
    path = write_config(tmp_path, config, f"{name}.json")
    out = tmp_path / f"{name}.out"

    def run() -> str:
        out.unlink(missing_ok=True)
        assert main([command, "--config", path, "--format", fmt,
                     "--out", str(out)]) == EXIT_OK
        return hashlib.sha256(out.read_bytes()).hexdigest()
    return run


@pytest.mark.parametrize("cell", _golden_scenario_cells(),
                         ids="-".join)
def test_scenario_output_matches_golden_hash(tmp_path, cell):
    assert _golden_cell_run(tmp_path, cell)() == GOLDEN_SCENARIOS[cell]


def test_scenario_templates_are_built_once(tmp_path, monkeypatch):
    """A second run of every golden cell prints from the templates the first
    run built: json.dumps and csv.writer, which build them, are not called."""
    runs = {cell: _golden_cell_run(tmp_path, cell)
            for cell in _golden_scenario_cells()}
    for cell, run in runs.items():
        assert run() == GOLDEN_SCENARIOS[cell]

    def refuse(*args, **kwargs):
        raise AssertionError("a single-record template was built again")

    monkeypatch.setattr(json, "dumps", refuse)
    monkeypatch.setattr(csv, "writer", refuse)
    for cell, run in runs.items():
        assert run() == GOLDEN_SCENARIOS[cell]


def test_record_templates_stay_one_per_layout(tmp_path, monkeypatch):
    """The template cache lives as long as the process, so a value never
    enters its key: every golden cell and 400 records of varied floats
    leave one template per (command, result kind, coherent, format)."""
    monkeypatch.setattr(cli, "_record_templates", {})
    for cell in _golden_scenario_cells():
        _golden_cell_run(tmp_path, cell)()
    rng = np.random.default_rng(28)

    def complex_array(shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for draw in range(100):
        for fmt in cli.FORMATS:
            for kind, shape in (("state_vector", (4,)),
                                ("density_matrix", (4, 4))):
                cli._project_record(fmt, kind, complex_array(shape),
                                    float(rng.normal()), draw % 2 == 0,
                                    float(rng.normal()))
            scalars = dict(zip(("p_err_closed_form", "p_err_povm",
                                "difference", "lambda_plus", "overlap_re",
                                "overlap_im"), rng.normal(size=6).tolist()))
            cli._discriminate_record(fmt, scalars, complex_array((2, 4, 4)))
    layouts = {(build, key) for build in (cli._json_template,
                                          cli._csv_template)
               for key in [("discriminate",)] + [
                   ("project", kind, coherent) for kind in cli._PROJECTED
                   for coherent in (False, True)]}
    assert set(cli._record_templates) == layouts


class _ShortWrites(io.FileIO):
    """A raw file that takes at most 7 bytes per write."""

    def write(self, data):
        return super().write(memoryview(data)[:7])


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", ["project", "discriminate", "sweep"])
def test_short_writes_still_write_the_whole_output(tmp_path, monkeypatch,
                                                   command, fmt):
    if command == "sweep":
        argv = ["sweep", "--preset", "fig5", "--format", fmt]
    else:
        argv = [command, "--config", write_config(tmp_path, base_config()),
                "--format", fmt]
    whole, short = tmp_path / "whole", tmp_path / "short"
    assert main([*argv, "--out", str(whole)]) == EXIT_OK
    monkeypatch.setattr(cli, "open", lambda path, mode, buffering: (
        _ShortWrites(path, mode.replace("b", ""))), raising=False)
    assert main([*argv, "--out", str(short)]) == EXIT_OK
    assert short.read_bytes() == whole.read_bytes()


REFUSED_SCENARIOS = [
    ("unknown_key", base_config(colour="blue"), EXIT_CONFIG),
    ("amplitudes_over_one", base_config(overlaps={
        "l": 0.9, "r": 0.9, "l_prime": S, "r_prime": S}), EXIT_CONFIG),
    ("distinguishable_pure", base_config(statistics="distinguishable"),
     EXIT_CONFIG),
    ("bad_output_format", base_config(output={"format": "xml"}), EXIT_CONFIG),
    ("fermion_equal_spins", base_config(
        preparation={"kind": "pure_product", "first": "up", "second": "up"},
        statistics="fermion"), EXIT_DEGENERATE),
]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("config, code", [case[1:] for case in
                                          REFUSED_SCENARIOS],
                         ids=[case[0] for case in REFUSED_SCENARIOS])
@pytest.mark.parametrize("command", ["project", "discriminate"])
def test_refused_call_writes_no_output(tmp_path, capsys, command, config,
                                       code, fmt):
    """JSON output is asked for by the config's output section, CSV by the
    flags, as perfbench's scenarios workload does."""
    out = tmp_path / f"out.{fmt}"
    flags = ["--format", fmt, "--out", str(out)]
    if fmt == "json":
        config = {**config, "output": {**config.get("output", {}),
                                       "path": str(out)}}
        flags = []
    argv = [command, "--config", write_config(tmp_path, config), *flags]
    assert main(argv) == code
    assert capsys.readouterr().err
    assert not out.exists()


def test_sweep_to_a_closed_pipe_exits_quietly():
    # the reader takes one line and closes the pipe, as `| head -1` does
    with subprocess.Popen([sys.executable, "-m", "sloccsim", "sweep",
                           "--preset", "fig5"], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=_src_env()) as done:
        assert done.stdout.readline().startswith(b"phi12,omega_dd,")
        done.stdout.close()
        assert done.stderr.read() == b""
        assert done.wait(timeout=120) == EXIT_BROKEN_PIPE


def test_sweep_custom_golden_has_a_flagged_record(tmp_path, capsys):
    config = write_config(tmp_path, GOLDEN_CUSTOM_SWEEP, "custom.json")
    payload = run_json(capsys, ["sweep", "--config", config, "--format",
                                "json"])
    flagged = [rec for rec in payload["records"] if rec["flag"]]
    assert [rec["coordinates"] for rec in flagged] == [
        {"l_prime": 0.5, "r": 0.5}]


def _amplitude_axis_config(name, lo, hi, points=5):
    fixed = {"mode": "product", "p1": 0.25, "phi12": 1.0, "l": S, "r": S,
             "l_prime": S, "r_prime": S,
             "omega": {"down_down": 0, "down_up": 1, "up_down": 0,
                       "up_up": 0}}
    del fixed[name]
    return {"sweep": {"figure": "custom", "fixed": fixed, "grid": [
        {"name": name, "min": lo, "max": hi, "points": points}]}}


@pytest.mark.parametrize("name", ["r", "l_prime"])
def test_sweep_negative_amplitude_axis_exits_2(tmp_path, capsys, name):
    path = write_config(tmp_path, _amplitude_axis_config(name, -0.5, 0.5))
    assert main(["sweep", "--config", path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"amplitude axis '{name}' must be nonnegative" in err
    assert "-0.5" in err


@pytest.mark.parametrize("name, norm", [
    ("r", "|l|^2 + |r|^2"), ("l_prime", "|l_prime|^2 + |r_prime|^2")])
def test_sweep_inadmissible_axis_maximum_exits_2(tmp_path, capsys, name, norm):
    path = write_config(tmp_path, _amplitude_axis_config(name, 0.0, 0.75))
    assert main(["sweep", "--config", path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"amplitude axis '{name}' reaches 0.75, where {norm} exceeds 1" in err


def test_sweep_record_cap_exits_2(tmp_path, capsys):
    config = _amplitude_axis_config("r", 0.0, 0.5)
    config["sweep"]["grid"].append(
        {"name": "phi12", "min": 0.0, "max": 1.0, "points": 10**6})
    path = write_config(tmp_path, config)
    assert main(["sweep", "--config", path]) == EXIT_CONFIG
    assert "sweep grid has 5000000 points" in capsys.readouterr().err


def test_sweep_angle_overflow_exits_2(tmp_path, capsys):
    config = _amplitude_axis_config("r", 0.0, 0.5)
    config["sweep"]["fixed"]["phi12"] = 1e308
    config["sweep"]["fixed"]["omega"]["down_up"] = 10.0
    path = write_config(tmp_path, config)
    assert main(["sweep", "--config", path]) == EXIT_CONFIG
    assert "overflows" in capsys.readouterr().err


def test_sweep_parameter_both_fixed_and_swept_exits_2(tmp_path, capsys):
    # the fixed r is invalid (|l|^2 + |r|^2 = 25.5); an axis must not
    # silently replace it, nor the fixed phi12
    config = _amplitude_axis_config("r", 0.0, 0.5, points=2)
    config["sweep"]["grid"].append(
        {"name": "phi12", "min": 0.0, "max": 1.0, "points": 3})
    config["sweep"]["fixed"].update(phi12=1e308, r=5.0)
    path = write_config(tmp_path, config)
    assert main(["sweep", "--config", path]) == EXIT_CONFIG
    assert ("parameters both fixed and swept: ['phi12', 'r']"
            in capsys.readouterr().err)


def test_sweep_rejects_bad_axis(tmp_path, capsys):
    config = {
        "sweep": {
            "figure": "custom",
            "grid": [{"name": "phi12", "min": 1.0, "max": 0.0, "points": 5}],
            "fixed": {"mode": "product", "p1": 0.25, "l": S, "r": S,
                      "l_prime": S, "r_prime": S,
                      "omega": {"down_down": 0, "down_up": 1, "up_down": 0,
                                "up_up": 0}},
        },
    }
    path = write_config(tmp_path, config, "bad.json")
    assert main(["sweep", "--config", path]) == EXIT_CONFIG
    assert "lo < hi" in capsys.readouterr().err


# A refused sweep config and its exact message, for a product sweep over r
# with one field changed (ABSENT: removed).
SWEEP_REFUSALS = {
    "mode_list": ("sweep.fixed.mode", ["product"],
                  "sweep: fixed['mode'] must be one of ('product', "
                  "'superposition'), got ['product']"),
    "mode_dict": ("sweep.fixed.mode", {"product": 1},
                  "sweep: fixed['mode'] must be one of ('product', "
                  "'superposition'), got {'product': 1}"),
    "mode_missing": ("sweep.fixed.mode", ABSENT,
                     "sweep: fixed['mode'] must be one of ('product', "
                     "'superposition'), got None"),
    "up_amp_in_product": ("sweep.fixed.up_amp", 0.6,
                          "sweep: unknown fixed parameters: ['up_amp']"),
    "axis_list": ("sweep.grid.0", ["r", 0.0, 0.5, 5],
                  "sweep.grid[0] must be an object, got list"),
    "p1_true": ("sweep.fixed.p1", True,
                "sweep.fixed.p1 must be a number, got True"),
    "omega_list": ("sweep.fixed.omega", [0, 1, 0, 0],
                   "sweep.fixed.omega must be an object, got list"),
    "fixed_list": ("sweep.fixed", [["mode", "product"]],
                   "sweep.fixed must be an object, got list"),
    "p1_negative": ("sweep.fixed.p1", -0.5,
                    "sweep: priors must be nonnegative"),
    "p1_nan": ("sweep.fixed.p1", math.nan,
               "sweep: channel parameters must be finite"),
    "p1_axis": ("sweep.grid", [
        {"name": "r", "min": 0.0, "max": 0.5, "points": 5},
        {"name": "p1", "min": 0.0, "max": 1.0, "points": 3}],
        "sweep.grid[1]: unknown axis 'p1'; expected one of phi12, l_prime, "
        "r, omega_dd, omega_du, omega_ud, omega_uu"),
    "points_float": ("sweep.grid.0.points", 5.0,
                     "sweep.grid[0].points must be an integer"),
    "points_huge": ("sweep.grid.0.points", 10 ** 30,
                    "sweep: sweep grid has 10000000000000000000000000000"
                    "00 points; at most 2000000 are allowed"),
    "min_string": ("sweep.grid.0.min", "0",
                   "sweep.grid[0].min must be a number, got '0'"),
    "figure_list": ("sweep.figure", ["custom"],
                    "sweep: unknown figure ['custom']"),
    "figure_dict": ("sweep.figure", {"custom": 1},
                    "sweep: unknown figure {'custom': 1}"),
}


@pytest.mark.parametrize("path, value, message", SWEEP_REFUSALS.values(),
                         ids=SWEEP_REFUSALS.keys())
def test_sweep_refusal_message_is_exact(tmp_path, capsys, path, value,
                                        message):
    config = _amplitude_axis_config("r", 0.0, 0.5)
    _set_at(config, path, value)
    assert main(["sweep", "--config", write_config(tmp_path, config)]) \
        == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("keys, named", [
    (["a'b"], "[\"a'b\"]"), (["zz", "aa"], "['aa', 'zz']")],
    ids=["quote", "two_keys"])
def test_unknown_sweep_fixed_keys_are_all_named(tmp_path, capsys, keys,
                                                named):
    config = _amplitude_axis_config("r", 0.0, 0.5)
    config["sweep"]["fixed"].update(dict.fromkeys(keys, 1))
    assert main(["sweep", "--config", write_config(tmp_path, config)]) \
        == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: unknown keys in sweep.fixed: {named}\n")


@pytest.mark.parametrize("key", [key for key, (kind, _)
                                 in FIXED_PARAMETERS.items()
                                 if kind != "mode"])
def test_sweep_fixed_reader_follows_the_parameter_table(tmp_path, capsys,
                                                        key):
    """A value of the wrong type for any fixed parameter but the mode is
    refused by the reader of its kind, which names the parameter."""
    config = _amplitude_axis_config("r", 0.0, 0.5)
    config["sweep"]["fixed"][key] = "x"
    assert main(["sweep", "--config", write_config(tmp_path, config)]) \
        == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        f"config error: sweep.fixed.{key} must be ")


# ---------------------------------------------------------------------------
# config handling


def test_unknown_top_level_key_rejected(tmp_path, capsys):
    config = base_config()
    config["extra"] = 1
    path = write_config(tmp_path, config)
    assert main(["project", "--config", path]) == EXIT_CONFIG
    assert "unknown keys" in capsys.readouterr().err


def test_unknown_nested_key_rejected(tmp_path, capsys):
    config = base_config()
    config["channel"]["omega"]["sideways"] = 1.0
    path = write_config(tmp_path, config)
    assert main(["project", "--config", path]) == EXIT_CONFIG


def test_invalid_json_rejected(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["project", "--config", str(path)]) == EXIT_CONFIG
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    # nested deeper than the JSON decoder's recursion limit
    (b"[" * 100_000 + b"]" * 100_000, "is not valid JSON"),
    (b"\xff{}", "cannot read config"),
], ids=["deeply_nested", "not_utf8"])
@pytest.mark.parametrize("command", ["project", "discriminate", "sweep"])
def test_undecodable_config_exits_2_naming_the_file(tmp_path, command,
                                                    content, message):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    done = subprocess.run([sys.executable, "-m", "sloccsim", command,
                           "--config", str(path)], capture_output=True,
                          text=True, env=_src_env())
    assert done.returncode == EXIT_CONFIG, done.stderr
    assert str(path) in done.stderr and message in done.stderr
    assert "Traceback" not in done.stderr


def test_missing_config_file_rejected(tmp_path, capsys):
    assert main(["project", "--config", str(tmp_path / "missing.json")]) \
        == EXIT_CONFIG


# Config files the reader refuses: (file name, content or None for no
# file, exact message with D for the path). "" names the test's directory.
# The read is binary, decoded as UTF-8 with universal newlines, so the
# decoder's positions count as in a text-mode read.
UNREADABLE_CONFIGS = {
    "directory": ("", None, "cannot read config D: [Errno 21] Is a "
                            "directory: 'D'"),
    "missing": ("config.json", None, "cannot read config D: [Errno 2] No "
                                     "such file or directory: 'D'"),
    "empty": ("config.json", b"", "config D is not valid JSON: Expecting "
                                  "value: line 1 column 1 (char 0)"),
    "utf8_bom": ("config.json", b"\xef\xbb\xbf{}",
                 "config D is not valid JSON: Unexpected UTF-8 BOM (decode "
                 "using utf-8-sig): line 1 column 1 (char 0)"),
    "latin1_byte": ("config.json", b'{"statistics": "bos\xf3n"}',
                    "cannot read config D: 'utf-8' codec can't decode byte "
                    "0xf3 in position 19: invalid continuation byte"),
    "crlf_syntax_error": ("config.json",
                          b'{\r\n  "a": 1,\r\n  "b": ]\r\n}\r\n',
                          "config D is not valid JSON: Expecting value: line 3 "
                          "column 8 (char 19)"),
    "lone_cr_syntax_error": ("config.json", b'{\r  "a": 1,\r  "b": ]\r}\r',
                             "config D is not valid JSON: Expecting value: "
                             "line 3 column 8 (char 19)"),
}


@pytest.mark.parametrize("name, content, message",
                         UNREADABLE_CONFIGS.values(),
                         ids=list(UNREADABLE_CONFIGS))
@pytest.mark.parametrize("command", ["project", "discriminate", "sweep"])
def test_unreadable_config_message_is_exact(tmp_path, capsys, command, name,
                                            content, message):
    path = tmp_path / name
    if content is not None:
        path.write_bytes(content)
    assert main([command, "--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: {message.replace('D', str(path))}\n")


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "lone_cr"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", ["project", "discriminate"])
def test_config_newlines_do_not_change_the_output(tmp_path, command, fmt,
                                                  newline):
    text = json.dumps(base_config(), indent=2)
    outputs = []
    for name, config in (("lf", text), ("other", text.replace("\n", newline))):
        path = tmp_path / f"{name}.json"
        path.write_bytes(config.encode())
        out = tmp_path / f"{name}.{fmt}"
        assert main([command, "--config", str(path), "--format", fmt,
                     "--out", str(out)]) == EXIT_OK
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def _unwritable_output_message(capsys, tmp_path, command, out) -> str:
    if command == "sweep":
        argv = ["sweep", "--preset", "fig3a"]
    else:
        argv = [command, "--config", write_config(tmp_path, base_config())]
    assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
    return capsys.readouterr().err


@pytest.mark.parametrize("command", ["project", "discriminate", "sweep"])
def test_unwritable_output_exits_2(tmp_path, capsys, command):
    out = tmp_path / "missing" / "out.csv"
    assert _unwritable_output_message(capsys, tmp_path, command, out) == (
        f"config error: cannot write output {out}: [Errno 2] No such file or "
        f"directory: '{out}'\n")


@pytest.mark.parametrize("command", ["project", "discriminate", "sweep"])
def test_output_to_a_directory_exits_2(tmp_path, capsys, command):
    assert _unwritable_output_message(capsys, tmp_path, command, tmp_path) == (
        f"config error: cannot write output {tmp_path}: [Errno 21] Is a "
        f"directory: '{tmp_path}'\n")


def test_bad_priors_rejected(tmp_path, capsys):
    config = base_config()
    config["channel"]["priors"] = [0.5, 0.6]
    path = write_config(tmp_path, config)
    assert main(["project", "--config", path]) == EXIT_CONFIG


def test_complex_pair_parsing(tmp_path, capsys):
    config = base_config(overlaps={"l": [0.5, 0.5], "r": [0.5, -0.5],
                                   "l_prime": [0.5, 0.0], "r_prime": 0.5})
    path = write_config(tmp_path, config)
    payload = run_json(capsys, ["project", "--config", path])
    assert payload["kind"] == "state_vector"


HUGE = 10 ** 400  # an integer literal beyond the float range


def _set_at(config, path, value):
    """Set the field at a dotted path (list indices as digits); the value
    ABSENT removes it."""
    *parents, last = [int(key) if key.isdigit() else key
                      for key in path.split(".")]
    for key in parents:
        config = config[key]
    if value is ABSENT:
        del config[last]
    else:
        config[last] = value


HUGE_LITERALS = [
    ("project", "preparation",
     {"kind": "mixed_diagonal", "weights": [HUGE, 0, 0, 0]},
     "preparation.weights[0]"),
    ("project", "preparation",
     {"kind": "spin_superposition", "up_amp": [HUGE, 0], "down_amp": 0},
     "preparation.up_amp[0]"),
    ("project", "overlaps.l", HUGE, "overlaps.l"),
    ("discriminate", "overlaps.r", [0.5, -HUGE], "overlaps.r[1]"),
    ("discriminate", "channel.omega.down_up", HUGE, "channel.omega.down_up"),
    ("discriminate", "channel.phases", [HUGE, 0], "channel.phases[0]"),
    ("project", "channel.priors", [0, HUGE], "channel.priors[1]"),
    ("sweep", "sweep.fixed.p1", HUGE, "sweep.fixed.p1"),
    ("sweep", "sweep.fixed.phi12", -HUGE, "sweep.fixed.phi12"),
    ("sweep", "sweep.fixed.l", [HUGE, 0], "sweep.fixed.l[0]"),
    ("sweep", "sweep.fixed.omega.up_up", HUGE, "sweep.fixed.omega.up_up"),
    ("sweep", "sweep.grid.0.min", HUGE, "sweep.grid[0].min"),
    ("sweep", "sweep.grid.0.max", -HUGE, "sweep.grid[0].max"),
]


# each case is named by its field without the list index
@pytest.mark.parametrize("command, path, value, field", HUGE_LITERALS,
                         ids=[re.sub(r"\[\d+\]", "", case[-1])
                              for case in HUGE_LITERALS])
def test_huge_integer_literal_exits_2(tmp_path, capsys, command, path, value,
                                      field):
    if command == "sweep":
        config = _amplitude_axis_config("r", 0.0, 0.5)
    else:
        config = base_config()
    _set_at(config, path, value)
    argv = [command, "--config", write_config(tmp_path, config)]
    assert main(argv) == EXIT_CONFIG
    assert (capsys.readouterr().err
            == f"config error: {field} is too large for a float\n")


# a finite amplitude whose square overflows a float
HUGE_AMPLITUDES = [
    ("project", {"overlaps.l": 1e200}, "|l|^2 + |r|^2 exceeds 1", "overlaps.l"),
    ("project", {"overlaps.r": 1e200}, "|l|^2 + |r|^2 exceeds 1", "overlaps.r"),
    ("project", {"overlaps.l_prime": 1e200},
     "|l_prime|^2 + |r_prime|^2 exceeds 1", "overlaps.l_prime"),
    ("project", {"overlaps.r_prime": 1e200},
     "|l_prime|^2 + |r_prime|^2 exceeds 1", "overlaps.r_prime"),
    ("project", {"preparation": {"kind": "spin_superposition", "up_amp": S,
                                 "down_amp": 1e200}},
     "|up_amp|^2 + |down_amp|^2 must equal 1", "preparation.down_amp"),
    ("sweep", {"sweep.fixed.l": 1e200},
     "amplitude axis 'r' reaches 0.5, where |l|^2 + |r|^2 exceeds 1",
     "sweep.fixed.l"),
    ("sweep", {"sweep.grid.0.max": 1e200},
     "amplitude axis 'r' reaches 1e+200, where |l|^2 + |r|^2 exceeds 1",
     "sweep.grid.max"),
    ("sweep", {"sweep.fixed.mode": "superposition", "sweep.fixed.up_amp": 1e200,
               "sweep.fixed.down_amp": 0},
     "|up_amp|^2 + |down_amp|^2 must equal 1", "sweep.fixed.up_amp"),
]


@pytest.mark.parametrize("command, settings, message, field", HUGE_AMPLITUDES,
                         ids=[case[-1] for case in HUGE_AMPLITUDES])
def test_huge_finite_amplitude_exits_2(tmp_path, capsys, command, settings,
                                       message, field):
    if command == "sweep":
        config = _amplitude_axis_config("r", 0.0, 0.5)
    else:
        config = base_config()
    for path, value in settings.items():
        _set_at(config, path, value)
    argv = [command, "--config", write_config(tmp_path, config)]
    assert main(argv) == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_scenario_round_trip():
    config = ScenarioConfig(
        preparation=SpinSuperposition(up_amp=0.6 + 0.0j, down_amp=0.8j),
        overlaps=OverlapAmplitudes(l=0.5 + 0.25j, r=0.5, l_prime=0.1j,
                                   r_prime=0.9),
        statistics=Statistics.FERMION,
        channel=PhaseChannel(omega=(0.5, 1.5, -2.0, 0.0), phi=(0.25, -0.75),
                             priors=(0.4, 0.6)),
    )
    assert scenario_from_dict(scenario_to_dict(config)) == config


def test_output_settings_from_config(tmp_path, capsys):
    out = tmp_path / "via_config.json"
    config = base_config(output={"path": str(out), "format": "json"})
    path = write_config(tmp_path, config)
    assert main(["project", "--config", path]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["kind"] == "state_vector"


def test_sweep_output_settings_from_config(tmp_path, capsys):
    via_config = tmp_path / "via_config.json"
    config = {**GOLDEN_CUSTOM_SWEEP,
              "output": {"path": str(via_config), "format": "json"}}
    assert main(["sweep", "--config", write_config(tmp_path, config)]) \
        == EXIT_OK
    assert capsys.readouterr().out == ""
    assert (hashlib.sha256(via_config.read_bytes()).hexdigest()
            == GOLDEN_SWEEPS["custom"])

    # the flags take precedence over both fields
    ignored = tmp_path / "ignored.csv"
    via_flags = tmp_path / "via_flags.json"
    config["output"] = {"path": str(ignored), "format": "csv"}
    assert main(["sweep", "--config", write_config(tmp_path, config),
                 "--out", str(via_flags), "--format", "json"]) == EXIT_OK
    assert not ignored.exists()
    assert (hashlib.sha256(via_flags.read_bytes()).hexdigest()
            == GOLDEN_SWEEPS["custom"])


def test_sweep_preset_json_format(capsys):
    payload = run_json(capsys, ["sweep", "--preset", "fig3a", "--format",
                                "json"])
    assert payload["figure"] == "fig3a"
    assert len(payload["records"]) == 361


@pytest.mark.parametrize("command", ["project", "discriminate", "sweep"])
def test_output_section_is_read_after_the_other_sections(tmp_path, capsys,
                                                         command):
    if command == "sweep":
        config = _amplitude_axis_config("r", 0.0, 0.5)
        bad, message = ("sweep.fixed.p1", "sweep.fixed.p1 must be a number")
    else:
        config = base_config()
        bad, message = ("overlaps.l", "overlaps.l must be a number")
    config["output"] = {"format": "xml"}
    argv = [command, "--config", write_config(tmp_path, config)]
    assert main(argv) == EXIT_CONFIG
    assert ("output.format must be 'csv' or 'json', got 'xml'"
            in capsys.readouterr().err)
    _set_at(config, bad, "x")
    argv = [command, "--config", write_config(tmp_path, config)]
    assert main(argv) == EXIT_CONFIG
    assert message in capsys.readouterr().err


# exact messages: each names its field once, with the index of a list
# element, and only a library refusal carries its section's prefix
EXACT_MESSAGES = [
    ("project", "overlaps.l", "x",
     "overlaps.l must be a number or a [re, im] pair, got 'x'"),
    ("project", "overlaps.l", 1e200, "overlaps: |l|^2 + |r|^2 exceeds 1"),
    ("discriminate", "channel.phases", [0.0, "x"],
     "channel.phases[1] must be a number, got 'x'"),
    ("discriminate", "channel.priors", [0.5], "channel.priors must be a list "
                                              "of 2 numbers"),
    ("project", "overlaps.r", [0.5, 0.5, 0.0], "overlaps.r must be a list of 2 "
                                               "numbers"),
    ("project", "overlaps.r", [0.5, None], "overlaps.r[1] must be a number, "
                                           "got None"),
    ("sweep", "sweep.grid.0.max", "x", "sweep.grid[0].max must be a number, "
                                       "got 'x'"),
    ("sweep", "sweep.fixed.p1", "x", "sweep.fixed.p1 must be a number, got "
                                     "'x'"),
]


@pytest.mark.parametrize("command, path, value, message", EXACT_MESSAGES,
                         ids=["non_numeric_amplitude", "overlaps_norm",
                              "non_numeric_phase", "short_priors",
                              "long_pair", "non_numeric_pair_element",
                              "non_numeric_grid_max", "non_numeric_p1"])
def test_config_error_message_is_exact(tmp_path, capsys, command, path, value,
                                       message):
    if command == "sweep":
        config = _amplitude_axis_config("r", 0.0, 0.5)
    else:
        config = base_config()
    _set_at(config, path, value)
    assert main([command, "--config", write_config(tmp_path, config)]) \
        == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"


# a field holding a value whose repr is megabytes or hundreds of kilobytes
# long, and the start of the message that names it
OVERSIZED = [
    ("project", "overlaps.l", [0] * 10 ** 6,
     "overlaps.l must be a list of 2 numbers"),
    ("project", "overlaps.l", "x" * 10 ** 6,
     "overlaps.l must be a number or a [re, im] pair, got 'xxx"),
    ("sweep", "sweep.figure", "x" * 200_000, "sweep: unknown figure 'xxx"),
    ("discriminate", "channel", {**base_config()["channel"],
                                 **{f"key{i}": 0 for i in range(10 ** 5)}},
     "unknown keys in channel: ['key0', "),
]


@pytest.mark.parametrize("command, path, value, start", OVERSIZED,
                         ids=["long_list", "long_string", "long_figure",
                              "many_keys"])
def test_oversized_value_message_is_clipped(tmp_path, capsys, command, path,
                                            value, start):
    if command == "sweep":
        config = _amplitude_axis_config("r", 0.0, 0.5)
    else:
        config = base_config()
    _set_at(config, path, value)
    assert main([command, "--config", write_config(tmp_path, config)]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {start}")
    assert len(err) <= len("config error: ") + MESSAGE_LIMIT + 1


# ---------------------------------------------------------------------------
# repeated calls in one process


def test_main_is_reentrant(tmp_path, capsys):
    assert build_parser() is build_parser()
    path = write_config(tmp_path, base_config())

    csv_out = tmp_path / "a.csv"
    assert main(["project", "--config", path, "--format", "csv",
                 "--out", str(csv_out)]) == EXIT_OK
    assert csv_out.read_text().startswith("amp0_re,")
    # neither flag: the earlier --format csv / --out must not carry over
    assert run_json(capsys, ["project", "--config", path])["kind"] \
        == "state_vector"
    via_config = tmp_path / "via_config.json"
    config_path = write_config(
        tmp_path, base_config(output={"path": str(via_config)}), "out.json")
    assert main(["project", "--config", config_path]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert json.loads(via_config.read_text())["kind"] == "state_vector"

    # a call argparse refuses, between two successful ones
    with pytest.raises(SystemExit) as refused:
        main(["project", "--config", path, "--format", "xml"])
    assert refused.value.code == 2
    assert "invalid choice: 'xml'" in capsys.readouterr().err
    assert run_json(capsys, ["discriminate", "--config", path])[
        "p_err_closed_form"] == pytest.approx(0.0, abs=1e-12)

    # check with and without --n: the default comes back
    assert main(["check", "--n", "20", "--seed", "3"]) == EXIT_OK
    assert "10/10 suites passed (n=20, seed=3)" in capsys.readouterr().out
    assert main(["check", "--seed", "3"]) == EXIT_OK
    assert "10/10 suites passed (n=1000, seed=3)" in capsys.readouterr().out
    assert build_parser() is build_parser()


# Every option of the top-level parser and of each subcommand: (flags,
# dest, required, choices, default, help). The subcommands row lists each
# subcommand with its help. Pinned so that a refactor of build_parser keeps
# the interface; unlike a --help hash, it does not depend on the terminal
# width or the Python version.
PARSER_STRUCTURE = {
    "sloccsim": [
        (("-h", "--help"), "help", False, None, argparse.SUPPRESS,
         "show this help message and exit"),
        ((), "command", True, (
            ("project", "project a preparation onto the localized basis"),
            ("discriminate", "play one phase-discrimination game"),
            ("sweep", "run a parameter sweep"),
            ("check", "run the invariant and oracle suites")), None, None),
    ],
    "project": [
        (("-h", "--help"), "help", False, None, argparse.SUPPRESS,
         "show this help message and exit"),
        (("--config",), "config", True, None, None, "JSON scenario config"),
        (("--out",), "out", False, None, None, "output path (default: stdout)"),
        (("--format",), "format", False, ("csv", "json"), None,
         "output format (default: json)"),
    ],
    "discriminate": [
        (("-h", "--help"), "help", False, None, argparse.SUPPRESS,
         "show this help message and exit"),
        (("--config",), "config", True, None, None, "JSON scenario config"),
        (("--out",), "out", False, None, None, "output path (default: stdout)"),
        (("--format",), "format", False, ("csv", "json"), None,
         "output format (default: json)"),
    ],
    "sweep": [
        (("-h", "--help"), "help", False, None, argparse.SUPPRESS,
         "show this help message and exit"),
        (("--preset",), "preset", False, ("fig3a", "fig3b", "fig4", "fig5"),
         None, "bundled figure preset"),
        (("--config",), "config", False, None, None,
         "JSON sweep config (alternative to --preset)"),
        (("--out",), "out", False, None, None, "output path (default: stdout)"),
        (("--format",), "format", False, ("csv", "json"), None,
         "output format (default: csv)"),
    ],
    "check": [
        (("-h", "--help"), "help", False, None, argparse.SUPPRESS,
         "show this help message and exit"),
        (("--n",), "n", False, None, 1000,
         "random draws per suite (at least 1)"),
        (("--seed",), "seed", False, None, 20240817,
         "campaign seed (nonnegative)"),
    ],
}


def _parser_structure(parser) -> dict:
    """PARSER_STRUCTURE read from parser and, recursively, its subparsers."""
    rows, nested = [], {}
    for action in parser._actions:
        choices = action.choices
        if isinstance(action, argparse._SubParsersAction):
            choices = tuple((sub.dest, sub.help)
                            for sub in action._choices_actions)
            for subparser in action.choices.values():
                nested.update(_parser_structure(subparser))
        elif choices is not None:
            choices = tuple(choices)
        rows.append((tuple(action.option_strings), action.dest,
                     action.required, choices, action.default, action.help))
    return {parser.prog.split()[-1]: rows, **nested}


def test_parser_structure_is_pinned():
    assert _parser_structure(build_parser()) == PARSER_STRUCTURE


def _src_env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [env.get("PYTHONPATH")])])
    return env


def test_python_dash_m_runs_the_cli():
    done = subprocess.run([sys.executable, "-m", "sloccsim", "check", "--n",
                           "20"], capture_output=True, text=True,
                          env=_src_env(), timeout=120, check=False)
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout.endswith("10/10 suites passed (n=20, seed=20240817)\n")


# ---------------------------------------------------------------------------
# check


def test_check_passes(capsys):
    assert main(["check", "--n", "40"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("PASS") == 10
    assert "10/10" in out


@pytest.mark.parametrize("seed", [1103527590, 2147483647, 377991063,
                                  1948171019, 640329152])
def test_check_full_draws_pass_on_31_bit_seeds(capsys, seed):
    assert main(["check", "--n", "1000", "--seed", str(seed)]) == EXIT_OK
    assert capsys.readouterr().out.endswith(
        f"10/10 suites passed (n=1000, seed={seed})\n")


# SHA-256 of the full `check --n 1000` report per seed: every suite's worst
# value and printed tolerance, so that moving a tolerance or a test-data
# filter fails here even where the suites still pass.
GOLDEN_CHECKS = {
    20240817: "c5edc8b1023f2b359f121ad686c67954a7def1e84952b1c424e386810f6bec6d",
    5: "a95127c54436539265855a4576701264af089199d17944b77c92b3d8327cb194",
    12: "1d684713b7f97bfa3681bc7f9dec6130934c52fd6c0efc41130659225020f79f",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_CHECKS))
def test_check_stdout_matches_golden_hash(capsysbinary, seed):
    assert main(["check", "--n", "1000", "--seed", str(seed)]) == EXIT_OK
    out = capsysbinary.readouterr().out
    assert hashlib.sha256(out).hexdigest() == GOLDEN_CHECKS[seed]


def test_check_deterministic_report(capsys):
    main(["check", "--n", "30", "--seed", "7"])
    first = capsys.readouterr().out
    main(["check", "--n", "30", "--seed", "7"])
    second = capsys.readouterr().out
    assert first == second


def test_check_oracle_disagreement_fails(capsys, monkeypatch):
    def disagreeing_campaign(n, seed):
        return OracleCampaignSummary(n=n, seed=seed, max_abs_disagreement=1e-6,
                                     n_failures=n)

    monkeypatch.setattr(selfcheck, "run_oracle_campaign", disagreeing_campaign)
    assert main(["check", "--n", "20"]) == EXIT_CHECK_FAILED
    out = capsys.readouterr().out
    assert "FAIL oracle_equivalence: worst 1.000e-06 (tolerance 1.0e-10)" in out
    assert out.count("PASS") == 9
    assert "9/10 suites passed" in out


def test_check_tolerance_scale_is_not_an_option(capsys):
    with pytest.raises(SystemExit) as refused:
        main(["check", "--n", "20", "--tolerance-scale", "5"])
    assert refused.value.code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --tolerance-scale 5" in captured.err


@pytest.mark.parametrize("flag, value, minimum", [
    ("--n", "0", 1), ("--n", "-3", 1), ("--n", "2.5", 1),
    ("--seed", "-1", 0), ("--seed", "x", 0),
])
def test_check_bad_flag_value_names_the_flag(capsys, flag, value, minimum):
    with pytest.raises(SystemExit) as refused:
        main(["check", flag, value])
    assert refused.value.code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"argument {flag}: must be an integer >= {minimum}, got "
            f"'{value}'") in captured.err
