"""End-to-end tests for the command line front end."""

import hashlib
import json
import math

import numpy as np
import pytest

from sloccsim.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_DEGENERATE,
    EXIT_OK,
    ScenarioConfig,
    main,
    scenario_from_dict,
    scenario_to_dict,
)
from sloccsim.discrimination import PhaseChannel
from sloccsim.states import OverlapAmplitudes, SpinSuperposition, Statistics

S = 1.0 / math.sqrt(2.0)
THIRD = 1.0 / 3.0


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


@pytest.mark.parametrize("name", sorted(GOLDEN_SWEEPS))
def test_sweep_output_matches_golden_hash(tmp_path, name):
    out = tmp_path / f"{name}.out"
    if name == "custom":
        config = tmp_path / "custom.json"
        config.write_text(json.dumps(GOLDEN_CUSTOM_SWEEP, indent=2),
                          encoding="utf-8")
        argv = ["sweep", "--config", str(config), "--format", "json"]
    else:
        argv = ["sweep", "--preset", name]
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SWEEPS[name]


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


def test_missing_config_file_rejected(tmp_path, capsys):
    assert main(["project", "--config", str(tmp_path / "missing.json")]) \
        == EXIT_CONFIG


@pytest.mark.parametrize("command", ["project", "discriminate", "sweep"])
def test_unwritable_output_exits_2(tmp_path, capsys, command):
    out = tmp_path / "missing" / "out.csv"
    if command == "sweep":
        argv = ["sweep", "--preset", "fig3a"]
    else:
        argv = [command, "--config", write_config(tmp_path, base_config())]
    assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
    assert f"cannot write output {out}" in capsys.readouterr().err


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


# ---------------------------------------------------------------------------
# check


def test_check_passes(capsys):
    assert main(["check", "--n", "40"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("PASS") == 10
    assert "10/10" in out


def test_check_deterministic_report(capsys):
    main(["check", "--n", "30", "--seed", "7"])
    first = capsys.readouterr().out
    main(["check", "--n", "30", "--seed", "7"])
    second = capsys.readouterr().out
    assert first == second


def test_check_corrupted_tolerance_fails(capsys):
    assert main(["check", "--n", "20", "--tolerance-scale", "1e-12"]) \
        == EXIT_CHECK_FAILED
    assert "FAIL" in capsys.readouterr().out
