"""End-to-end tests of the command-line interface and its file outputs."""

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qndsim import cli, dynamics, protocol
from qndsim.linalg import NumericalError
from qndsim.model import TWO_PI, SystemParams

import make_golden
import oracles


def run_cli(*argv):
    return cli.main(list(argv))


def load_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True)


def write_yaml(path, text):
    path.write_text(text)
    return str(path)


class TestConfigLoading:
    def test_defaults_are_fully_resolved(self):
        cfg = cli.default_config()
        assert set(cfg) == {
            "params", "schedule", "tomography", "spectrum", "efficiency",
            "protocol", "sweep",
        }
        assert set(cfg["params"]) == {f.name for f in dataclasses.fields(SystemParams)}
        assert cfg["params"]["chi"] == 1.5e6
        assert cfg["tomography"]["seed"] == 7

    def test_defaults_echo_the_table(self, default_outputs):
        # the reference set as the characterization table lists it, in Hz,
        # echoed by every subcommand's manifest with the rest of the resolution
        cfg = cli.default_config()
        assert (cfg["params"]["omega_q"], cfg["params"]["anharmonicity"]) == (7.8693e9, -0.344e9)
        for name, out in default_outputs.items():
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["config"] == cfg, name

    @pytest.mark.parametrize(
        "section, key", [(s, k) for s, block in cli.default_config().items() for k in block]
    )
    def test_value_of_another_kind_is_config_error(self, tmp_path, capsys, section, key):
        # each key is read by the kind of its default
        wrong = {bool: "1", int: "2.5", float: "true", type(None): "true", list: "0.1",
                 str: "[table]"}
        value = wrong[type(cli.default_config()[section][key])]
        p = write_yaml(tmp_path / "c.yaml", f"{section}:\n  {key}: {value}\n")
        assert run_cli("spectrum", "--config", p, "--out", str(tmp_path / "out")) == 2
        assert f"config error: {section}.{key} " in capsys.readouterr().err

    def test_unknown_section_rejected(self, tmp_path):
        p = write_yaml(tmp_path / "c.yaml", "warp:\n  x: 1\n")
        with pytest.raises(cli.ConfigError, match="unknown config section"):
            cli.load_config(p)

    def test_unknown_key_rejected(self, tmp_path):
        p = write_yaml(tmp_path / "c.yaml", "params:\n  flux: 3\n")
        with pytest.raises(cli.ConfigError, match="params.flux"):
            cli.load_config(p)

    def test_scientific_notation_strings_coerced(self, tmp_path):
        p = write_yaml(
            tmp_path / "c.yaml",
            "schedule:\n  pulse_fwhm: 500e-9\n  gate_interval: 800e-9\n",
        )
        cfg = cli.load_config(p)
        assert cfg["schedule"]["pulse_fwhm"] == 5e-7
        assert cfg["schedule"]["gate_interval"] == 8e-7

    def test_non_numeric_value_rejected(self, tmp_path):
        p = write_yaml(tmp_path / "c.yaml", "params:\n  chi: soon\n")
        with pytest.raises(cli.ConfigError, match="must be a number"):
            cli.load_config(p)

    def test_bad_sweep_axis_rejected(self, tmp_path):
        p = write_yaml(tmp_path / "c.yaml", "sweep:\n  axis: warp\n")
        with pytest.raises(cli.ConfigError, match="unknown sweep axis"):
            cli.load_config(p)

    def test_bad_efficiency_preset_rejected(self, tmp_path):
        p = write_yaml(tmp_path / "c.yaml", "efficiency:\n  preset: magic\n")
        with pytest.raises(cli.ConfigError, match="preset"):
            cli.load_config(p)

    def test_grid_must_be_list(self, tmp_path):
        p = write_yaml(tmp_path / "c.yaml", "schedule:\n  alpha_sq_grid: 3\n")
        with pytest.raises(cli.ConfigError, match="alpha_sq_grid"):
            cli.load_config(p)

    def test_infinite_integer_is_config_error(self, tmp_path, capsys):
        p = write_yaml(tmp_path / "c.yaml", "spectrum:\n  points: .inf\n")
        with pytest.raises(cli.ConfigError, match="spectrum.points"):
            cli.load_config(p)
        assert run_cli("spectrum", "--config", p, "--out", str(tmp_path / "out")) == 2
        assert "config error" in capsys.readouterr().err

    def test_integer_beyond_two_to_the_53_kept_exact(self, tmp_path):
        p = write_yaml(tmp_path / "c.yaml", "tomography:\n  seed: 9007199254740993\n")
        assert cli.load_config(p)["tomography"]["seed"] == 2**53 + 1

    def test_quoted_integer_kept_exact(self, tmp_path):
        p = write_yaml(
            tmp_path / "c.yaml",
            'tomography:\n  seed: "9007199254740993"\n  shots: "1e3"\n  phases: " 24 "\n',
        )
        t = cli.load_config(p)["tomography"]
        assert (t["seed"], t["shots"], t["phases"]) == (2**53 + 1, 1000, 24)
        assert all(type(t[k]) is int for k in ("seed", "shots", "phases"))

    def test_integer_beyond_float_range_is_config_error(self, tmp_path, capsys):
        p = write_yaml(tmp_path / "c.yaml", f"protocol:\n  n_ph: {'9' * 400}\n")
        with pytest.raises(cli.ConfigError, match="protocol.n_ph"):
            cli.load_config(p)
        assert run_cli("protocol", "--config", p, "--out", str(tmp_path / "out")) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, section, key, value",
        [
            ("protocol", "schedule", "n_in", ".nan"),
            ("spectrum", "spectrum", "span_hz", ".nan"),
            ("spectrum", "params", "omega_c", ".nan"),
            ("efficiency", "efficiency", "gate_interval", ".inf"),
            ("protocol", "schedule", "readout_delay", ".inf"),
        ],
    )
    def test_non_finite_number_is_config_error(
        self, tmp_path, capsys, command, section, key, value
    ):
        p = write_yaml(tmp_path / "c.yaml", f"{section}:\n  {key}: {value}\n")
        with pytest.raises(cli.ConfigError, match="must be finite"):
            cli.load_config(p)
        assert run_cli(command, "--config", p, "--out", str(tmp_path / "out")) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_infinite_decay_time_means_no_decay(self, tmp_path):
        p = write_yaml(
            tmp_path / "c.yaml", "params:\n  T1: .inf\n  T2_star: .inf\n  T2_echo: .inf\n"
        )
        cfg = cli.load_config(p)
        assert cfg["params"]["T1"] == math.inf
        assert oracles.gamma_phi_tot(cli._build_params(cfg["params"])) == 0.0


@pytest.fixture(scope="module")
def spectrum_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("spectrum")
    assert run_cli("spectrum", "--out", str(out)) == 0
    return out


@pytest.fixture(scope="module")
def protocol_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("protocol")
    assert run_cli("protocol", "--out", str(out)) == 0
    return out


class TestSpectrum:
    def test_reflection_dips_at_dressed_resonances(self, spectrum_outputs):
        table = load_csv(spectrum_outputs / "spectrum.csv")
        dip_g = table["detuning_hz"][np.argmin(table["reflectance_g"])]
        dip_e = table["detuning_hz"][np.argmin(table["reflectance_e"])]
        assert abs(dip_g - 1.5e6) < 2e4
        assert abs(dip_e + 1.5e6) < 2e4

    def test_differential_phase_near_pi_at_center(self, spectrum_outputs):
        table = load_csv(spectrum_outputs / "spectrum.csv")
        center = np.argmin(np.abs(table["detuning_hz"]))
        delta = abs(table["phase_e"][center] - table["phase_g"][center])
        np.testing.assert_allclose(delta, 2.9454468, atol=1e-4)
        assert abs(delta - math.pi) < 0.25

    def test_lossless_cavity_reflects_everything(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", "params:\n  kappa_in: 0\n")
        out = tmp_path / "out"
        assert run_cli("spectrum", "--config", cfg, "--out", str(out)) == 0
        table = load_csv(out / "spectrum.csv")
        np.testing.assert_allclose(table["reflectance_g"], 1.0, atol=1e-12)
        np.testing.assert_allclose(table["reflectance_e"], 1.0, atol=1e-12)

    def test_manifest_echoes_resolved_config_without_timestamps(self, spectrum_outputs):
        manifest = json.loads((spectrum_outputs / "manifest.json").read_text())
        assert manifest["subcommand"] == "spectrum"
        assert manifest["config"]["schedule"]["pulse_fwhm"] == 5e-7
        assert manifest["config"]["params"]["kappa_ex"] == 3.32e6
        flat = json.dumps(manifest).lower()
        assert "time" not in flat and "date" not in flat

    def test_missing_config_file_is_config_error(self, tmp_path, capsys):
        code = run_cli(
            "spectrum", "--config", str(tmp_path / "nope.yaml"),
            "--out", str(tmp_path),
        )
        assert code == 2
        assert "config error" in capsys.readouterr().err


SMALL_GRID_YAML = "schedule:\n  alpha_sq_grid: [0.0, 0.035, 0.07, 0.1]\n"


class TestEfficiency:
    def test_reference_run_reports_fit(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", SMALL_GRID_YAML)
        out = tmp_path / "out"
        assert run_cli("efficiency", "--config", cfg, "--out", str(out)) == 0
        report = json.loads((out / "efficiency.json").read_text())
        assert 0.81 <= report["eta"] <= 0.87
        np.testing.assert_allclose(report["eta"], 0.821762, atol=2e-3)
        np.testing.assert_allclose(report["dark_count"], 0.0165076, atol=2e-4)
        assert report["gate_interval"] == 8e-7
        curve = load_csv(out / "efficiency_curve.csv")
        assert curve["mean_input_photons"].size == 4
        assert np.all(np.diff(curve["flip_probability"]) > 0)

    def test_ideal_preset_is_nearly_lossless(self, tmp_path):
        cfg = write_yaml(
            tmp_path / "c.yaml", SMALL_GRID_YAML + "efficiency:\n  preset: ideal\n"
        )
        out = tmp_path / "out"
        assert run_cli("efficiency", "--config", cfg, "--out", str(out)) == 0
        report = json.loads((out / "efficiency.json").read_text())
        assert report["eta"] >= 0.98
        assert report["dark_count"] < 1e-8
        assert report["gate_interval"] == 1.6e-6

    def test_ideal_preset_derives_from_params(self):
        # the configured params with every imperfection off and kappa_ex = 2 chi,
        # in the preset's 1600 ns window unless efficiency.gate_interval is set
        cfg = cli.default_config()
        cfg["efficiency"]["preset"] = "ideal"
        params, window = cli._efficiency_point(cfg)
        assert params == oracles.ideal_params()
        assert window == oracles.window(gate_interval=1600e-9)
        cfg["params"]["chi"] = 2.0e6
        cfg["efficiency"]["gate_interval"] = 900e-9
        params, window = cli._efficiency_point(cfg)
        chi = TWO_PI * 2.0e6
        assert params == oracles.ideal_params().replace(chi=chi, kappa_ex=2 * chi)
        assert window["gate_interval"] == 900e-9
        cfg["efficiency"] = cli.default_config()["efficiency"]
        assert cli._efficiency_point(cfg) == (
            cli._build_params(cfg["params"]), oracles.window(gate_interval=800e-9)
        )

    # four grid points inside the window, and three, which the sweep tops
    # up to the four efficiency_scan takes
    @pytest.mark.parametrize("fit_window", [0.075, 0.06])
    def test_fit_window_reaches_report_fit_and_sweep(self, tmp_path, default_outputs, fit_window):
        cfg = write_yaml(
            tmp_path / "c.yaml",
            f"efficiency:\n  fit_window: {fit_window}\nsweep:\n  values: [800e-9]\n",
        )
        for command in ("efficiency", "sweep"):
            assert run_cli(command, "--config", cfg, "--out", str(tmp_path / command)) == 0
        report = json.loads((tmp_path / "efficiency" / "efficiency.json").read_text())
        assert report["fit_window"] == fit_window
        curve = load_csv(tmp_path / "efficiency" / "efficiency_curve.csv")
        x, y = curve["mean_input_photons"], curve["flip_probability"]
        sel = x <= fit_window
        coef, *_ = np.linalg.lstsq(
            np.column_stack([x[sel], x[sel] ** 2]), y[sel] - report["dark_count"], rcond=None
        )
        np.testing.assert_allclose(report["eta"], coef[0], rtol=1e-12)
        default = json.loads((default_outputs["efficiency"] / "efficiency.json").read_text())
        assert abs(report["eta"] - default["eta"]) > 1e-4
        row = load_csv(tmp_path / "sweep" / "sweep.csv")
        assert (float(row["eta"]), float(row["dark_count"])) == (
            report["eta"], report["dark_count"]
        )

    def test_degenerate_grid_is_config_error(self, tmp_path, capsys):
        cfg = write_yaml(
            tmp_path / "c.yaml", "schedule:\n  alpha_sq_grid: [0.0]\n"
        )
        assert run_cli("efficiency", "--config", cfg, "--out", str(tmp_path)) == 2
        assert "grid" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [".nan", ".inf"])
    def test_non_finite_grid_is_config_error(self, tmp_path, capsys, bad):
        cfg = write_yaml(
            tmp_path / "c.yaml",
            f"schedule:\n  alpha_sq_grid: [0.0, 0.025, 0.05, {bad}, 0.1, 0.6]\n",
        )
        out = tmp_path / "out"
        assert run_cli("efficiency", "--config", cfg, "--out", str(out)) == 2
        assert "finite" in capsys.readouterr().err
        assert not (out / "efficiency.json").exists()

    def test_numerical_error_in_scan_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        def breaks_down(*args, **kwargs):
            raise NumericalError("eigenvalue defect 1.000e-01 exceeds 1.0e-09")

        monkeypatch.setattr(cli, "efficiency_scan", breaks_down)
        out = tmp_path / "out"
        assert run_cli("efficiency", "--out", str(out)) == 3
        assert "numerical failure: eigenvalue defect" in capsys.readouterr().err
        assert not (out / "efficiency.json").exists()

    def test_zero_gate_interval_is_config_error(self, tmp_path, capsys):
        cfg = write_yaml(
            tmp_path / "c.yaml",
            SMALL_GRID_YAML + "efficiency:\n  gate_interval: 0\n  preset: ideal\n",
        )
        out = tmp_path / "out"
        assert run_cli("efficiency", "--config", cfg, "--out", str(out)) == 2
        assert "t_i must precede t_g" in capsys.readouterr().err
        assert not (out / "efficiency.json").exists()


class TestProtocol:
    def test_report_reference_figures(self, protocol_outputs):
        report = json.loads((protocol_outputs / "report.json").read_text())
        np.testing.assert_allclose(report["output_photons"], 0.1375993, atol=2e-4)
        np.testing.assert_allclose(report["flip_probability"], 0.140594, atol=3e-4)
        np.testing.assert_allclose(report["negativity"], 0.287433, atol=5e-3)
        np.testing.assert_allclose(
            report["fidelity_ground_vacuum"], 0.980540, atol=2e-3
        )
        np.testing.assert_allclose(
            report["fidelity_excited_single"], 0.764656, atol=5e-3
        )
        assert 0.25 <= report["negativity"] <= 0.346

    def test_composite_state_file_is_a_density_matrix(self, protocol_outputs):
        table = load_csv(protocol_outputs / "state_composite.csv")
        dim = int(table["row"].max()) + 1
        rho = np.zeros((dim, dim), dtype=complex)
        rho[table["row"].astype(int), table["col"].astype(int)] = (
            table["real"] + 1j * table["imag"]
        )
        assert dim == 6
        np.testing.assert_allclose(np.trace(rho).real, 1.0, atol=1e-9)
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)

    def test_photon_distribution_file(self, protocol_outputs):
        table = load_csv(protocol_outputs / "photon_distributions.csv")
        np.testing.assert_allclose(table["ground"][0], 0.98054, atol=2e-3)
        np.testing.assert_allclose(table["ground"].sum(), 1.0, atol=1e-9)
        np.testing.assert_allclose(table["unconditional"].sum(), 1.0, atol=1e-9)

    def test_wigner_files_cover_grid(self, protocol_outputs):
        table = load_csv(protocol_outputs / "wigner_ground.csv")
        assert table.size == 61 * 61
        assert table["x"].min() == -3.0 and table["x"].max() == 3.0
        total = table["W"].sum() * 0.1 * 0.1
        np.testing.assert_allclose(total, 1.0, atol=2e-3)

    def test_dark_run_heralds_vacuum(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", "schedule:\n  n_in: 0.0\n")
        out = tmp_path / "out"
        assert run_cli("protocol", "--config", cfg, "--out", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        np.testing.assert_allclose(report["fidelity_ground_vacuum"], 1.0, atol=1e-9)
        assert report["output_photons"] == 0.0
        assert report["fidelity_excited_single"] < 1e-6
        assert report["negativity"] < 1e-12
        assert (out / "wigner_excited.csv").exists()

    def test_wigner_off_writes_no_wigner_files(self, tmp_path, protocol_outputs):
        cfg = write_yaml(tmp_path / "c.yaml", "protocol:\n  wigner: false\n")
        out = tmp_path / "out"
        assert run_cli("protocol", "--config", cfg, "--out", str(out)) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == sorted(
            p.name for p in protocol_outputs.iterdir() if not p.name.startswith("wigner_")
        )
        for name in names:
            if name != "manifest.json":
                assert (out / name).read_bytes() == (protocol_outputs / name).read_bytes(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["protocol"] == {"n_ph": 2, "wigner": False}

    def test_negative_photon_number_is_config_error(self, tmp_path, capsys):
        cfg = write_yaml(tmp_path / "c.yaml", "schedule:\n  n_in: -0.1\n")
        out = tmp_path / "out"
        assert run_cli("protocol", "--config", cfg, "--out", str(out)) == 2
        assert "n_in must be non-negative, got -0.1" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_certain_misread_is_numerical_failure(self, tmp_path, capsys):
        cfg = write_yaml(
            tmp_path / "c.yaml", "params:\n  eps_rg: 1.0\n  eps_re: 0.0\n"
        )
        code = run_cli("protocol", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_eigenvalue_defect_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        # the reference run projects out eigenvalue defects of order 1e-3
        # from its conditional states; a repair bound below that makes the
        # repair fail, which must not read as a configuration error
        monkeypatch.setattr(protocol, "CLIP_ERR", 1e-6)
        code = run_cli("protocol", "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == 3
        assert "numerical failure" in err and "eigenvalue defect" in err

    def test_delay_search_failure_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(dynamics, "DELAY_MAX_EVALS", 3)
        code = run_cli("protocol", "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == 3
        assert "numerical failure: delay search did not converge in 3 evaluations" in err


TINY_TOMO_YAML = (
    "tomography:\n  phases: 21\n  shots: 300\n  iterations: 400\n"
)


class TestTomoSelftest:
    def test_round_trip_table_and_determinism(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", TINY_TOMO_YAML)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli("tomo-selftest", "--config", cfg, "--out", str(out_a)) == 0
        assert run_cli("tomo-selftest", "--config", cfg, "--out", str(out_b)) == 0
        names = sorted(p.name for p in out_a.iterdir())
        assert names == [
            "manifest.json",
            "record_coherent.csv", "record_coherent.json",
            "record_composite.csv", "record_composite.json",
            "selftest.json",
        ]
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        table = json.loads((out_a / "selftest.json").read_text())
        assert table["coherent"]["uncorrected"]["mean_photon"] < 0.1
        assert table["coherent"]["corrected"]["mean_photon"] > 0.1
        assert 0.08 <= table["composite"]["uncorrected_negativity"] <= 0.22
        assert (
            table["composite"]["corrected_negativity"]
            > table["composite"]["uncorrected_negativity"]
        )

    def test_null_seed_requires_flag(self, tmp_path, capsys):
        cfg = write_yaml(
            tmp_path / "c.yaml", TINY_TOMO_YAML + "  seed: null\n"
        )
        assert run_cli("tomo-selftest", "--config", cfg, "--out", str(tmp_path)) == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("phases", 0), ("phases", -3), ("phases", 5), ("shots", -5), ("shots", 0),
            ("iterations", 0), ("iterations", -1), ("seed", -1),
        ],
    )
    def test_bad_tomography_settings_rejected_up_front(self, tmp_path, capsys, key, value):
        settings = {"phases": 21, "shots": 300, "iterations": 400, key: value}
        cfg = write_yaml(
            tmp_path / "c.yaml",
            "tomography:\n" + "".join(f"  {k}: {v}\n" for k, v in settings.items()),
        )
        out = tmp_path / "o"
        out.mkdir()
        assert run_cli("tomo-selftest", "--config", cfg, "--out", str(out)) == 2
        assert f"tomography.{key}" in capsys.readouterr().err
        assert not any(out.iterdir())

    def test_bad_schedule_leaves_no_record(self, tmp_path, capsys):
        # the protocol run comes first, so a schedule it refuses stops the
        # run before any record is written
        cfg = write_yaml(tmp_path / "c.yaml", TINY_TOMO_YAML + "schedule:\n  n_in: -0.1\n")
        out = tmp_path / "o"
        assert run_cli("tomo-selftest", "--config", cfg, "--out", str(out)) == 2
        assert "n_in must be non-negative" in capsys.readouterr().err
        assert not any(out.iterdir())

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", TINY_TOMO_YAML + "  seed: null\n")
        assert cli.load_config(cfg)["tomography"]["seed"] is None
        out = tmp_path / "o"
        code = run_cli(
            "tomo-selftest", "--config", cfg, "--out", str(out), "--seed", "11"
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["seed"], manifest["config"]["tomography"]["seed"]) == (11, None)


class TestSweep:
    def test_single_point_matches_reference_scan(self, tmp_path):
        cfg = write_yaml(
            tmp_path / "c.yaml",
            "sweep:\n  axis: kappa_in\n  values: [1.5707963267948966e6]\n",
        )
        out = tmp_path / "out"
        assert run_cli("sweep", "--config", cfg, "--out", str(out)) == 0
        table = load_csv(out / "sweep.csv")
        np.testing.assert_allclose(table["eta"], 0.821826, atol=2e-3)
        np.testing.assert_allclose(table["dark_count"], 0.0165076, atol=2e-4)

    @pytest.mark.parametrize("n_ph", [2, 1])
    def test_one_operating_point(self, tmp_path, n_ph):
        # a one-value sweep at the configured window reproduces efficiency's
        # eta and dark count and protocol's survival and negativity exactly
        cfg = write_yaml(
            tmp_path / "c.yaml",
            "schedule:\n  gate_interval: 800e-9\n  n_in: 0.05\n"
            f"protocol:\n  n_ph: {n_ph}\n  wigner: false\n"
            "sweep:\n  axis: gate_interval\n  values: [800e-9]\n",
        )
        for command in ("efficiency", "protocol", "sweep"):
            assert run_cli(command, "--config", cfg, "--out", str(tmp_path / command)) == 0
        eff = json.loads((tmp_path / "efficiency" / "efficiency.json").read_text())
        report = json.loads((tmp_path / "protocol" / "report.json").read_text())
        row = load_csv(tmp_path / "sweep" / "sweep.csv")
        got = [float(row[k]) for k in ("eta", "dark_count", "survival", "negativity")]
        assert got == [eff["eta"], eff["dark_count"], report["survival"], report["negativity"]]
        np.testing.assert_allclose(report["input_photons"], 0.05, rtol=1e-15)

    def test_unknown_axis_is_config_error(self, tmp_path, capsys):
        cfg = write_yaml(tmp_path / "c.yaml", "sweep:\n  axis: warp\n")
        assert run_cli("sweep", "--config", cfg, "--out", str(tmp_path)) == 2
        assert "axis" in capsys.readouterr().err

    def test_negative_photon_number_is_config_error(self, tmp_path, capsys):
        cfg = write_yaml(tmp_path / "c.yaml", "schedule:\n  n_in: -0.1\n")
        out = tmp_path / "out"
        assert run_cli("sweep", "--config", cfg, "--out", str(out)) == 2
        assert "n_in must be non-negative, got -0.1" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()


@pytest.fixture(scope="module")
def default_outputs(tmp_path_factory, spectrum_outputs, protocol_outputs):
    """The output directories of the five subcommands at defaults (spectrum
    and protocol reuse their fixtures), keyed as make_golden.RUNS."""
    outs = {"spectrum": spectrum_outputs, "protocol": protocol_outputs}
    for name, argv in make_golden.RUNS.items():
        if name not in outs:
            outs[name] = tmp_path_factory.mktemp(name)
            assert run_cli(*argv, "--out", str(outs[name])) == 0
    return outs


@pytest.fixture(scope="module")
def golden_figures(default_outputs):
    """The figures tests/golden.json records, recomputed."""
    got = {}
    for name, out in default_outputs.items():
        got.update(make_golden.figures(name, out))
    return got


class TestGolden:
    """The outputs at defaults against tests/golden.json (written by
    tests/make_golden.py): each number and each CSV entry at 1e-10
    relative with a 1e-14 floor, far inside any physics pin; names and the
    digests of the tomography records exactly."""

    def _compare(self, got, files):
        record = json.loads(make_golden.GOLDEN.read_text())
        assert got.keys() == record.keys()
        report = make_golden.compare(
            {name: got[name] for name in files}, {name: record[name] for name in files}
        )
        moved = {name: row for name, row in report.items() if row[1]}
        assert not moved, f"(figures, moved, largest relative move) per file: {moved}"

    def test_json_scalars_match_record(self, golden_figures):
        self._compare(golden_figures, make_golden.JSON_FILES)

    def test_csv_tables_match_record(self, golden_figures):
        # per column of every table: its norm, its extreme entries and each entry
        tables = [name for name in golden_figures if name.endswith(".csv")]
        assert len(tables) == 12
        self._compare(golden_figures, tables)

    def test_manifests_match_record(self, golden_figures):
        # each run's config and seed, the version left out
        manifests = [name for name in golden_figures if name.endswith("/manifest.json")]
        assert sorted(manifests) == sorted(f"{run}/manifest.json" for run in make_golden.RUNS)
        assert not any(key == "version" for name in manifests for key in golden_figures[name])
        self._compare(golden_figures, manifests)

    def test_one_entry_moved_is_seen(self, golden_figures):
        # moves that a column's norm and extremes miss: 1e-8 at an interior
        # entry, relative and absolute, and at the first, of order 1e-15
        table = golden_figures["wigner_ground.csv"]
        w = table["W.entries"]
        for at, value in ((1900, w[1900] * (1 + 1e-8)), (1900, w[1900] + 1e-8), (0, w[0] + 1e-8)):
            entries = w.copy()
            entries[at] = value
            got = {"wigner_ground.csv": {**table, "W.entries": entries}}
            report = make_golden.compare(got, {"wigner_ground.csv": table})
            assert report["wigner_ground.csv"][1] == 1


class TestPlumbing:
    def test_outputs_have_one_byte_form(self, spectrum_outputs, protocol_outputs):
        # every table has csv.writer's bytes, every JSON is sorted with a 2-space indent
        paths = sorted(spectrum_outputs.iterdir()) + sorted(protocol_outputs.iterdir())
        assert {p.suffix for p in paths} == {".csv", ".json"}
        for path in paths:
            text = path.read_bytes().decode()
            if path.suffix == ".csv":
                ref = io.StringIO(newline="")
                csv.writer(ref).writerows(csv.reader(io.StringIO(text, newline="")))
                assert text == ref.getvalue(), path.name
            else:
                ref = json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
                assert text == ref, path.name

    def test_nested_output_directory_created(self, tmp_path):
        out = tmp_path / "deep" / "er" / "dir"
        assert run_cli("spectrum", "--out", str(out)) == 0
        assert (out / "spectrum.csv").exists()

    def test_manifest_written_only_after_success(self, tmp_path):
        # refused inside the handler, after the config has loaded
        cfg = write_yaml(tmp_path / "c.yaml", "spectrum:\n  points: 1\n")
        failed = tmp_path / "failed"
        assert run_cli("spectrum", "--config", cfg, "--out", str(failed)) == 2
        assert not (failed / "manifest.json").exists()
        done = tmp_path / "done"
        assert run_cli("spectrum", "--out", str(done)) == 0
        assert json.loads((done / "manifest.json").read_text())["subcommand"] == "spectrum"

    def test_protocol_run_imports_no_dense_scipy(self, tmp_path):
        # a fresh process: this test session has loaded scipy.linalg itself
        code = (
            "import sys\n"
            "from qndsim import cli\n"
            "heavy = ('scipy.optimize', 'scipy.linalg', 'scipy.spatial', 'scipy.special')\n"
            "print([m for m in heavy if m in sys.modules])\n"
            "assert cli.main(['protocol', '--out', sys.argv[1]]) == 0\n"
            "print([m for m in heavy if m in sys.modules])\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "o")],
            env=env, capture_output=True, text=True, check=True,
        )
        assert proc.stdout.splitlines() == ["[]", "[]"]

    def test_unknown_subcommand_exits_with_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("warp")
        assert exc.value.code == 2
