import json
import warnings

import numpy as np
import pytest

from sfgof import harness
from sfgof.cli import main
from sfgof.errors import ConfigError
from sfgof.inference_kit import RngStream
from sfgof.limit_laws import default_critical_value
from sfgof.poisson import linear_intensity_model, simulate_periodic_poisson, sin_profile

# One small null setting per family: family, model section, knob key, knob value, simulation settings.
SMALL_SETTINGS = [
    ("small-noise", {"name": "linear", "theta0": 0.5}, "epsilon", 0.05, {"num_steps": 2000}),
    ("ergodic", {"name": "ou", "theta0": 1.0}, "T", 50.0, {"step": 0.01}),
    ("poisson", {"name": "linear-h", "theta0": 2.0}, "n", 60, {}),
    ("ar", {"name": "linear-gaussian", "theta0": 0.5}, "n", 200, {}),
]
SETTING_IDS = [setting[0] for setting in SMALL_SETTINGS]
# A score construction that each family does not run.
FOREIGN_APPROACH = {"small-noise": "smoothed", "ergodic": "ito", "poisson": "ito", "ar": "smoothed"}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestCrit:
    def test_ks_value(self, capsys):
        assert main(["crit", "--alpha", "0.05", "--kind", "ks"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "alpha,kind,method,value,mc_error"
        fields = out[1].split(",")
        assert fields[0] == "0.05" and fields[1] == "ks"
        assert abs(float(fields[3]) - 1.3581) < 0.002

    def test_cvm_default_is_decision_value(self, capsys):
        for alpha in (0.01, 0.05):
            assert main(["crit", "--alpha", str(alpha), "--kind", "cvm"]) == 0
            fields = capsys.readouterr().out.splitlines()[1].split(",")
            assert fields[2] == "exact" and float(fields[4]) == 0.0
            assert fields[3] == f"{default_critical_value(alpha, 'cvm').value:.10g}"

    def test_cvm_series(self, capsys):
        assert main(["crit", "--alpha", "0.1", "--kind", "cvm", "--method", "series", "--seed", "3"]) == 0
        fields = capsys.readouterr().out.splitlines()[1].split(",")
        assert abs(float(fields[3]) - 0.347) < 0.01
        assert float(fields[4]) > 0.0


class TestTest:
    def test_small_noise(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "sn.json",
            {
                "family": "small-noise",
                "model": {"name": "linear"},
                "theta0": 0.5,
                "epsilon": 0.05,
                "num_steps": 2000,
                "approach": "split",
                "kind": "cvm",
                "alpha": 0.05,
            },
        )
        assert main(["test", "small-noise", "--config", cfg, "--seed", "4"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "model,epsilon,approach,kind,theta_hat,theta_bar,statistic,critical,reject"
        fields = out[1].split(",")
        assert fields[0] == "linear"
        assert fields[8] in ("0", "1")

    def test_ergodic(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "erg.json",
            {"family": "ergodic", "model": {"name": "ou"}, "theta0": 1.0, "T": 50, "step": 0.01, "alpha": 0.05},
        )
        assert main(["test", "ergodic", "--config", cfg, "--seed", "4"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("model,T,")

    def test_poisson_simulated_and_from_file(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "po.json",
            {"family": "poisson", "model": {"name": "linear-h"}, "theta0": 2.0, "n": 60, "alpha": 0.05},
        )
        assert main(["test", "poisson", "--config", cfg, "--seed", "4"]) == 0
        simulated = capsys.readouterr().out
        assert simulated.startswith("model,n,")

        model = linear_intensity_model(sin_profile(1.0), lam0=1.0, period=1.0, theta_lo=0.5, theta_hi=5.0)
        events = simulate_periodic_poisson(model, 2.0, 60, RngStream(4, 0))
        rows = np.column_stack([np.repeat(np.arange(events.n), np.diff(events.offsets)), events.times])
        events_path = tmp_path / "events.csv"
        np.savetxt(events_path, rows, delimiter=",")
        assert main(["test", "poisson", "--config", cfg, "--events", str(events_path)]) == 0
        assert capsys.readouterr().out == simulated

    def test_ar_from_file(self, tmp_path, capsys):
        from sfgof.ar import linear_gaussian_ar

        from reference import simulate_ar

        sample = simulate_ar(linear_gaussian_ar(), 0.5, 600, RngStream(5, 0))
        data_path = tmp_path / "series.csv"
        np.savetxt(data_path, sample.values)
        cfg = write_config(
            tmp_path,
            "ar.json",
            {"family": "ar", "model": {"name": "linear-gaussian"}, "theta0": 0.5, "n": 600, "alpha": 0.05},
        )
        assert main(["test", "ar", "--config", cfg, "--data", str(data_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("model,n,")
        assert out[1].split(",")[5] == ""  # no preliminary estimate for this family


class TestBoundaryErrors:
    """Bad files and incomplete configs end in `error: ...` and exit code 2, not a traceback."""

    def _poisson_config(self, tmp_path):
        return write_config(
            tmp_path,
            "po.json",
            {"family": "poisson", "model": {"name": "linear-h"}, "theta0": 2.0, "n": 60, "alpha": 0.05},
        )

    def test_malformed_events_file(self, tmp_path, capsys):
        events_path = tmp_path / "events.csv"
        events_path.write_text("0,0.25\n1,not-a-time\n")
        code = main(["test", "poisson", "--config", self._poisson_config(tmp_path), "--events", str(events_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot parse") and "events.csv" in err

    def test_missing_events_file(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.csv")
        assert main(["test", "poisson", "--config", self._poisson_config(tmp_path), "--events", missing]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {missing}")

    def test_missing_data_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "ar.json", {"model": {"name": "linear-gaussian"}, "theta0": 0.5, "n": 200})
        missing = str(tmp_path / "absent.csv")
        assert main(["test", "ar", "--config", cfg, "--data", missing]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {missing}")

    def test_data_file_with_several_values_per_line(self, tmp_path, capsys):
        data_path = tmp_path / "series.txt"
        np.savetxt(data_path, np.linspace(-1.0, 1.0, 800).reshape(200, 4))
        cfg = write_config(tmp_path, "ar.json", {"model": {"name": "linear-gaussian"}, "theta0": 0.5, "n": 200})
        assert main(["test", "ar", "--config", cfg, "--data", str(data_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: series sample must be one value per line")
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("content", ["", "\n\n"], ids=["empty", "blank-lines"])
    @pytest.mark.parametrize("family, flag", [("poisson", "--events"), ("ar", "--data")])
    def test_recorded_data_file_without_rows(self, tmp_path, capsys, family, flag, content):
        model, knob, value, sim = next(setting[1:] for setting in SMALL_SETTINGS if setting[0] == family)
        cfg = write_config(tmp_path, "test.json", {"model": model, knob: value, **sim})
        data_path = tmp_path / "recorded.csv"
        data_path.write_text(content)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["test", family, "--config", cfg, flag, str(data_path)]) == 2
        assert caught == []
        captured = capsys.readouterr()
        assert captured.err == f"error: {data_path} holds no data rows\n" and captured.out == ""

    def test_missing_config_file(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        assert main(["test", "ar", "--config", missing]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read config {missing}")

    def test_simulation_without_theta0(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "ar.json", {"model": {"name": "linear-gaussian"}, "n": 200})
        assert main(["test", "ar", "--config", cfg]) == 2
        assert "theta0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "family, flag",
        [("small-noise", "--events"), ("small-noise", "--data"), ("ergodic", "--events"), ("poisson", "--data"),
         ("ar", "--events")],
    )
    def test_recorded_data_flag_of_another_family(self, tmp_path, capsys, family, flag):
        model, knob, value, sim = next(setting[1:] for setting in SMALL_SETTINGS if setting[0] == family)
        cfg = write_config(tmp_path, "test.json", {"model": model, knob: value, **sim})
        assert main(["test", family, "--config", cfg, flag, str(tmp_path / "absent.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {flag} ") and family in captured.err
        assert captured.out == ""


class TestExperiments:
    def _size_config(self, tmp_path, replicates=100):
        return write_config(
            tmp_path,
            "size.json",
            {
                "family": "small-noise",
                "knob": "epsilon",
                "knob_value": 0.05,
                "replicates": replicates,
                "alphas": [0.05],
                "model": {"name": "linear", "theta0": 0.5},
                "sim": {"num_steps": 2000},
                "label": "cli-size",
            },
        )

    def test_size_writes_report(self, tmp_path, capsys):
        cfg = self._size_config(tmp_path)
        out_dir = tmp_path / "reports"
        # The 100 replicates fit in one block, so no worker process is started.
        assert main(["size", "--config", cfg, "--seed", "6", "--out", str(out_dir), "--threads", "4"]) == 0
        capsys.readouterr()
        csv_path = out_dir / "cli-size.csv"
        assert csv_path.exists()
        sidecar = (out_dir / "cli-size.meta.txt").read_text().splitlines()
        assert f"numpy: {np.__version__}" in sidecar
        assert "workers: 1 (serial)" in sidecar
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("model,knob,knob_value,alpha,")

    def test_threads_bit_identical(self, tmp_path, capsys):
        cfg = self._size_config(tmp_path)
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        assert main(["size", "--config", cfg, "--seed", "6", "--out", str(out1), "--threads", "1"]) == 0
        assert main(["size", "--config", cfg, "--seed", "6", "--out", str(out2), "--threads", "2"]) == 0
        capsys.readouterr()
        assert (out1 / "cli-size.csv").read_bytes() == (out2 / "cli-size.csv").read_bytes()

    def test_power_requires_alternative(self, tmp_path, capsys):
        cfg = self._size_config(tmp_path)
        assert main(["power", "--config", cfg, "--seed", "6"]) == 2
        assert "alternative" in capsys.readouterr().err

    def test_size_stdout_when_no_out(self, tmp_path, capsys):
        cfg = self._size_config(tmp_path)
        assert main(["size", "--config", cfg, "--seed", "6"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("model,knob,")

    def test_invisible_alternative_config_exists(self):
        from pathlib import Path

        cfg_path = Path(__file__).resolve().parent.parent / "configs" / "invisible_alternative.json"
        cfg = json.loads(cfg_path.read_text())
        assert cfg["model"]["name"] == "gated-linear"
        assert cfg["alternative"] == "gated-early"
        assert cfg["approach"] == "ito"


class TestMissingKeys:
    """A config without a required key, with another family's knob or with an approach its family does not run ends
    in `error: ...` naming the key or value, and exit code 2."""

    @pytest.mark.parametrize("key", ["family", "knob", "knob_value", "replicates"])
    def test_study_config(self, tmp_path, capsys, key):
        payload = {
            "family": "ar",
            "knob": "n",
            "knob_value": 200,
            "replicates": 100,
            "model": {"name": "linear-gaussian", "theta0": 0.5},
        }
        del payload[key]
        cfg = write_config(tmp_path, "size.json", payload)
        assert main(["size", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(key) in err

    @pytest.mark.parametrize("family, model, knob, value, sim", SMALL_SETTINGS, ids=SETTING_IDS)
    def test_study_config_with_another_familys_knob(self, tmp_path, capsys, family, model, knob, value, sim):
        wrong = "T" if knob != "T" else "n"
        payload = {"family": family, "knob": wrong, "knob_value": value, "replicates": 100, "model": model, "sim": sim}
        cfg = write_config(tmp_path, "size.json", payload)
        assert main(["size", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and repr(wrong) in captured.err and repr(knob) in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("family, model, knob, value, sim", SMALL_SETTINGS, ids=SETTING_IDS)
    def test_study_config_built_with_another_familys_knob(self, family, model, knob, value, sim):
        wrong = "T" if knob != "T" else "n"
        with pytest.raises(ConfigError) as info:
            harness.ExperimentConfig(
                family=family, knob=wrong, knob_value=value, replicates=100, model_params=model, sim_params=sim
            )
        assert repr(wrong) in str(info.value) and repr(knob) in str(info.value)

    @pytest.mark.parametrize("family, model, knob, value, sim", SMALL_SETTINGS, ids=SETTING_IDS)
    def test_test_config_without_knob(self, tmp_path, capsys, family, model, knob, value, sim):
        cfg = write_config(tmp_path, "test.json", {"model": model, **sim})
        assert main(["test", family, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(knob) in err


    @pytest.mark.parametrize("family, model, knob, value, sim", SMALL_SETTINGS, ids=SETTING_IDS)
    def test_approach_the_family_does_not_run(self, tmp_path, capsys, family, model, knob, value, sim):
        approach = FOREIGN_APPROACH[family]
        with pytest.raises(ConfigError) as info:
            harness.ExperimentConfig(
                family=family, knob=knob, knob_value=value, replicates=100, approach=approach, model_params=model,
                sim_params=sim,
            )
        assert repr(approach) in str(info.value) and family in str(info.value)
        study = {"family": family, "knob": knob, "knob_value": value, "replicates": 100, "approach": approach,
                 "model": model, "sim": sim}
        test = {"model": model, knob: value, "approach": approach, **sim}
        for argv in (["size", "--config", write_config(tmp_path, "size.json", study)],
                     ["test", family, "--config", write_config(tmp_path, "test.json", test)]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ") and repr(approach) in captured.err and captured.out == ""


class TestCrossPath:
    """`sfgof test --seed s` tests replicate 0 of the study at master seed s."""

    @pytest.mark.parametrize("family, model, knob, value, sim", SMALL_SETTINGS, ids=SETTING_IDS)
    def test_test_prints_study_replicate_zero(self, tmp_path, capsys, family, model, knob, value, sim):
        seed = 3
        study = harness.ExperimentConfig(
            family=family, knob=knob, knob_value=value, replicates=100, model_params=model, sim_params=sim,
            master_seed=seed,
        )
        block = harness._prepare(study)(0, 4)  # a block of four, as studies draw them
        cfg = write_config(tmp_path, "test.json", {"model": model, knob: value, **sim})
        assert main(["test", family, "--config", cfg, "--seed", str(seed)]) == 0
        fields = capsys.readouterr().out.splitlines()[1].split(",")
        theta_bar = "" if np.isnan(block.theta_bar[0]) else f"{block.theta_bar[0]:.10g}"
        assert fields[4:7] == [f"{block.theta_hat[0]:.10g}", theta_bar, f"{block.statistics[0]:.10g}"]
        # The approach the test reports is the one the study's CSV prints.
        assert fields[2] == study.approach
