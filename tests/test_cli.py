import json
import math

import pytest

from sonfis.cli import ConfigError, execute, load_config


def write_config(tmp_path, doc, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


SMALL = {
    "dataset": {"synthetic": {"n": 140, "noise_sd": 0.05, "seed": 3}},
    "split": {"n_train": 100, "n_test": 40},
    "iterations": 4,
    "initial_N": 16,
    "som": {"epochs": 3},
    "nfis": {"epochs": 3},
}

# Each config, merged over SMALL, with the subcommand that reads it and the
# start of the error message that names the offending field.
BAD_CONFIGS = [
    pytest.param("run-sonfis", {"alpha": -1}, "$.alpha:", id="alpha-negative"),
    # Values of the wrong JSON type.
    pytest.param("sweep", {"dataset": 5}, "$.dataset:", id="dataset-not-object"),
    pytest.param("sweep", {"dataset": {"synthetic": 5}}, "$.dataset.synthetic:", id="synthetic-not-object"),
    pytest.param("sweep", {"dataset": {"csv": ["x.csv"], "decision_column": "q"}}, "$.dataset.csv:",
                 id="csv-not-string"),
    pytest.param("sweep", {"split": []}, "$.split:", id="split-not-object"),
    pytest.param("sweep", {"som": 3}, "$.som:", id="som-not-object"),
    pytest.param("sweep", {"sweep": 7}, "$.sweep:", id="sweep-not-object"),
    pytest.param("sweep", {"sweep": {"alphas": ["x"]}}, "$.sweep.alphas[0]:", id="alphas-entry-not-number"),
    pytest.param("sweep", {"sweep": {"repeats": "a"}}, "$.sweep.repeats:", id="repeats-not-number"),
    # Values a parameter object rejects.
    pytest.param("run-sonfis", {"alpha": math.inf}, "$.alpha:", id="alpha-infinite"),
    pytest.param("run-sonfis", {"gamma": math.nan}, "$.gamma:", id="gamma-nan"),
    pytest.param("sweep", {"sweep": {"alphas": [math.nan]}}, "$.sweep.alphas[0]:", id="alphas-entry-nan"),
    pytest.param("run-sonfis", {"nfis": {"premise_learning_rate": 0}}, "$.nfis: premise_learning_rate",
                 id="learning-rate-zero"),
    pytest.param("run-sonfis", {"som": {"final_radius": 0}}, "$.som: final_radius", id="final-radius-zero"),
    pytest.param("run-sonfis", {"som": {"initial_radius": 0.1}}, "$.som: initial_radius",
                 id="initial-radius-below-final"),
    pytest.param("sweep", {"sweep": {"system": "foo"}}, "$.sweep.system:", id="unknown-system"),
    pytest.param("run-sorst", {"bin_schedule": [3, 3]}, "$.bin_schedule:", id="bin-schedule-length"),
    # Values that would run with every cell failed or every step a fallback.
    pytest.param("sweep", {"sweep": {"burn_in": 100}}, "$.sweep.burn_in:", id="burn-in-past-end"),
    pytest.param("sweep", {"sweep": {"extras": [1.5]}}, "$.sweep.extras[0]:", id="extras-not-integer"),
    pytest.param("run-sorst", {"bin_schedule": True}, "$.bin_schedule:", id="bin-schedule-bool"),
    pytest.param("sweep", {"sweep": {"system": "sorst", "extras": [1]}}, "$.sweep.extras[0]:",
                 id="sorst-one-bin"),
]


class TestLoadConfig:
    def test_empty_object_gives_paper_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {}))
        assert cfg.noise.alpha == 0.9
        assert cfg.noise.beta == 0.001
        assert cfg.noise.gamma == 0.5
        assert cfg.loop.n_rules == 2
        assert cfg.loop.iterations == 30
        assert cfg.loop.n_min == 4
        assert cfg.loop.n_max == 400
        assert cfg.loop.initial_N == 100
        assert "synthetic" in cfg.dataset_source

    def test_negative_alpha_names_field(self, tmp_path):
        with pytest.raises(ConfigError, match="alpha"):
            load_config(write_config(tmp_path, {"alpha": -0.1}))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(write_config(tmp_path, {"alhpa": 0.9}))

    def test_nested_unknown_key_has_json_path(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\$\.som\.momentum"):
            load_config(write_config(tmp_path, {"som": {"momentum": 0.1}}))

    def test_two_dataset_sources_rejected(self, tmp_path):
        doc = {"dataset": {"csv": "x.csv", "decision_column": "q", "synthetic": {}}}
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(write_config(tmp_path, doc))

    def test_invalid_json_reported(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(p)


class TestExecute:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert execute(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_gen_data_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert execute(["gen-data", "--n", "50", "--seed", "7", "--noise", "0.05", "--out", str(a)]) == 0
        assert execute(["gen-data", "--n", "50", "--seed", "7", "--noise", "0.05", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_run_sonfis_writes_trajectory_and_report(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        assert execute(["run-sonfis", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "trajectory_sonfis.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + SMALL["iterations"]
        report = json.loads((out / "report_sonfis.json").read_text())
        assert report["config"]["iterations"] == SMALL["iterations"]
        assert report["order_metrics"]["mean_NG"] > 0

    def test_run_sorst_writes_outputs(self, tmp_path):
        doc = dict(SMALL, bins=3, alpha=0.9, beta=0.7, gamma=1.0)
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert execute(["run-sorst", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "trajectory_sorst.csv").exists()
        assert (out / "report_sorst.json").exists()

    @pytest.mark.parametrize("command, doc, where", BAD_CONFIGS)
    def test_bad_config_exits_2(self, tmp_path, capsys, command, doc, where):
        cfg = write_config(tmp_path, dict(SMALL, **doc))
        assert execute([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {where}")

    def test_missing_csv_exits_3(self, tmp_path, capsys):
        doc = {"dataset": {"csv": str(tmp_path / "absent.csv"), "decision_column": "q"}}
        cfg = write_config(tmp_path, doc)
        assert execute(["run-sonfis", "--config", str(cfg), "--out", str(tmp_path)]) == 3

    def test_sweep_and_report_round_trip(self, tmp_path):
        doc = dict(
            SMALL,
            sweep={"alphas": [0.7, 0.8, 0.9], "repeats": 2, "system": "sonfis", "burn_in": 0},
        )
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert execute(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        sweep_csv = out / "sweep.csv"
        lines = sweep_csv.read_text().strip().splitlines()
        assert len(lines) == 1 + 3 * 2
        prof_path = tmp_path / "profile.json"
        assert execute(["report", "--sweep-csv", str(sweep_csv), "--axis", "alpha", "--out", str(prof_path)]) == 0
        profile = json.loads(prof_path.read_text())
        assert [row["value"] for row in profile["profile"]] == [0.7, 0.8, 0.9]

    def test_sweep_determinism_bit_identical(self, tmp_path):
        doc = dict(SMALL, sweep={"alphas": [0.8, 0.9], "repeats": 1, "burn_in": 0})
        cfg = write_config(tmp_path, doc)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert execute(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
        assert execute(["sweep", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    def test_trajectories_json_dump(self, tmp_path):
        doc = dict(SMALL, sweep={"alphas": [0.9], "repeats": 1, "burn_in": 0})
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        tj = tmp_path / "trajs.json"
        assert execute(["sweep", "--config", str(cfg), "--out", str(out), "--trajectories", str(tj)]) == 0
        doc = json.loads(tj.read_text())
        assert len(doc) == 1
        assert len(doc[0]["points"]) == SMALL["iterations"]
