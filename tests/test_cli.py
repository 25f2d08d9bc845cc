import copy
import json
import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sonfis.cli import ConfigError, _prepare_data, execute, load_config
from sonfis.dataset import DatasetError, SplitSpec
from sonfis.dynamics import LoopConfig, NoiseParams
from sonfis.nfis import NfisTrainParams
from sonfis.som import SomParams
from sonfis.sweep import SweepSpec

README = Path(__file__).resolve().parents[1] / "README.md"


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
SWEEP_CSV_HEADER = "alpha,beta,gamma,extra,repeat,mean_NG,std_NG,mean_E,regime\n"

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
    pytest.param("run-sorst", {"bins": [3, 3]}, "$: bins must list", id="bins-length"),
    pytest.param("run-sorst", {"bins": [2, 2.5, 3, 3]}, "$.bins[1]:", id="bins-entry-not-integer"),
    pytest.param("run-sorst", {"bin_schedule": [2, 5, 5, 5]}, "$.bin_schedule: unknown key",
                 id="bin-schedule-unknown"),
    pytest.param("run-sonfis", {"n_min": 10, "n_max": 5}, "$: n_max must be >= n_min", id="n-max-below-n-min"),
    pytest.param("run-sonfis", {"initial_N": 500}, "$: initial_N must lie", id="initial-n-above-n-max"),
    pytest.param("run-sonfis", {"initial_N": 2}, "$: initial_N must lie", id="initial-n-below-n-min"),
    pytest.param("run-sonfis", {"dataset": {"csv": "data.csv"}}, "$.dataset.decision_column: required",
                 id="csv-without-decision-column"),
    pytest.param("sweep", {"dataset": {}}, "$.dataset: one of 'csv' or 'synthetic' is required",
                 id="dataset-without-source"),
    # Values that would run with every cell failed or every step a fallback.
    pytest.param("sweep", {"sweep": {"burn_in": 100}}, "$.sweep.burn_in:", id="burn-in-past-end"),
    pytest.param("sweep", {"sweep": {"extras": [1.5]}}, "$.sweep.extras[0]:", id="extras-not-integer"),
    pytest.param("run-sorst", {"bins": True}, "$.bins:", id="bins-bool"),
    pytest.param("sweep", {"sweep": {"system": "sorst", "extras": [1]}}, "$.sweep.extras[0]:",
                 id="sorst-one-bin"),
    pytest.param("sweep", {"bins": [2, 3, 3, 3], "sweep": {"system": "sorst"}}, "$.sweep.extras:",
                 id="sorst-bins-list-without-extras"),
    # Counts no step or repeat list can hold; every command checks the sweep.
    pytest.param("run-sonfis", {"iterations": 1e308}, "$.iterations:", id="iterations-above-maxsize"),
    pytest.param("run-sonfis", {"sweep": {"repeats": sys.maxsize + 1}}, "$.sweep.repeats:",
                 id="repeats-above-maxsize"),
    # Counts no SOM can allocate.
    pytest.param("run-sonfis", {"n_max": 1e308, "alpha": 1e308}, "$.n_max:", id="n-max-above-maxsize"),
    pytest.param("run-sorst", {"bins": 1e308}, "$.bins:", id="bins-above-maxsize"),
    pytest.param("run-sorst", {"bins": [2, 1e308, 3, 3]}, "$.bins[1]:", id="bins-entry-above-maxsize"),
    pytest.param("sweep", {"sweep": {"system": "sorst", "extras": [3, 1e308]}}, "$.sweep.extras[1]:",
                 id="sorst-extras-above-maxsize"),
    # Counts a SOM could allocate but not hold: n_max was searched in
    # som.grid_dims for about 3e9 steps before failing to allocate.
    pytest.param("run-sonfis", {"n_max": 9223372036854775783, "alpha": 1e308}, "$.n_max:",
                 id="n-max-above-max-neurons"),
    pytest.param("run-sorst", {"bins": 2**62}, "$.bins:", id="bins-above-max-neurons"),
    pytest.param("sweep", {"sweep": {"system": "sorst", "extras": [3, 100000]}}, "$.sweep.extras[1]:",
                 id="sorst-extras-above-max-neurons"),
    # Seeds below 0, which NumPy's seed sequences would reject only at run time.
    pytest.param("sweep", {"seed": -1}, "$.seed:", id="seed-negative"),
    pytest.param("run-sonfis", {"dataset": {"synthetic": {"seed": -1}}}, "$.dataset.synthetic.seed:",
                 id="synthetic-seed-negative"),
    pytest.param("run-sonfis", {"split": {"shuffle_seed": -1}}, "$.split.shuffle_seed:",
                 id="shuffle-seed-negative"),
    # An integer beyond the float range, in a float key.
    pytest.param("run-sonfis", {"alpha": 10**400}, "$.alpha:", id="alpha-integer-beyond-float"),
    pytest.param("sweep", {"sweep": {"alphas": [10**400]}}, "$.sweep.alphas[0]:",
                 id="alphas-entry-integer-beyond-float"),
]

# Each parameter class with the config section its `FIELDS` table reads (None: the root).
SECTIONS = {NoiseParams: None, LoopConfig: None, SplitSpec: "split", SomParams: "som", NfisTrainParams: "nfis",
            SweepSpec: "sweep"}


def past_bounds():
    """(class, config path, value) for each bound in a `FIELDS` table, with
    the value one step past the bound."""
    for cls, section in SECTIONS.items():
        for key, (kind, minimum, *maximum) in cls.FIELDS.items():
            path = (section, key) if section else (key,)
            step = 0.5 if kind is float else 1
            if minimum is not None:
                yield pytest.param(cls, path, minimum - step, id=f"{'.'.join(path)}-below-minimum")
            for bound in maximum:
                yield pytest.param(cls, path, bound + step, id=f"{'.'.join(path)}-above-maximum")


# Every key a config can set, as its path from the root.
CONFIG_PATHS = [
    *[(key,) for key in ("alpha", "beta", "gamma", "iterations", "n_rules", "bins", "n_min", "n_max",
                         "initial_N", "seed", "dataset", "split", "som", "nfis", "sweep")],
    *[("dataset", key) for key in ("csv", "decision_column", "synthetic")],
    *[("dataset", "synthetic", key) for key in ("n", "noise_sd", "seed")],
    *[("split", key) for key in ("n_train", "n_test", "shuffle_seed")],
    *[("som", key) for key in ("epochs", "initial_radius", "final_radius")],
    *[("nfis", key) for key in ("epochs", "premise_learning_rate")],
    *[("sweep", key) for key in ("alphas", "betas", "gammas", "extras", "repeats", "system", "burn_in")],
]
DELETE = object()
# Valid values and everything else a JSON file can hold where a number, a
# list or a section belongs.
HOSTILE = st.sampled_from([DELETE, None, True, False, 0, 1, 2, 3, 20, -1, 0.5, 0.0, 2.0, 3.0, 20.0,
                           1e308, -1e308, math.inf, -math.inf, math.nan, "x", "sorst", [], [2, 3], [2.0],
                           [0.5, "x"], [1e308], {}])
# `dataset.synthetic.n` stays small, so every generated dataset is cheap.
SMALL_N = st.sampled_from([DELETE, None, True, 0, 1, 2, 30, 60.0, -5, 2.5, math.nan, "x"])


@st.composite
def fuzzed_configs(draw):
    """SMALL with up to four keys set to a drawn value or deleted."""
    doc = copy.deepcopy(SMALL)
    for path in draw(st.lists(st.sampled_from(CONFIG_PATHS), max_size=4)):
        value = draw(SMALL_N if path == ("dataset", "synthetic", "n") else HOSTILE)
        parent = doc
        for key in path[:-1]:
            if isinstance(parent, dict):
                parent = parent.setdefault(key, {})
        if not isinstance(parent, dict):
            continue
        if value is DELETE:
            parent.pop(path[-1], None)
        else:
            parent[path[-1]] = copy.deepcopy(value)  # a later edit may fill a drawn {}
    return doc


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

    def test_readme_configuration_block_is_the_defaults(self, tmp_path):
        text = README.read_text().split("### Configuration", 1)[1]
        block = text.split("```json\n", 1)[1].split("```", 1)[0]
        p = tmp_path / "readme.json"
        p.write_text(block)
        assert load_config(p) == load_config(write_config(tmp_path, {}))

    @settings(max_examples=300, deadline=None)
    @given(doc=fuzzed_configs())
    def test_fuzzed_config_fails_only_as_config_or_data(self, tmp_path_factory, doc):
        path = tmp_path_factory.mktemp("fuzz") / "config.json"
        path.write_text(json.dumps(doc))
        try:
            cfg = load_config(path)
        except ConfigError:
            return
        try:
            _prepare_data(cfg)
        except DatasetError:
            pass


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

    def test_integer_literal_past_the_digit_limit_exits_2(self, tmp_path, capsys):
        # json.loads refuses integer literals of more than 4300 digits with
        # a ValueError that is not a JSONDecodeError.
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(SMALL)[:-1] + ', "alpha": 1' + "0" * 4300 + "}")
        assert execute(["run-sonfis", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {cfg}: invalid JSON")

    def test_integral_floats_run_as_integers(self, tmp_path):
        outputs = []
        for name, syn in (("int", {"n": 140, "seed": 3}), ("float", {"n": 140.0, "seed": 3.0})):
            cfg = write_config(tmp_path, dict(SMALL, dataset={"synthetic": syn}), f"{name}.json")
            assert execute(["run-sonfis", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
            outputs.append((tmp_path / name / "trajectory_sonfis.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_overflowing_alpha_runs_at_n_max(self, tmp_path):
        # alpha * N overflows to inf; the update law clamps it to n_max.
        cfg = write_config(tmp_path, dict(SMALL, alpha=1e308, n_max=30))
        out = tmp_path / "out"
        assert execute(["run-sonfis", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "trajectory_sonfis.csv").read_text().splitlines()
        assert [int(line.split(",")[1]) for line in lines[1:]] == [16, 30, 30, 30]
        assert execute(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert len((out / "sweep.csv").read_text().splitlines()) == 2

    def test_run_that_raises_exits_1(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("run failed")

        monkeypatch.setattr("sonfis.dynamics.run_sonfis", fail)
        cfg = write_config(tmp_path, SMALL)
        assert execute(["run-sonfis", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("runtime error: RuntimeError: run failed")

    def test_sweep_with_every_cell_failed_exits_1(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("cell failed")

        monkeypatch.setattr("sonfis.sweep.run_sonfis", fail)
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        assert execute(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        assert (out / "sweep.csv").read_text().splitlines() == [
            "alpha,beta,gamma,extra,repeat,mean_NG,std_NG,mean_E,regime"]
        assert capsys.readouterr().err.startswith("runtime error: RuntimeError: cell failed")

    @pytest.mark.parametrize("command", ["run-sonfis", "run-sorst"])
    def test_report_echo_loads_as_the_run_config(self, tmp_path, command):
        doc = dict(SMALL, alpha=0.85, beta=0.2, gamma=1.5, seed=4, bins=[2, 5, 5, 5],
                   som={"epochs": 2, "initial_radius": 3.0, "final_radius": 0.7},
                   nfis={"epochs": 2, "premise_learning_rate": 0.1})
        cfg = write_config(tmp_path, doc)
        system = command.split("-")[1]
        out, rerun = tmp_path / "out", tmp_path / "rerun"
        assert execute([command, "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / f"report_{system}.json").read_text())
        echo_doc = {**report["config"], **report["noise"], "dataset": doc["dataset"], "split": doc["split"]}
        echo_cfg = write_config(tmp_path, echo_doc, "echo.json")
        echo, run = load_config(echo_cfg), load_config(cfg)
        assert echo.loop == run.loop
        assert echo.noise == run.noise
        assert execute([command, "--config", str(echo_cfg), "--out", str(rerun)]) == 0
        name = f"trajectory_{system}.csv"
        assert (rerun / name).read_bytes() == (out / name).read_bytes()

    @pytest.mark.parametrize("cls, path, value", past_bounds())
    def test_table_bound_holds_in_config_and_class(self, tmp_path, capsys, cls, path, value):
        doc = copy.deepcopy(SMALL)
        (doc.setdefault(path[0], {}) if len(path) == 2 else doc)[path[-1]] = value
        cfg = write_config(tmp_path, doc)
        assert execute(["run-sonfis", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: $.{'.'.join(path)}:")
        required = {"alphas": (0.9,), "betas": (0.001,), "gammas": (0.5,), "extras": (2,), "repeats": 1,
                    "base_config": LoopConfig()} if cls is SweepSpec else {}
        with pytest.raises(DatasetError if cls is SplitSpec else ValueError, match=f"^{path[-1]} must be"):
            cls(**{**required, path[-1]: value})

    def test_undecodable_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(b'{"alpha": 0.9\xff}')
        assert execute(["run-sonfis", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {cfg}: cannot decode")

    @pytest.mark.parametrize("flag, value", [("--n", "0"), ("--noise", "-1"), ("--noise", "nan"),
                                             ("--noise", "inf"), ("--seed", "-1")])
    def test_gen_data_bad_flag_exits_2(self, tmp_path, capsys, flag, value):
        out = tmp_path / "data.csv"
        assert execute(["gen-data", flag, value, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {flag}: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run-sonfis", "run-sorst"])
    def test_gen_data_csv_runs_as_its_synthetic_config(self, tmp_path, command):
        syn = SMALL["dataset"]["synthetic"]
        data = tmp_path / "data.csv"
        assert execute(["gen-data", "--n", str(syn["n"]), "--noise", str(syn["noise_sd"]),
                        "--seed", str(syn["seed"]), "--out", str(data)]) == 0
        name = f"trajectory_{command.split('-')[1]}.csv"
        outputs = []
        for source in ("synthetic", "csv"):
            dataset = SMALL["dataset"] if source == "synthetic" else {"csv": str(data), "decision_column": "y"}
            cfg = write_config(tmp_path, dict(SMALL, dataset=dataset), f"{source}.json")
            assert execute([command, "--config", str(cfg), "--out", str(tmp_path / source)]) == 0
            outputs.append((tmp_path / source / name).read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("data, message", [
        (b"x1,y\n0.5,\xff\n", "cannot decode"),
        (b"x1,y\n0.5," + b"1" * 200_000 + b"\n", "cannot parse"),
        (b"", "empty file"),
        (b"x1,y\n0.5,abc\n", "row 1, column 'y': non-numeric cell 'abc'"),
        (b"x1,y\n", "no data rows"),
    ], ids=["undecodable", "field-over-csv-limit", "empty", "non-numeric-cell", "header-only"])
    def test_unreadable_dataset_csv_exits_3(self, tmp_path, capsys, data, message):
        path = tmp_path / "data.csv"
        path.write_bytes(data)
        cfg = write_config(tmp_path, dict(SMALL, dataset={"csv": str(path), "decision_column": "y"}))
        assert execute(["run-sonfis", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"I/O error: {path}: {message}")

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        assert execute(["run-sonfis", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: cannot read config {path}")

    def test_missing_csv_exits_3(self, tmp_path, capsys):
        doc = {"dataset": {"csv": str(tmp_path / "absent.csv"), "decision_column": "q"}}
        cfg = write_config(tmp_path, doc)
        assert execute(["run-sonfis", "--config", str(cfg), "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("text, message", [
        ("alpha,beta\n0.9,0.001\n", "unexpected sweep CSV header"),
        (SWEEP_CSV_HEADER, "no sweep rows"),
        (SWEEP_CSV_HEADER + "0.9,0.001,0.5,2,0,abc,1.0,0.2,laminar\n", "row 1, column 'mean_NG'"),
        (SWEEP_CSV_HEADER + "0.9,0.001,0.5,2,0,12.0,1.0,0.2,laminar\n0.9,0.001,0.5,2,1,12.0\n",
         "row 2: expected 9 cells, got 6"),
        (SWEEP_CSV_HEADER.encode() + b"0.9,\xff\n", "cannot decode"),
    ], ids=["wrong-header", "header-only", "non-numeric-cell", "short-row", "undecodable"])
    def test_report_on_bad_sweep_csv_exits_3(self, tmp_path, capsys, text, message):
        path = tmp_path / "sweep.csv"
        path.write_bytes(text.encode() if isinstance(text, str) else text)
        assert execute(["report", "--sweep-csv", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("I/O error: ") and message in err

    def test_sweep_and_report_round_trip(self, tmp_path, capsys):
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
        capsys.readouterr()
        assert execute(["report", "--sweep-csv", str(sweep_csv), "--axis", "alpha"]) == 0
        assert capsys.readouterr().out == prof_path.read_text() + "\n"

    def test_sweep_determinism_bit_identical(self, tmp_path):
        doc = dict(SMALL, sweep={"alphas": [0.8, 0.9], "repeats": 1, "burn_in": 0})
        cfg = write_config(tmp_path, doc)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert execute(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
        assert execute(["sweep", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    def test_sweep_workers_give_identical_outputs(self, tmp_path):
        doc = dict(SMALL, sweep={"alphas": [0.8, 0.9], "repeats": 2, "burn_in": 0})
        cfg = write_config(tmp_path, doc)
        outputs = []
        for workers in ("1", "2"):
            out = tmp_path / workers
            tj = out / "trajs.json"
            assert execute(["sweep", "--config", str(cfg), "--out", str(out), "--trajectories", str(tj),
                            "--workers", workers]) == 0
            outputs.append(((out / "sweep.csv").read_bytes(), tj.read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_sweep_bad_workers_exits_2(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, SMALL)
        assert execute(["sweep", "--config", str(cfg), "--out", str(tmp_path), "--workers", value]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_trajectories_json_dump(self, tmp_path):
        doc = dict(SMALL, sweep={"alphas": [0.9], "repeats": 1, "burn_in": 0})
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        tj = tmp_path / "trajs.json"
        assert execute(["sweep", "--config", str(cfg), "--out", str(out), "--trajectories", str(tj)]) == 0
        doc = json.loads(tj.read_text())
        assert len(doc) == 1
        assert len(doc[0]["points"]) == SMALL["iterations"]
