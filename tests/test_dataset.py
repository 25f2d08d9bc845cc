import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sonfis
from sonfis.dataset import (
    Dataset,
    MAX_SYNTHETIC_N,
    DatasetError,
    SplitSpec,
    denormalize_decision,
    gen_synthetic,
    load_csv,
    min_max_normalize,
    split,
)


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


@pytest.mark.parametrize("X, y, names, match", [
    (np.zeros((3, 2)), np.zeros(2), [], "X must be"),
    (np.zeros(3), np.zeros(3), [], "X must be"),
    (np.zeros((2, 2)), np.zeros(2), ["a", "y"], "attribute_names must cover"),
    (np.array([[0.0, np.nan]]), np.zeros(1), [], "non-finite"),
    (np.zeros((1, 2)), np.array([np.inf]), [], "non-finite"),
])
def test_dataset_rejects_malformed_arrays(X, y, names, match):
    with pytest.raises(DatasetError, match=match):
        Dataset(X, y, names)


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        p = write(tmp_path, "a,b,q\n1,2,3\n4,5,6\n")
        ds = load_csv(p, "q")
        assert len(ds) == 2
        assert ds.n_inputs == 2
        assert np.allclose(ds.X, [[1, 2], [4, 5]])
        assert np.allclose(ds.y, [3, 6])

    def test_decision_first_column_keeps_input_order(self, tmp_path):
        p = write(tmp_path, "q,a,b\n9,1,2\n8,3,4\n")
        ds = load_csv(p, "q")
        assert ds.attribute_names == ["a", "b", "q"]
        assert np.allclose(ds.X, [[1, 2], [3, 4]])
        assert np.allclose(ds.y, [9, 8])

    def test_nan_cell_reports_row_and_column(self, tmp_path):
        rows = "\n".join("1,2,3" for _ in range(4))
        p = write(tmp_path, f"a,b,q\n{rows}\n1,NaN,3\n")
        with pytest.raises(DatasetError, match=r"row 5.*'b'"):
            load_csv(p, "q")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="cannot open"):
            load_csv(tmp_path / "absent.csv", "q")

    def test_unknown_decision_column(self, tmp_path):
        p = write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(DatasetError, match="unknown decision column"):
            load_csv(p, "q")

    def test_ragged_row(self, tmp_path):
        p = write(tmp_path, "a,b,q\n1,2,3\n1,2\n")
        with pytest.raises(DatasetError, match="row 2"):
            load_csv(p, "q")

    def test_decision_only_rejected(self, tmp_path):
        p = write(tmp_path, "y\n" + "".join(f"{i}\n" for i in range(200)))
        with pytest.raises(DatasetError, match="no input column"):
            load_csv(p, "y")

    def test_trailing_blank_line_is_skipped(self, tmp_path):
        plain = load_csv(write(tmp_path, "a,b,q\n1,2,3\n4,5,6\n", "plain.csv"), "q")
        blank = load_csv(write(tmp_path, "a,b,q\n1,2,3\n4,5,6\n\n", "blank.csv"), "q")
        assert np.array_equal(blank.X, plain.X) and np.array_equal(blank.y, plain.y)
        assert blank.attribute_names == plain.attribute_names

    def test_duplicate_header_rejected(self, tmp_path):
        p = write(tmp_path, "x,y,y\n1,2,3\n4,5,6\n")
        with pytest.raises(DatasetError, match="duplicate column names"):
            load_csv(p, "y")

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a BOM.
        plain = load_csv(write(tmp_path, "a,b,q\n1,2,3\n4,5,6\n", "plain.csv"), "q")
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + b"a,b,q\n1,2,3\n4,5,6\n")
        ds = load_csv(bom, "q")
        assert np.array_equal(ds.X, plain.X) and np.array_equal(ds.y, plain.y)
        assert ds.attribute_names == plain.attribute_names == ["a", "b", "q"]


class TestNormalize:
    def test_affine_map(self):
        ds = Dataset(np.array([[2.0], [4.0], [6.0]]), np.array([0.0, 1.0, 2.0]))
        normed = min_max_normalize(ds)
        assert np.allclose(normed.X[:, 0], [0, 0.5, 1])

    def test_idempotent_on_unit_range(self):
        X = np.array([[0.0], [0.5], [1.0]])
        y = np.array([0.0, 0.5, 1.0])
        normed = min_max_normalize(Dataset(X, y))
        assert np.allclose(normed.X, X)
        assert normed.norm_params == [(0.0, 1.0), (0.0, 1.0)]

    def test_constant_attribute_errors(self):
        ds = Dataset(np.array([[5.0], [5.0], [5.0]]), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(DatasetError, match="constant attribute"):
            min_max_normalize(ds)

    def test_denormalize_without_params_returns_values(self):
        ds = Dataset(np.zeros((2, 1)), np.array([3.0, -4.0]))
        assert denormalize_decision(ds, [0.25, 2]).tolist() == [0.25, 2.0]

    def test_round_trip_within_1e12(self):
        rng = np.random.default_rng(3)
        ds = Dataset(rng.normal(5, 2, (40, 2)), rng.normal(-3, 7, 40))
        normed = min_max_normalize(ds)
        back = denormalize_decision(normed, normed.y)
        assert np.abs(back - ds.y).max() < 1e-12


class TestSplit:
    def test_paper_sizes(self):
        ds = gen_synthetic(693, 0.0, 1)
        tr, te = split(ds, SplitSpec(600, 93))
        assert (len(tr), len(te)) == (600, 93)

    def test_counts_exceeding_size(self):
        ds = gen_synthetic(10, 0.0, 1)
        with pytest.raises(DatasetError, match="exceeds"):
            split(ds, SplitSpec(10, 1))

    def test_n_test_zero_rejected(self):
        with pytest.raises(DatasetError):
            SplitSpec(10, 0)

    def test_seeded_split_deterministic_and_disjoint(self):
        ds = gen_synthetic(50, 0.1, 2)
        a1, b1 = split(ds, SplitSpec(30, 20, shuffle_seed=9))
        a2, b2 = split(ds, SplitSpec(30, 20, shuffle_seed=9))
        assert np.array_equal(a1.X, a2.X) and np.array_equal(b1.y, b2.y)
        merged = np.vstack([a1.X, b1.X])
        assert len(np.unique(merged, axis=0)) == 50  # disjoint cover

    def test_contiguous_without_seed(self):
        ds = gen_synthetic(20, 0.0, 4)
        tr, te = split(ds, SplitSpec(15, 5))
        assert np.array_equal(tr.X, ds.X[:15])
        assert np.array_equal(te.X, ds.X[15:20])


class TestSynthetic:
    def test_known_values_noiseless(self):
        # f(0.25, 1, 0) = 0.5*sin(pi/2)*1 + 0 = 0.5
        # f(0, 0.7, 0.5) = 0 + 0.25
        X = np.array([[0.25, 1.0, 0.0], [0.0, 0.7, 0.5]])
        y = 0.5 * np.sin(2 * np.pi * X[:, 0]) * X[:, 1] + X[:, 2] ** 2
        assert y[0] == pytest.approx(0.5)
        assert y[1] == pytest.approx(0.25)
        ds = gen_synthetic(1000, 0.0, 11)
        expected = 0.5 * np.sin(2 * np.pi * ds.X[:, 0]) * ds.X[:, 1] + ds.X[:, 2] ** 2
        assert np.array_equal(ds.y, expected)

    def test_determinism(self):
        a = gen_synthetic(693, 0.05, 7)
        b = gen_synthetic(693, 0.05, 7)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)

    @pytest.mark.parametrize("n, noise_sd, seed, match", [
        (0, 0.05, 1, "n must be >= 1"),
        (10, -0.1, 1, "noise_sd must be >= 0.0"),
        (10, 0.05, -1, "seed must be >= 0"),
        (10.5, 0.05, 1, "n must be an integer"),
        (10, float("nan"), 1, "noise_sd must be finite"),
        (10, 0.05, True, "seed must be a number"),
        (MAX_SYNTHETIC_N + 1, 0.05, 1, "n must be <= 1000000"),
        (1e308, 0.05, 1, "n must be <= 1000000"),
    ], ids=["n-zero", "noise-negative", "seed-negative", "n-fraction", "noise-nan", "seed-bool", "n-above-max",
            "n-huge"])
    def test_out_of_range_arguments_rejected(self, n, noise_sd, seed, match):
        with pytest.raises(DatasetError, match=match):
            gen_synthetic(n, noise_sd, seed)

    def test_csv_round_trip(self, tmp_path):
        ds = gen_synthetic(25, 0.05, 3)
        p = tmp_path / "syn.csv"
        ds.to_csv(p)
        back = load_csv(p, "y")
        assert np.array_equal(back.X, ds.X) and np.array_equal(back.y, ds.y)

    def test_non_ascii_names_round_trip_in_the_c_locale(self, tmp_path):
        # An ASCII locale must not change the encoding `to_csv` writes:
        # `load_csv` reads UTF-8 everywhere.
        src = tmp_path / "in.csv"
        src.write_bytes("café,y\n1.5,2.5\n".encode())
        script = ("import sys; from sonfis.dataset import load_csv; "
                  "load_csv(sys.argv[1], 'y').to_csv(sys.argv[2]); print(ascii(load_csv(sys.argv[2], 'y').attribute_names))")
        env = {**os.environ, "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C", "LANG": "C", "PYTHONUTF8": "0",
               "PYTHONPATH": str(Path(sonfis.__file__).resolve().parents[1])}
        out = subprocess.run([sys.executable, "-c", script, str(src), str(tmp_path / "out.csv")],
                             env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "['caf\\xe9', 'y']"
        assert (tmp_path / "out.csv").read_bytes().startswith("café,y\r\n".encode())
