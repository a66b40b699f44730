import csv
import subprocess
import sys

import numpy as np
import pytest

from simbal import CVConfig, Method, Shape, report_to_csv, synthetic_benchmark
from simbal.cli import main, read_csv_dataset


MINORITY_ROWS = [
    ("0.1", "0.2", "pos"),
    ("0.3", "0.1", "pos"),
    ("0.2", "0.4", "pos"),
    ("0.4", "0.3", "pos"),
]
MAJORITY_ROWS = [
    ("5.0", "5.1", "neg"),
    ("5.2", "5.0", "neg"),
    ("5.1", "5.3", "neg"),
    ("5.3", "5.2", "neg"),
    ("4.9", "5.0", "neg"),
    ("5.0", "4.8", "neg"),
    ("5.4", "5.1", "neg"),
    ("5.2", "5.4", "neg"),
    ("4.8", "5.2", "neg"),
]


def write_input(path, rows=None, header=("x", "y", "label")):
    rows = MINORITY_ROWS + MAJORITY_ROWS if rows is None else rows
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)


def read_output(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestOversampleCommand:
    def test_roundtrip_counts_and_labels(self, tmp_path):
        src = write_input(tmp_path / "in.csv")
        out = str(tmp_path / "out.csv")
        assert main(["oversample", src, out, "--seed", "3", "-k", "3"]) == 0
        header, body = read_output(out)
        assert header == ["x", "y", "label", "synthetic"]
        original = [r for r in body if r[3] == "0"]
        synthetic = [r for r in body if r[3] == "1"]
        assert len(original) == 13
        assert len(synthetic) == 9 - 4
        assert all(r[2] == "pos" for r in synthetic)
        # original feature values survive the rewrite exactly
        for row, src_row in zip(original, MINORITY_ROWS + MAJORITY_ROWS):
            assert float(row[0]) == float(src_row[0])
            assert float(row[1]) == float(src_row[1])
            assert row[2] == src_row[2]
        for r in synthetic:
            assert np.isfinite(float(r[0])) and np.isfinite(float(r[1]))

    def test_byte_identical_given_seed(self, tmp_path):
        src = write_input(tmp_path / "in.csv")
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["oversample", src, a, "--seed", "11", "-k", "3"]) == 0
        assert main(["oversample", src, b, "--seed", "11", "-k", "3"]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_seed_changes_output(self, tmp_path):
        src = write_input(tmp_path / "in.csv")
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["oversample", src, a, "--seed", "1", "-k", "3"])
        main(["oversample", src, b, "--seed", "2", "-k", "3"])
        assert open(a).read() != open(b).read()

    def test_random_method_duplicates_minority_rows(self, tmp_path):
        src = write_input(tmp_path / "in.csv")
        out = str(tmp_path / "out.csv")
        assert main(["oversample", src, out, "--method", "random", "--seed", "0"]) == 0
        _, body = read_output(out)
        minority_coords = {(float(r[0]), float(r[1])) for r in MINORITY_ROWS}
        for r in body:
            if r[3] == "1":
                assert (float(r[0]), float(r[1])) in minority_coords

    def test_target_count_controls_rows(self, tmp_path):
        src = write_input(tmp_path / "in.csv")
        out = str(tmp_path / "out.csv")
        main(["oversample", src, out, "--seed", "0", "-k", "3",
              "--target-count", "3"])
        _, body = read_output(out)
        assert sum(1 for r in body if r[3] == "1") == 3
        main(["oversample", src, out, "--seed", "0", "-k", "3",
              "--target-count", "0"])
        _, body = read_output(out)
        assert sum(1 for r in body if r[3] == "1") == 0

    def test_minority_is_rarer_class_not_alphabetical(self, tmp_path):
        rows = [("0.0", "0.1", "zebra"), ("0.2", "0.0", "zebra"),
                ("5.0", "5.0", "ant"), ("5.1", "5.2", "ant"),
                ("5.2", "5.1", "ant"), ("4.9", "5.1", "ant"),
                ("5.3", "5.0", "ant")]
        src = write_input(tmp_path / "in.csv", rows)
        out = str(tmp_path / "out.csv")
        assert main(["oversample", src, out, "--seed", "0", "-k", "1"]) == 0
        _, body = read_output(out)
        synthetic = [r for r in body if r[3] == "1"]
        assert len(synthetic) == 5 - 2
        assert all(r[2] == "zebra" for r in synthetic)

    def test_custom_label_column_position(self, tmp_path):
        rows = [(r[2], r[0], r[1]) for r in MINORITY_ROWS + MAJORITY_ROWS]
        src = write_input(tmp_path / "in.csv", rows, header=("cls", "x", "y"))
        out = str(tmp_path / "out.csv")
        assert main(["oversample", src, out, "--seed", "0", "-k", "3",
                     "--label-column", "cls"]) == 0
        header, body = read_output(out)
        assert header == ["cls", "x", "y", "synthetic"]
        assert all(r[0] == "pos" for r in body if r[3] == "1")

    def test_k_clamp_warning(self, tmp_path, capsys):
        src = write_input(tmp_path / "in.csv")
        out = str(tmp_path / "out.csv")
        assert main(["oversample", src, out, "--seed", "0", "-k", "10"]) == 0
        err = capsys.readouterr().err
        assert "clamped" in err and "10" in err and "3" in err

    def test_seed_drawn_and_logged_when_omitted(self, tmp_path, capsys):
        src = write_input(tmp_path / "in.csv")
        out = str(tmp_path / "out.csv")
        assert main(["oversample", src, out, "-k", "3"]) == 0
        assert "seed:" in capsys.readouterr().err

    def test_all_methods_accepted(self, tmp_path):
        src = write_input(tmp_path / "in.csv")
        for method in ("global", "gaussian", "smote", "simplicial",
                       "safelevel", "s_safelevel", "adasyn", "s_adasyn"):
            out = str(tmp_path / f"{method}.csv")
            assert main(["oversample", src, out, "--method", method,
                         "--seed", "0", "-k", "2"]) == 0

    def test_symmetrize_and_formula_flags(self, tmp_path):
        src = write_input(tmp_path / "in.csv")
        out = str(tmp_path / "out.csv")
        assert main(["oversample", src, out, "--method", "s_safelevel",
                     "--seed", "0", "-k", "3", "--symmetrize", "mutual",
                     "--safelevel-formula", "plus-one"]) == 0


class TestOversampleErrors:
    def run_expect_error(self, argv, capsys, needle):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "error:" in err and needle in err

    def test_missing_file(self, tmp_path, capsys):
        self.run_expect_error(
            ["oversample", str(tmp_path / "nope.csv"), str(tmp_path / "o.csv"),
             "--seed", "0"], capsys, "cannot read")

    def test_unwritable_output(self, tmp_path, capsys):
        src = write_input(tmp_path / "in.csv")
        out = str(tmp_path / "missing_dir" / "o.csv")
        assert main(["oversample", src, out, "--seed", "0", "-k", "3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1

    def test_missing_label_column(self, tmp_path, capsys):
        src = write_input(tmp_path / "in.csv", header=("x", "y", "target"))
        self.run_expect_error(
            ["oversample", src, str(tmp_path / "o.csv"), "--seed", "0"],
            capsys, "label column")

    def test_three_classes(self, tmp_path, capsys):
        rows = list(MINORITY_ROWS + MAJORITY_ROWS) + [("1.0", "1.0", "mid")]
        src = write_input(tmp_path / "in.csv", rows)
        self.run_expect_error(
            ["oversample", src, str(tmp_path / "o.csv"), "--seed", "0"],
            capsys, "exactly 2")

    def test_balanced_classes(self, tmp_path, capsys):
        rows = MINORITY_ROWS + [(x, y, "neg") for x, y, _ in MINORITY_ROWS]
        src = write_input(tmp_path / "in.csv", rows)
        self.run_expect_error(
            ["oversample", src, str(tmp_path / "o.csv"), "--seed", "0"],
            capsys, "balanced")

    def test_non_numeric_cell_reports_row_and_column(self, tmp_path, capsys):
        rows = [list(r) for r in MINORITY_ROWS + MAJORITY_ROWS]
        rows[1][1] = "oops"
        src = write_input(tmp_path / "in.csv", rows)
        self.run_expect_error(
            ["oversample", src, str(tmp_path / "o.csv"), "--seed", "0"],
            capsys, "row 3")
        # second run to inspect the column half of the message
        assert main(["oversample", src, str(tmp_path / "o.csv"), "--seed", "0"]) == 1
        assert "'y'" in capsys.readouterr().err

    def test_non_finite_cell(self, tmp_path, capsys):
        rows = [list(r) for r in MINORITY_ROWS + MAJORITY_ROWS]
        rows[0][0] = "nan"
        src = write_input(tmp_path / "in.csv", rows)
        self.run_expect_error(
            ["oversample", src, str(tmp_path / "o.csv"), "--seed", "0"],
            capsys, "non-finite")

    def test_ragged_row(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("x,y,label\n0.1,0.2,pos,extra\n5.0,5.1,neg\n")
        self.run_expect_error(
            ["oversample", str(src), str(tmp_path / "o.csv"), "--seed", "0"],
            capsys, "row 2")

    def test_imbalanced_pseudo_method_rejected(self, tmp_path, capsys):
        src = write_input(tmp_path / "in.csv")
        self.run_expect_error(
            ["oversample", src, str(tmp_path / "o.csv"), "--method",
             "imbalanced", "--seed", "0"], capsys, "benchmark-only")

    def test_unknown_method(self, tmp_path, capsys):
        src = write_input(tmp_path / "in.csv")
        self.run_expect_error(
            ["oversample", src, str(tmp_path / "o.csv"), "--method", "magic",
             "--seed", "0"], capsys, "choose from")

    def test_bad_p_value(self, tmp_path, capsys):
        src = write_input(tmp_path / "in.csv")
        self.run_expect_error(
            ["oversample", src, str(tmp_path / "o.csv"), "-p", "two",
             "--seed", "0"], capsys, "-p must be")

    def test_empty_file(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("")
        self.run_expect_error(
            ["oversample", str(src), str(tmp_path / "o.csv"), "--seed", "0"],
            capsys, "empty")


class TestReadCsvDataset:
    def test_header_and_minority_label(self, tmp_path):
        src = write_input(tmp_path / "in.csv")
        ds, header, label_strings, minority_label = read_csv_dataset(src, "label")
        assert header == ["x", "y", "label"]
        assert minority_label == "pos"
        assert ds.n == 13 and ds.n_minority == 4 and ds.d == 2
        assert label_strings[0] == "pos" and label_strings[-1] == "neg"

    def test_scientific_notation_parses(self, tmp_path):
        rows = [("1e-3", "2.5E2", "pos"), ("0.0", "1.0", "neg"),
                ("0.1", "1.1", "neg")]
        src = write_input(tmp_path / "in.csv", rows)
        ds, _, _, _ = read_csv_dataset(src, "label")
        assert ds.features[0, 0] == 0.001 and ds.features[0, 1] == 250.0


class TestBenchmarkCommand:
    BASE = ["benchmark", "--methods", "random", "--datasets", "moons",
            "--folds", "2", "--repeats", "1", "--seed", "1"]

    def test_stdout_csv(self, capsys):
        assert main(self.BASE + ["--format", "csv"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "dataset,method,metric,mean,std,best_k,best_p"
        assert any(line.startswith("moons,random,f1,") for line in lines)
        assert any(line.startswith("all,random,rank,") for line in lines)

    def test_stdout_text_default(self, capsys):
        assert main(self.BASE) == 0
        out = capsys.readouterr().out
        assert "dataset" in out and "rank" in out and "moons" in out

    def test_deterministic(self, capsys):
        main(self.BASE + ["--format", "csv"])
        first = capsys.readouterr().out
        main(self.BASE + ["--format", "csv"])
        assert capsys.readouterr().out == first

    def test_output_prefix_writes_both_files(self, tmp_path, capsys):
        prefix = str(tmp_path / "report")
        assert main(self.BASE + ["--output", prefix]) == 0
        csv_text = open(prefix + ".csv").read()
        txt_text = open(prefix + ".txt").read()
        assert csv_text.startswith("dataset,method,metric")
        assert "rank" in txt_text
        assert "wrote" in capsys.readouterr().err

    def test_output_prefix_creates_directory(self, tmp_path, capsys):
        prefix = tmp_path / "results" / "main"
        assert main(self.BASE + ["--output", str(prefix)]) == 0
        assert (tmp_path / "results" / "main.csv").is_file()
        assert (tmp_path / "results" / "main.txt").is_file()

    def test_output_prefix_under_a_file(self, tmp_path, capsys):
        (tmp_path / "some_file").write_text("")
        prefix = str(tmp_path / "some_file" / "x")
        assert main(self.BASE + ["--output", prefix]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {prefix}: ")
        assert captured.err.count("\n") == 1

    def test_nested_matches_library(self, capsys):
        assert main(self.BASE + ["--format", "csv", "--nested"]) == 0
        report = synthetic_benchmark(seed=1, shapes=[Shape.MOONS], methods=[Method.RANDOM],
                                     cv=CVConfig(folds=2, repeats=1, mode="nested"))
        assert capsys.readouterr().out == report_to_csv(report)

    def test_unknown_dataset(self, capsys):
        assert main(["benchmark", "--datasets", "spirals", "--seed", "0"]) == 1
        assert "unknown dataset" in capsys.readouterr().err

    def test_unknown_method(self, capsys):
        assert main(["benchmark", "--methods", "magic", "--seed", "0"]) == 1
        assert "choose from" in capsys.readouterr().err

    def test_method_listed_twice(self, capsys):
        assert main(["benchmark", "--methods", "smote,random,smote", "--datasets", "moons",
                     "--folds", "2", "--repeats", "1", "--seed", "0", "--format", "csv"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: methods listed more than once: smote\n"

    def test_dataset_listed_twice(self, capsys):
        assert main(["benchmark", "--datasets", "moons,moons", "--methods", "random",
                     "--folds", "2", "--repeats", "1", "--seed", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: shapes listed more than once: moons\n"

    def test_imbalanced_allowed_here(self, capsys):
        assert main(["benchmark", "--methods", "imbalanced", "--datasets",
                     "moons", "--folds", "2", "--repeats", "1", "--seed", "0",
                     "--format", "csv"]) == 0
        assert "moons,imbalanced,f1" in capsys.readouterr().out


class TestDistanceDemo:
    def test_reference_distances(self, capsys):
        assert main(["distance-demo"]) == 0
        out = capsys.readouterr().out
        assert "d1 = 0.7071" in out
        assert "d2 = 0.5774" in out

    def test_model_distance_curve_nonincreasing(self, capsys):
        assert main(["distance-demo", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        vals = [float(line.split(":")[1]) for line in out.splitlines()
                if line.strip().startswith("p=")]
        assert len(vals) == 4
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("seed_args", [[], ["--seed", "0"]])
    def test_prints_the_pinned_text(self, capsys, seed_args):
        assert main(["distance-demo", *seed_args]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "d1 = 0.7071 (origin to the edge between two standard basis points)",
            "d2 = 0.5774 (origin to the triangle spanned by all three)",
            "mean distance from a majority cloud to the minority model (k=4, seed=0):",
            "  p=1: 1.4078",
            "  p=2: 1.4047",
            "  p=3: 1.4047",
            "  p=max: 1.4047",
        ]


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "simbal.cli", "distance-demo"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "d1 = 0.7071" in proc.stdout
