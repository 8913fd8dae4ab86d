from unittest import mock

import pytest

from conftest import no_room_for_dense_kernels
from subsel.cli import main
from subsel.dataset import FeatureMatrix, load_features, load_labels, save_features
from subsel.harness import parse_csv
from subsel.kernels import cosine_similarity
from subsel.objectives import FacilityLocation
from subsel.optimize import greedy_lazy


@pytest.fixture()
def synth_files(tmp_path):
    features = tmp_path / "f.bin"
    labels = tmp_path / "l.txt"
    rc = main(["gen-synth", "--out", str(features), "--labels", str(labels),
               "--n", "90", "--d", "6", "--classes", "3", "--sep", "3",
               "--seed", "5"])
    assert rc == 0
    return features, labels


class TestGenSynth:
    def test_outputs_load_and_agree(self, synth_files):
        features, labels = synth_files
        m = load_features(features)
        v = load_labels(labels)
        assert m.n == 90 and m.d == 6
        assert v.n_classes == 3 and len(v) == 90

    def test_negative_seed_fails_with_an_error_line(self, tmp_path, capsys):
        features, labels = tmp_path / "f.bin", tmp_path / "l.txt"
        rc = main(["gen-synth", "--out", str(features), "--labels", str(labels),
                   "--n", "30", "--d", "2", "--classes", "2", "--sep", "3",
                   "--seed", "-1"])
        assert rc == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not features.exists() and not labels.exists()


class TestSelect:
    def test_indices_match_the_library_selection(self, synth_files, tmp_path):
        features, _ = synth_files
        out = tmp_path / "idx.csv"
        rc = main(["select", "--features", str(features), "--objective", "fl",
                   "--budget", "12", "--out", str(out)])
        assert rc == 0
        got = [int(line) for line in out.read_text().splitlines()]
        direct = greedy_lazy(
            FacilityLocation(cosine_similarity(load_features(features))), 12)
        assert got == direct.indices

    def test_sparsified_selection_runs(self, synth_files, tmp_path):
        features, _ = synth_files
        out = tmp_path / "idx.csv"
        rc = main(["select", "--features", str(features), "--objective", "fl",
                   "--budget", "8", "--knn-sparsify", "15", "--out", str(out)])
        assert rc == 0
        got = [int(line) for line in out.read_text().splitlines()]
        assert len(got) == 8 and len(set(got)) == 8

    def test_dm_selection(self, synth_files, tmp_path):
        features, _ = synth_files
        out = tmp_path / "idx.csv"
        rc = main(["select", "--features", str(features), "--objective", "dm",
                   "--budget", "5", "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 5

    def test_sparsify_with_dm_fails(self, synth_files, tmp_path, capsys):
        features, _ = synth_files
        rc = main(["select", "--features", str(features), "--objective", "dm",
                   "--budget", "5", "--knn-sparsify", "3",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1

    def test_dense_kernel_without_room_fails_with_an_error_line(self, synth_files, tmp_path,
                                                                capsys):
        features, _ = synth_files
        out = tmp_path / "idx.txt"
        with no_room_for_dense_kernels():
            rc = main(["select", "--features", str(features), "--objective", "fl",
                       "--budget", "5", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a dense 90 x 90 kernel needs 32,400 bytes")
        assert "--knn-sparsify" in err
        assert not out.exists()

    def test_non_utf8_csv_fails_with_an_error_line(self, tmp_path, capsys):
        features = tmp_path / "x.csv"
        features.write_bytes(b"0.5,1\n0.25,\xff\n")
        out = tmp_path / "idx.txt"
        rc = main(["select", "--features", str(features), "--objective", "fl",
                   "--budget", "1", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {features}: not UTF-8 text: byte 0xff at offset 11\n")
        assert not out.exists()

    def test_unwritable_output_names_the_target(self, synth_files, tmp_path, capsys):
        features, _ = synth_files
        out = tmp_path / "missing" / "idx.txt"
        rc = main(["select", "--features", str(features), "--objective", "dm",
                   "--budget", "3", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: cannot write {out}: No such file or directory\n")
        assert not out.parent.exists()

    def test_missing_file_reports_error(self, tmp_path, capsys):
        rc = main(["select", "--features", str(tmp_path / "nope.bin"),
                   "--objective", "fl", "--budget", "3",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1


class TestSweepCommand:
    def test_writes_expected_rows(self, synth_files, tmp_path):
        features, labels = synth_files
        out = tmp_path / "curve.csv"
        rc = main(["sweep", "--features", str(features), "--labels", str(labels),
                   "--holdout-frac", "0.3", "--methods", "fl,random",
                   "--step", "25", "--k", "3", "--seeds", "1,2",
                   "--out", str(out)])
        assert rc == 0
        records = parse_csv(out)
        assert {r.method for r in records} == {"fl", "random"}
        assert {r.x for r in records} == {25, 50, 75, 100}
        assert all(0.0 <= r.accuracy <= 1.0 for r in records)

    def test_byte_identical_across_runs(self, synth_files, tmp_path):
        features, labels = synth_files
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--features", str(features), "--labels", str(labels),
                "--holdout-frac", "0.3", "--step", "50", "--seeds", "1,2"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("step", ["0", "-5"])
    def test_step_below_one_fails_with_an_error_line(self, synth_files, tmp_path,
                                                      capsys, step):
        features, labels = synth_files
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--features", str(features), "--labels", str(labels),
                   "--holdout-frac", "0.3", "--step", step, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: --step must be in [1, 100], got {step}\n"
        assert not out.exists()

    def test_step_above_100_fails_with_an_error_line(self, synth_files, tmp_path, capsys):
        features, labels = synth_files
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--features", str(features), "--labels", str(labels),
                   "--holdout-frac", "0.3", "--step", "101", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: --step must be in [1, 100], got 101\n"
        assert not out.exists()

    @pytest.mark.parametrize("methods", ["random", "fl,dm,random"])
    def test_random_arm_without_seeds_fails_with_an_error_line(self, synth_files, tmp_path,
                                                               capsys, methods):
        features, labels = synth_files
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--features", str(features), "--labels", str(labels),
                   "--holdout-frac", "0.3", "--methods", methods, "--seeds", ",",
                   "--out", str(out)])
        assert rc == 1
        assert "needs at least one seed" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("flags", [["--methods", "fl,random,fl"],
                                       ["--seeds", "1,2,1"]])
    def test_repeated_method_or_seed_fails_with_an_error_line(self, synth_files,
                                                              tmp_path, capsys, flags):
        features, labels = synth_files
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--features", str(features), "--labels", str(labels),
                   "--holdout-frac", "0.3", "--step", "50", "--k", "1", *flags,
                   "--out", str(out)])
        assert rc == 1
        assert "given more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_fails_with_an_error_line(self, synth_files, tmp_path, capsys):
        features, labels = synth_files
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--features", str(features), "--labels", str(labels),
                   "--holdout-frac", "0.3", "--seeds", "-1", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == ("error: sweep seed must be in "
                                           "[0, 4294967295], got -1\n")
        assert not out.exists()

    def test_seed_past_32_bits_fails_with_an_error_line(self, synth_files, tmp_path,
                                                        capsys):
        # [2**32 + 5, 20] would draw [5, 1, 20]'s stream: seed 5 at fraction 0.05
        features, labels = synth_files
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--features", str(features), "--labels", str(labels),
                   "--holdout-frac", "0.3", "--seeds", "1,4294967301", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == ("error: sweep seed must be in "
                                           "[0, 4294967295], got 4294967301\n")
        assert not out.exists()

    def test_non_utf8_labels_fail_with_an_error_line(self, synth_files, tmp_path,
                                                     capsys):
        features, labels = synth_files
        labels.write_bytes(b"\xff" + labels.read_bytes())
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--features", str(features), "--labels", str(labels),
                   "--holdout-frac", "0.3", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {labels}: not UTF-8 text: byte 0xff at offset 0\n")
        assert not out.exists()

    def test_label_beyond_int64_fails_with_an_error_line(self, synth_files, tmp_path,
                                                         capsys):
        features, labels = synth_files
        lines = labels.read_text(encoding="utf-8").splitlines()
        lines[2] = "100000000000000000000"
        labels.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--features", str(features), "--labels", str(labels),
                   "--holdout-frac", "0.3", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {labels}: line 3: label 100000000000000000000 exceeds the int64 "
            "range\n")
        assert not out.exists()

    def test_fractions_below_k_are_skipped_on_a_small_pool(self, tmp_path):
        features, labels = tmp_path / "f.bin", tmp_path / "l.txt"
        assert main(["gen-synth", "--out", str(features), "--labels", str(labels),
                     "--n", "60", "--d", "4", "--classes", "2", "--sep", "3",
                     "--seed", "7"]) == 0
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--features", str(features), "--labels", str(labels),
                   "--holdout-frac", "0.3", "--out", str(out)])  # --step 5 --k 5
        assert rc == 0
        records = parse_csv(out)
        assert min(r.labeled_count for r in records) >= 5
        assert min(r.x for r in records) == 15  # 5% and 10% round to 2 and 4
        assert max(r.x for r in records) == 100

    def test_whole_holdout_fails_with_an_error_line(self, synth_files, tmp_path, capsys):
        features, labels = synth_files
        capsys.readouterr()
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--features", str(features), "--labels", str(labels),
                   "--holdout-frac", "1", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == ("error: holdout_fraction 1.0 leaves an empty "
                                           "side for n=90\n")
        assert not out.exists()

    def test_k_above_every_budget_fails_with_an_error_line(self, tmp_path, capsys):
        features, labels = tmp_path / "f.bin", tmp_path / "l.txt"
        assert main(["gen-synth", "--out", str(features), "--labels", str(labels),
                     "--n", "60", "--d", "4", "--classes", "2", "--sep", "3",
                     "--seed", "7"]) == 0
        capsys.readouterr()
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--features", str(features), "--labels", str(labels),
                   "--holdout-frac", "0.3", "--k", "100", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == ("error: every fraction's budget is below "
                                           "k=100 for training size 42\n")
        assert not out.exists()


class TestAlCommand:
    def test_writes_paired_curves(self, synth_files, tmp_path):
        features, labels = synth_files
        out = tmp_path / "al.csv"
        rc = main(["al", "--features", str(features), "--labels", str(labels),
                   "--holdout-frac", "0.3", "--selectors", "fl,us,random",
                   "--uncertainty", "lc", "--batch-pct", "10", "--beta-pct", "40",
                   "--rounds", "3", "--seeds", "1,2", "--out", str(out)])
        assert rc == 0
        records = parse_csv(out)
        assert len(records) == 3 * 2 * 3
        for seed in (1, 2):
            first = {r.accuracy for r in records if r.seed == seed and r.x == 1}
            assert len(first) == 1

    def test_byte_identical_across_runs(self, synth_files, tmp_path):
        features, labels = synth_files
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["al", "--features", str(features), "--labels", str(labels),
                "--holdout-frac", "0.3", "--selectors", "dm,random",
                "--batch-pct", "15", "--beta-pct", "50", "--rounds", "2",
                "--seeds", "3"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_selector_fails(self, synth_files, tmp_path, capsys):
        features, labels = synth_files
        rc = main(["al", "--features", str(features), "--labels", str(labels),
                   "--holdout-frac", "0.3", "--selectors", "qbc",
                   "--batch-pct", "10", "--beta-pct", "40", "--rounds", "2",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1

    @pytest.mark.parametrize("flags", [["--selectors", "us,fl,us"],
                                       ["--seeds", "2,2"]])
    def test_repeated_selector_or_seed_fails_with_an_error_line(
            self, synth_files, tmp_path, capsys, flags):
        features, labels = synth_files
        out = tmp_path / "al.csv"
        rc = main(["al", "--features", str(features), "--labels", str(labels),
                   "--holdout-frac", "0.3", "--batch-pct", "10", "--beta-pct", "40",
                   "--rounds", "2", *flags, "--out", str(out)])
        assert rc == 1
        assert "given more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_fails_with_an_error_line(self, synth_files, tmp_path, capsys):
        features, labels = synth_files
        out = tmp_path / "al.csv"
        rc = main(["al", "--features", str(features), "--labels", str(labels),
                   "--holdout-frac", "0.3", "--batch-pct", "10", "--beta-pct", "40",
                   "--rounds", "2", "--seeds", "-1", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_zero_batch_percent_fails_with_an_error_line(self, synth_files, tmp_path,
                                                         capsys):
        features, labels = synth_files
        out = tmp_path / "al.csv"
        rc = main(["al", "--features", str(features), "--labels", str(labels),
                   "--holdout-frac", "0.3", "--batch-pct", "0", "--beta-pct", "40",
                   "--rounds", "2", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: --batch-pct must be in (0, 100], got 0.0\n"
        assert not out.exists()

    def test_single_class_labels_fail_with_an_error_line(self, synth_files, tmp_path,
                                                        capsys):
        features, labels = synth_files
        labels.write_text("0\n" * 90, encoding="utf-8")
        rc = main(["al", "--features", str(features), "--labels", str(labels),
                   "--holdout-frac", "0.3", "--selectors", "fl",
                   "--batch-pct", "10", "--beta-pct", "40", "--rounds", "2",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: logistic regression needs at least two classes")


class TestFlagChecks:
    """A bad share or count fails naming its flag, before any file is read."""

    @pytest.mark.parametrize("command,flags,message", [
        ("al", ["--batch-pct", "0"], "--batch-pct must be in (0, 100], got 0.0"),
        ("al", ["--beta-pct", "100.5"], "--beta-pct must be in (0, 100], got 100.5"),
        ("al", ["--rounds", "0"], "--rounds must be >= 1, got 0"),
        ("al", ["--holdout-frac", "0"], "--holdout-frac must be in (0, 1], got 0.0"),
        ("sweep", ["--holdout-frac", "1.5"], "--holdout-frac must be in (0, 1], got 1.5"),
        ("sweep", ["--holdout-frac", "nan"], "--holdout-frac must be a finite number, got nan"),
        ("al", ["--seed-size", "0"], "--seed-size must be >= 1, got 0"),
        ("al", ["--seed-size", "-5"], "--seed-size must be >= 1, got -5"),
        ("sweep", ["--k", "0"], "--k must be >= 1, got 0"),
    ], ids=["al batch-pct", "al beta-pct", "al rounds", "al holdout-frac",
            "sweep holdout-frac", "sweep holdout-frac nan", "al seed-size 0",
            "al seed-size -5", "sweep k"])
    def test_bad_flag_fails_naming_it(self, tmp_path, capsys, command, flags, message):
        defaults = {"--holdout-frac": "0.3", "--batch-pct": "10", "--beta-pct": "40",
                    "--rounds": "2"} if command == "al" else {"--holdout-frac": "0.3"}
        defaults.update(zip(flags[::2], flags[1::2]))
        missing = tmp_path / "missing"
        rc = main([command, "--features", str(missing), "--labels", str(missing),
                   "--out", str(tmp_path / "out.csv"),
                   *[part for flag in defaults.items() for part in flag]])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestAlOnAZeroRow:
    """An all-zero pool row: fl's cosine kernel is undefined on it."""

    @pytest.fixture()
    def zero_row_files(self, synth_files):
        features, labels = synth_files
        values = load_features(features).values.copy()
        values[50] = 0.0
        save_features(FeatureMatrix(values), features)
        return features, labels

    def al(self, files, out, selectors):
        features, labels = files
        return main(["al", "--features", str(features), "--labels", str(labels),
                     "--holdout-frac", "0.3", "--selectors", selectors,
                     "--batch-pct", "10", "--beta-pct", "40", "--rounds", "2",
                     "--seeds", "1", "--split-seed", "0", "--out", str(out)])

    def test_fl_fails_before_any_fit(self, zero_row_files, tmp_path, capsys):
        out = tmp_path / "al.csv"
        with mock.patch("subsel.active.logreg_fit", side_effect=AssertionError) as fit:
            rc = self.al(zero_row_files, out, "dm,us,random,fl")
        assert rc == 1
        assert fit.call_count == 0
        # file row 50 is training-pool row 33 under this split
        assert capsys.readouterr().err == (
            "error: cosine similarity undefined for all-zero row 33\n")
        assert not out.exists()

    def test_other_selectors_still_run(self, zero_row_files, tmp_path):
        out = tmp_path / "al.csv"
        assert self.al(zero_row_files, out, "dm,us,random") == 0
        assert {r.method for r in parse_csv(out)} == {"dm", "us", "random"}
