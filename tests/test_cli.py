import pytest

from subsel.cli import main
from subsel.dataset import load_features, load_labels
from subsel.harness import parse_csv
from subsel.kernels import cosine_similarity
from subsel.objectives import FacilityLocation
from subsel.optimize import BudgetSpec, greedy_lazy


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


class TestSelect:
    def test_indices_match_the_library_selection(self, synth_files, tmp_path):
        features, _ = synth_files
        out = tmp_path / "idx.csv"
        rc = main(["select", "--features", str(features), "--objective", "fl",
                   "--budget", "12", "--out", str(out)])
        assert rc == 0
        got = [int(line) for line in out.read_text().splitlines()]
        direct = greedy_lazy(
            FacilityLocation(cosine_similarity(load_features(features))),
            BudgetSpec(12))
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
        assert capsys.readouterr().err.startswith("error: --step must be >= 1")
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
