import struct
import zlib
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from subsel.dataset import (
    FeatureMatrix,
    LabeledDataset,
    LabelVector,
    SplitSpec,
    gen_synthetic,
    largest_remainder_quota,
    load_features,
    load_labels,
    round_half_up,
    save_features,
    save_labels,
    split,
    split_indices,
)
from subsel.errors import (
    FeatureFormatError,
    LabelParseError,
    TruncationError,
    ValidationError,
)


class TestFeatureFile:
    def test_one_by_one_file_is_34_bytes(self, tmp_path):
        # header (8 magic + 2 version + 8 n + 8 d) + 1 float32 + crc32
        expected = 8 + 2 + 8 + 8 + 1 * 1 * 4 + 4
        path = tmp_path / "one.bin"
        save_features(FeatureMatrix(np.array([[0.0]], dtype=np.float32)), path)
        assert path.stat().st_size == expected == 34

    def test_known_payload_round_trip(self, tmp_path):
        m = FeatureMatrix(np.array([[1, 0], [0, 1], [1, 1]], dtype=np.float32))
        path = tmp_path / "m.bin"
        save_features(m, path)
        back = load_features(path)
        assert back.n == 3 and back.d == 2
        assert np.array_equal(back.values, m.values)

    def test_round_trip_is_bit_exact_for_random_matrices(self, tmp_path):
        rng = np.random.default_rng(7)
        for t in range(100):
            n = int(rng.integers(1, 21))
            d = int(rng.integers(1, 9))
            m = FeatureMatrix(rng.standard_normal((n, d)).astype(np.float32) * 100)
            path = tmp_path / f"rt{t}.bin"
            save_features(m, path)
            back = load_features(path)
            assert back.values.dtype == np.float32
            assert np.array_equal(back.values, m.values)

    def test_large_matrix_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        m = FeatureMatrix(rng.standard_normal((1000, 128)).astype(np.float32))
        path = tmp_path / "big.bin"
        save_features(m, path)
        assert np.array_equal(load_features(path).values, m.values)

    def test_double_save_is_byte_identical(self, tmp_path):
        m = FeatureMatrix(np.random.default_rng(0).standard_normal((17, 5)))
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_features(m, a)
        save_features(m, b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic_is_a_format_error(self, tmp_path):
        path = tmp_path / "bad.bin"
        good = struct.pack("<8sHQQ", b"SUBSELF1", 1, 1, 1)
        payload = struct.pack("<f", 0.0)
        crc = struct.pack("<I", zlib.crc32(payload))
        path.write_bytes(b"XXXXXXXX" + good[8:] + payload + crc)
        with pytest.raises(FeatureFormatError):
            load_features(path)

    def test_bad_version_is_a_format_error(self, tmp_path):
        path = tmp_path / "bad.bin"
        payload = struct.pack("<f", 0.0)
        blob = (struct.pack("<8sHQQ", b"SUBSELF1", 9, 1, 1) + payload
                + struct.pack("<I", zlib.crc32(payload)))
        path.write_bytes(blob)
        with pytest.raises(FeatureFormatError):
            load_features(path)

    def test_size_mismatch_is_a_truncation_error(self, tmp_path):
        path = tmp_path / "short.bin"
        payload = struct.pack("<f", 0.0)  # declares 2x2 but carries one value
        blob = (struct.pack("<8sHQQ", b"SUBSELF1", 1, 2, 2) + payload
                + struct.pack("<I", zlib.crc32(payload)))
        path.write_bytes(blob)
        with pytest.raises(TruncationError):
            load_features(path)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(n=st.integers(1, 6), d=st.integers(1, 4), data=st.data())
    def test_any_cut_or_one_added_byte_is_a_truncation_error(self, tmp_path_factory,
                                                             n, d, data):
        path = tmp_path_factory.mktemp("cut") / "m.bin"
        save_features(FeatureMatrix(np.arange(n * d, dtype=np.float32).reshape(n, d)),
                      path)
        blob = path.read_bytes()
        if data.draw(st.booleans(), label="cut"):
            blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            blob += bytes([data.draw(st.integers(0, 255), label="added byte")])
        path.write_bytes(blob)
        with pytest.raises(TruncationError):
            load_features(path)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(values=st.tuples(st.integers(1, 12), st.integers(1, 9)).flatmap(
        lambda shape: arrays(np.float32, shape, elements=st.floats(
            width=32, allow_nan=False, allow_infinity=False))))
    def test_any_shape_and_float32_payload_round_trips_bit_exactly(
            self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("rt") / "m.bin"
        save_features(FeatureMatrix(values), path)
        back = load_features(path).values
        assert back.dtype == np.float32 and back.shape == values.shape
        assert back.tobytes() == values.tobytes()  # -0.0 and subnormals too

    def test_checksum_mismatch_is_a_format_error(self, tmp_path):
        path = tmp_path / "crc.bin"
        payload = struct.pack("<f", 1.5)
        blob = (struct.pack("<8sHQQ", b"SUBSELF1", 1, 1, 1) + payload
                + struct.pack("<I", 0xDEADBEEF))
        path.write_bytes(blob)
        with pytest.raises(FeatureFormatError):
            load_features(path)

    def test_non_finite_payload_is_a_validation_error(self, tmp_path):
        path = tmp_path / "nan.bin"
        payload = struct.pack("<f", float("nan"))
        blob = (struct.pack("<8sHQQ", b"SUBSELF1", 1, 1, 1) + payload
                + struct.pack("<I", zlib.crc32(payload)))
        path.write_bytes(blob)
        with pytest.raises(ValidationError):
            load_features(path)

    def test_unwritable_path_raises_os_error(self, tmp_path):
        m = FeatureMatrix(np.zeros((1, 1), dtype=np.float32))
        with pytest.raises(OSError):
            save_features(m, tmp_path / "missing" / "x.bin")


class TestCsvFallback:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        m = FeatureMatrix(rng.standard_normal((12, 4)).astype(np.float32))
        path = tmp_path / "m.csv"
        save_features(m, path)
        assert np.array_equal(load_features(path).values, m.values)

    def test_column_count_enforced_from_first_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(FeatureFormatError):
            load_features(path)

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        # float() would read "1_0" as 10 and the Arabic-Indic digit three as 3
        for content in ("1.0,abc", "1_0,2", "\u0663,4"):
            path.write_text(f"0,0\n{content}\n", encoding="utf-8")
            with pytest.raises(FeatureFormatError) as err:
                load_features(path)
            assert str(err.value).startswith(f"{path}: line 2: ")


class TestLabels:
    def test_basic(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("0\n1\n0\n")
        v = load_labels(path)
        assert v.labels.tolist() == [0, 1, 0]
        assert v.n_classes == 2

    def test_unobserved_lower_classes_allowed_at_load(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("2\n2\n2\n")
        v = load_labels(path)
        assert v.labels.tolist() == [2, 2, 2]
        assert v.n_classes == 3
        features = FeatureMatrix(np.zeros((3, 1), dtype=np.float32))
        with pytest.raises(ValidationError):
            LabeledDataset(features, v).require_all_classes()

    def test_non_integer_line_reports_line_number(self, tmp_path):
        # int() would read all but "cat" and "1.0": "1_0" as 10, "+2" as 2,
        # the Arabic-Indic digit three as 3
        path = tmp_path / "l.txt"
        for content in ("cat", "1_0", "+2", "\u0663", "1.0", "1 0"):
            path.write_text(f"0\n{content}\n", encoding="utf-8")
            with pytest.raises(LabelParseError) as err:
                load_labels(path)
            assert (err.value.line_number, err.value.content) == (2, content)
            assert str(err.value).startswith(f"{path}: line 2: ")

    def test_lines_end_only_at_line_feeds(self, tmp_path):
        # str.splitlines() also breaks at each of these; text mode reads
        # \r\n as \n
        path = tmp_path / "l.txt"
        for sep in ("\x0c", "\x1c", "\x1e", "\x85", "\u2028"):
            path.write_text(f"0{sep}1\n", encoding="utf-8")
            with pytest.raises(LabelParseError) as err:
                load_labels(path)
            assert (err.value.line_number, err.value.content) == (1, f"0{sep}1")
            path.write_text(f"0{sep}\nabc\n", encoding="utf-8")
            with pytest.raises(LabelParseError) as err:
                load_labels(path)
            assert (err.value.line_number, err.value.content) == (2, "abc")
        path.write_bytes(b"0\r\n1\r\n0\r\n")
        assert load_labels(path).labels.tolist() == [0, 1, 0]

    def test_negative_label_rejected(self, tmp_path):
        path = tmp_path / "l.txt"
        for content in ("-1", "-0"):
            path.write_text(f"0\n{content}\n")
            with pytest.raises(LabelParseError) as err:
                load_labels(path)
            assert err.value.line_number == 2

    def test_labels_beyond_int64_name_the_line(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("0\n9223372036854775807\n007\n")
        assert load_labels(path).labels.tolist() == [0, 2 ** 63 - 1, 7]
        for content in ("9223372036854775808", "100000000000000000000", "9" * 5000):
            path.write_text(f"0\n{content}\n")
            with pytest.raises(ValidationError,
                               match=f"line 2: label {content} exceeds the int64 range"):
                load_labels(path)

    def test_more_classes_than_instances_rejected_before_counting(self):
        features = FeatureMatrix(np.zeros((20, 1), dtype=np.float32))
        labels = LabelVector(np.append(np.arange(19), 10 ** 9))
        with mock.patch("numpy.bincount", side_effect=AssertionError) as count:
            with pytest.raises(ValidationError, match="labels run to 1000000000, more "
                                                      "classes than the 20 instances"):
                LabeledDataset(features, labels).require_all_classes()
        assert count.call_count == 0

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("")
        with pytest.raises(ValidationError):
            load_labels(path)

    def test_save_load_round_trip(self, tmp_path):
        v = LabelVector(np.array([0, 2, 1, 1, 0]))
        path = tmp_path / "l.txt"
        save_labels(v, path)
        assert np.array_equal(load_labels(path).labels, v.labels)

    def test_saved_bytes_format_each_label_in_decimal(self, tmp_path):
        labels = np.array([0, 7, 10, 1234567, 2 ** 63 - 1, 3], dtype=np.int64)
        path = tmp_path / "l.txt"
        save_labels(LabelVector(labels), path)
        assert path.read_bytes() == "".join(f"{x}\n" for x in labels).encode()
        assert path.read_bytes().splitlines()[4] == b"9223372036854775807"


class TestSplit:
    def _dataset(self, n, labels=None):
        rng = np.random.default_rng(3)
        features = FeatureMatrix(rng.standard_normal((n, 2)))
        if labels is None:
            labels = np.arange(n) % 2
        return LabeledDataset(features, LabelVector(np.asarray(labels)))

    def test_half_up_rounding_sizes(self):
        ds = self._dataset(10)
        train, hold = split(ds, SplitSpec(holdout_fraction=0.3, seed=7))
        assert hold.n == 3 and train.n == 7

    @pytest.mark.parametrize("n,fraction,m", [(25, 0.58, 15), (50, 0.29, 15)])
    def test_holdout_size_rounds_the_exact_product(self, n, fraction, m):
        # in floating point 25 * 0.58 is 14.499999999999998, 50 * 0.29 likewise
        _, ho = split_indices(LabelVector(np.zeros(n, dtype=np.int64)),
                              SplitSpec(holdout_fraction=fraction, seed=0))
        assert ho.size == m

    def test_partition_is_disjoint_and_exhaustive(self):
        ds = self._dataset(23)
        tr, ho = split_indices(ds.labels, SplitSpec(holdout_fraction=0.4, seed=5))
        assert np.intersect1d(tr, ho).size == 0
        assert np.array_equal(np.sort(np.concatenate((tr, ho))), np.arange(23))

    def test_stratified_split_balances_classes(self):
        labels = np.array([0] * 50 + [1] * 50)
        ds = self._dataset(100, labels)
        _, hold = split(ds, SplitSpec(holdout_fraction=0.2, seed=1, stratified=True))
        counts = np.bincount(hold.labels.labels)
        assert counts.tolist() == [10, 10]

    def test_stratified_proportion_within_one_instance(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(10, 60))
            labels = rng.integers(0, 3, size=n)
            labels[:3] = [0, 1, 2]
            frac = float(rng.uniform(0.15, 0.5))
            tr, ho = split_indices(LabelVector(labels),
                                   SplitSpec(holdout_fraction=frac, seed=4))
            # the share of the m holdout rows, count * m / n: count * frac
            # can be missed by more than one (see test_split_invariants)
            m = ho.size
            for c in range(3):
                total = int((labels == c).sum())
                got = int((labels[ho] == c).sum())
                assert abs(got - total * m / n) <= 1.0

    def test_deterministic_per_seed(self):
        ds = self._dataset(31)
        spec = SplitSpec(holdout_fraction=0.25, seed=12)
        a = split_indices(ds.labels, spec)
        b = split_indices(ds.labels, spec)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = split_indices(ds.labels, SplitSpec(holdout_fraction=0.25, seed=13))
        assert not np.array_equal(a[1], c[1])

    @pytest.mark.parametrize("stratified", [True, False])
    def test_same_draws_as_the_per_class_permutation_loop(self, stratified):
        # the RNG calls of the split before stratified_draw: one permutation
        # per class in class order, or one of range(n) when unstratified
        rng = np.random.default_rng(15)
        for _ in range(20):
            n = int(rng.integers(10, 80))
            labels = rng.integers(0, 4, size=n)
            frac = float(rng.uniform(0.1, 0.6))
            seed = int(rng.integers(0, 1000))
            m = round_half_up(Fraction(str(frac)) * n)
            draw = np.random.default_rng(seed)
            if stratified:
                quota = largest_remainder_quota(np.bincount(labels), m)
                parts = [draw.permutation(np.flatnonzero(labels == c))[:quota[c]]
                         for c in range(quota.size)]
                expected = np.sort(np.concatenate(parts))
            else:
                expected = np.sort(draw.permutation(n)[:m])
            spec = SplitSpec(holdout_fraction=frac, seed=seed, stratified=stratified)
            tr, ho = split_indices(LabelVector(labels), spec)
            assert np.array_equal(ho, expected)
            assert np.array_equal(tr, np.setdiff1d(np.arange(n), expected))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(labels=st.lists(st.integers(0, 4), min_size=2, max_size=80),
           fraction=st.floats(0.01, 0.99), seed=st.integers(0, 2 ** 32 - 1),
           stratified=st.booleans())
    def test_split_invariants(self, labels, fraction, seed, stratified):
        # each class gets within one instance of its proportional share of
        # the m holdout rows, count * m / n; count * fraction can be off by
        # more (counts [1, 1, 37, 1] at fraction 0.785: m = 31, quotas
        # [1, 1, 28, 1], the third class 1.05 below 37 * 0.785)
        labels = np.array(labels)
        n, m = labels.size, round_half_up(Fraction(str(fraction)) * labels.size)
        spec = SplitSpec(holdout_fraction=fraction, seed=seed, stratified=stratified)
        if m in (0, n):
            with pytest.raises(ValidationError, match="leaves an empty side"):
                split_indices(LabelVector(labels), spec)
            return
        tr, ho = split_indices(LabelVector(labels), spec)
        assert np.intersect1d(tr, ho).size == 0
        assert np.array_equal(np.sort(np.concatenate((tr, ho))), np.arange(n))
        assert ho.size == m
        if stratified:
            counts = np.bincount(labels)
            held = np.bincount(labels[ho], minlength=counts.size)
            assert np.all(np.abs(held - counts * m / n) <= 1.0)

    def test_empty_side_rejected(self):
        ds = self._dataset(2)
        with pytest.raises(ValidationError):
            split(ds, SplitSpec(holdout_fraction=0.1, seed=0, stratified=False))

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValidationError):
            SplitSpec(holdout_fraction=0.0)
        with pytest.raises(ValidationError):
            SplitSpec(holdout_fraction=1.0)


class TestSynthetic:
    def test_exact_balance(self):
        ds = gen_synthetic(6, 2, 3, 1.0, 0)
        assert np.bincount(ds.labels.labels).tolist() == [2, 2, 2]

    def test_balance_within_one(self):
        ds = gen_synthetic(11, 3, 4, 1.0, 0)
        counts = np.bincount(ds.labels.labels)
        assert counts.max() - counts.min() <= 1

    def test_zero_separation_rejected(self):
        with pytest.raises(ValidationError):
            gen_synthetic(10, 2, 2, 0.0, 0)

    def test_n_below_class_count_rejected(self):
        with pytest.raises(ValidationError):
            gen_synthetic(2, 2, 3, 1.0, 0)

    def test_deterministic_per_seed(self):
        a = gen_synthetic(40, 5, 2, 2.0, 9)
        b = gen_synthetic(40, 5, 2, 2.0, 9)
        assert np.array_equal(a.features.values, b.features.values)
        c = gen_synthetic(40, 5, 2, 2.0, 10)
        assert not np.array_equal(a.features.values, c.features.values)


def test_round_half_up_is_exact_on_fractions():
    assert round_half_up(Fraction(29, 2)) == 15
    assert round_half_up(Fraction(29, 2) - Fraction(1, 10 ** 20)) == 14  # float: 15


def test_round_half_up():
    assert round_half_up(3.5) == 4
    assert round_half_up(2.5) == 3  # not banker's rounding
    assert round_half_up(2.49) == 2
    assert round_half_up(3.0) == 3


class TestLargestRemainderQuota:
    def test_exact_remainder_ties_go_to_the_lower_group(self):
        # all three exact remainders are 26/39; floats make them differ
        assert largest_remainder_quota([2, 35, 2], 13).tolist() == [1, 12, 0]

    @pytest.mark.parametrize("total", [-1, 40])
    def test_total_outside_the_pool_rejected(self, total):
        with pytest.raises(ValidationError, match="cannot apportion"):
            largest_remainder_quota([2, 35, 2], total)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(counts=st.lists(st.integers(0, 60), min_size=1, max_size=8)
           .filter(lambda c: sum(c) > 0), data=st.data())
    def test_matches_the_fraction_reference(self, counts, data):
        total = data.draw(st.integers(0, sum(counts)))
        shares = [Fraction(c * total, sum(counts)) for c in counts]
        floors = [int(s) for s in shares]
        order = sorted(range(len(counts)), key=lambda g: (-(shares[g] - floors[g]), g))
        for g in order[:total - sum(floors)]:
            floors[g] += 1
        quota = largest_remainder_quota(counts, total)
        assert quota.tolist() == floors
        assert (quota <= np.array(counts)).all()
