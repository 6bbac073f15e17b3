"""CSV round trips, normalization, stratified splitting, and the synthetic
waveform generator (including the separability sanity oracle)."""

import warnings

import numpy as np
import pytest

from timecaps import data
from timecaps.data import (
    Dataset,
    LabeledSignal,
    filter_min_class_count,
    load_csv,
    normalize,
    save_csv,
    split,
    synth_waveforms,
)
from timecaps.errors import DataFormatError


class TestLoadCsv:
    def test_basic_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("2,0.1,0.2,0.3\n")
        ds = load_csv(p)
        assert ds.L == 3
        assert ds.signals[0].label == 2
        assert np.allclose(ds.signals[0].samples, [0.1, 0.2, 0.3])

    def test_ragged_rows_name_offender(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0,1,2,3,4\n1,1,2,3\n")
        with pytest.raises(DataFormatError, match="row 2"):
            load_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(DataFormatError):
            load_csv(p)

    def test_non_numeric_sample(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0,1.0,abc\n")
        with pytest.raises(DataFormatError, match="row 1"):
            load_csv(p)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_sample_names_row_and_column(self, tmp_path, bad):
        # negative control: these rows used to load and normalize to all-NaN
        p = tmp_path / "d.csv"
        p.write_text(f"1,0.5,0.25,3.0\n0,1.0,{bad},2.0\n")
        with pytest.raises(DataFormatError, match="row 2 column 3"):
            load_csv(p)

    def test_non_integer_label(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,1.0,2.0\n")
        with pytest.raises(DataFormatError):
            load_csv(p)

    def test_large_row_count(self, tmp_path):
        p = tmp_path / "d.csv"
        rows = "\n".join(f"{i % 3},1.0,2.0,3.0,4.0" for i in range(4522))
        p.write_text(rows + "\n")
        assert len(load_csv(p)) == 4522

    def test_roundtrip_exact(self, tmp_path, rng):
        sigs = [LabeledSignal(rng.standard_normal(9) * 10.0 ** float(rng.integers(-8, 8)),
                              int(rng.integers(0, 3)))
                for _ in range(40)]
        ds = Dataset(sigs, 9, 3)
        p = tmp_path / "d.csv"
        save_csv(ds, p)
        back = load_csv(p)
        assert back.L == 9 and len(back) == 40
        for a, b in zip(ds.signals, back.signals):
            assert a.label == b.label
            assert np.array_equal(a.samples, b.samples)

    def test_out_of_range_label_names_file_and_row(self, tmp_path):
        # negative control: this used to surface as Dataset's "signal 2 label
        # 7 out of range [0, 3)", a 0-based index over non-blank rows
        p = tmp_path / "d.csv"
        p.write_text("0,1,2\n1,3,4\n\n7,5,6\n")
        with pytest.raises(DataFormatError) as err:
            load_csv(p, num_classes=3)
        assert str(err.value) == f"{p}: row 4 has label 7, expected 0..2"
        assert load_csv(p).num_classes == 8  # without num_classes the labels set it
        p.write_text("0,1,2\n3,4,5\n")  # the first label past the range
        with pytest.raises(DataFormatError, match="row 2 has label 3, expected 0..2"):
            load_csv(p, num_classes=3)

    def test_non_utf8_row_is_named_exactly(self, tmp_path):
        # negative control: the reader decoded the file in chunks, so a byte
        # that is not UTF-8 escaped as UnicodeDecodeError, naming no row
        p = tmp_path / "d.csv"
        rows = "".join(f"{i % 3},{i}.5,2.25\n" for i in range(2000))
        p.write_bytes(rows.encode() + b"1,3.5,\xe9\n" + b"0,1.0,2.0\n")
        with pytest.raises(DataFormatError) as err:
            load_csv(p)
        assert str(err.value) == f"{p}: row 2001 is not UTF-8 text"

    def test_byte_order_mark_skipped(self, tmp_path):
        # negative control: a spreadsheet's BOM used to fail as label '\ufeff0'
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(b"0,1.5,2.5\n1,3.5,4.5\n")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        a, b = load_csv(plain), load_csv(marked)
        assert [s.label for s in b.signals] == [0, 1]
        for x, y in zip(a.signals, b.signals):
            assert x.samples.tobytes() == y.samples.tobytes()

    @pytest.mark.parametrize("text,kwargs,message", [
        ("0,1,2,3,4\n1,1,2,3\n", {}, "row 2 has 3 samples, expected 4"),
        ("0,1.0,abc\n", {}, "row 1 has a non-numeric sample"),
        ("1,0.5,0.25,3.0\n0,1.0,NaN,2.0\n", {}, "row 2 column 3 has non-finite sample 'NaN'"),
        ("x,1.0,2.0\n", {}, "row 1 has non-integer label 'x'"),
        ("0,1.0\n-1,2.0\n", {}, "row 2 has negative label -1"),
        ("0\n", {}, "row 1 has no samples"),
        ("\n\n", {}, "no data rows"),
        # rows are checked in file order: a non-finite sample is reported
        # before a fault later in its row or in a later row
        ("0,1.0,-inf\n1,2.0\n", {}, "row 1 column 3 has non-finite sample '-inf'"),
        ("0,1.0,2.0\n1,inf,2.0,3.0\n", {}, "row 2 column 2 has non-finite sample 'inf'"),
        ("0,1.0,nan\n5,1.0,2.0\n", {"num_classes": 2}, "row 1 column 3 has non-finite sample 'nan'"),
        ("0,1.0,nan\n1,1.0,zz\n", {}, "row 1 column 3 has non-finite sample 'nan'"),
        ("0,1.0,2.0\n1,nan,zz\n", {}, "row 2 has a non-numeric sample"),
    ])
    def test_malformed_file_messages(self, tmp_path, text, kwargs, message):
        p = tmp_path / "d.csv"
        p.write_text(text)
        with pytest.raises(DataFormatError) as err:
            load_csv(p, **kwargs)
        assert str(err.value) == f"{p}: {message}"


class TestCsvText:
    """``save_csv`` writes each sample as ``f"{v:.17g}"`` would, and
    ``load_csv`` reads that text back to the same bits."""

    EDGE = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1e16,
            0.0, 3.0, -7.0, 1e300, -2.5]

    def test_text_is_per_value_17g_and_reads_back_bitwise(self, tmp_path, rng):
        rows = [np.array(self.EDGE), -np.array(self.EDGE), rng.standard_normal(len(self.EDGE))]
        ds = Dataset([LabeledSignal(x, i) for i, x in enumerate(rows)], len(self.EDGE), 3)
        p = tmp_path / "d.csv"
        save_csv(ds, p)
        want = "".join(f"{i}" + "".join(f",{v:.17g}" for v in x) + "\n" for i, x in enumerate(rows))
        assert p.read_bytes() == want.encode()
        back = load_csv(p)
        for x, sig in zip(rows, back.signals):
            assert sig.samples.tobytes() == x.tobytes()


@pytest.fixture
def row_parser_calls(monkeypatch):
    """Count the files ``load_csv`` hands to the row-at-a-time parser."""
    calls = []
    real = data._load_csv_rows
    monkeypatch.setattr(data, "_load_csv_rows", lambda *a: calls.append(a) or real(*a))
    return calls


def assert_same_dataset(a, b):
    assert (a.L, a.num_classes, len(a)) == (b.L, b.num_classes, len(b))
    for x, y in zip(a.signals, b.signals):
        assert x.label == y.label
        assert x.samples.dtype == y.samples.dtype == np.float64
        assert x.samples.tobytes() == y.samples.tobytes()


class TestFastPathMatchesRowParser:
    """``load_csv`` parses all sample text in numpy's C reader and falls back
    to the ``float()`` row parser for any file that reader rejects; either
    way a file gives the samples ``float()`` gives."""

    EDGE = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
            1.7976931348623157e308, -1.7976931348623157e308, 1e-300, -1e-300]

    @pytest.mark.parametrize("fmt", ["%.17g", "repr"])
    def test_random_bit_patterns_read_back_as_float_reads_them(self, tmp_path, rng, fmt,
                                                               row_parser_calls):
        bits = rng.integers(0, 2**64, size=40 * 25, dtype=np.uint64, endpoint=False)
        values = bits.view(np.float64)
        values = np.concatenate([self.EDGE, values[np.isfinite(values)]])[: 30 * 25].reshape(30, 25)
        text = [[repr(float(v)) if fmt == "repr" else "%.17g" % v for v in row] for row in values]
        p = tmp_path / "d.csv"
        p.write_text("".join(f"{i % 4}," + ",".join(row) + "\n" for i, row in enumerate(text)))
        got = load_csv(p)
        assert row_parser_calls == []
        for sig, row in zip(got.signals, text):
            assert sig.samples.tobytes() == np.array([float(t) for t in row]).tobytes()

    @pytest.mark.parametrize("raw,falls_back", [
        (b"0, 2.5 ,1\n1,\t-3 ,4\n", False),
        (b"0,1E5,1e-5\n1,2E+05,-1E-05\n", False),
        (b"0,+.5,-.5\n1,5.,+0\n", False),
        (b"0,1_5,2\n1,3,4_0.5\n", True),
        ("0,\u0663.\u0665,2\n1,\u0661,3\n".encode(), True),
        (b"0,1.5,2.5\r\n1,3.5,4.5\r\n", False),
        (b"\xef\xbb\xbf0,1.5,2.5\n1,3.5,4.5\n", False),
        (b"\n0,1.5,2.5\n\n   \n1,3.5,4.5\n\n", False),
        (b"0,1.5\n2,-0\n1,7\n", False),
        (b"3,0.25", False),
    ], ids=["spaces", "exponent", "signs", "underscores", "arabic-indic", "crlf", "bom",
            "blank-lines", "one-sample-rows", "one-row-no-newline"])
    def test_odd_valid_files_give_the_row_parsers_dataset(self, tmp_path, raw, falls_back,
                                                         row_parser_calls):
        p = tmp_path / "d.csv"
        p.write_bytes(raw)
        got = load_csv(p)
        assert len(row_parser_calls) == falls_back
        assert_same_dataset(got, data._load_csv_rows(p, None))
        assert_same_dataset(load_csv(p, num_classes=5), data._load_csv_rows(p, 5))

    def test_fast_path_rows_are_views_of_one_array(self, tmp_path, rng, row_parser_calls):
        p = tmp_path / "d.csv"
        save_csv(Dataset([LabeledSignal(rng.standard_normal(7), i % 3) for i in range(9)], 7, 3), p)
        rows = [sig.samples for sig in load_csv(p).signals]
        assert row_parser_calls == []
        assert all(r.base is rows[0].base and r.base is not None for r in rows)
        assert rows[0].base.shape == (9, 7)


def reference_normalize(dataset, mode):
    """One signal at a time, as normalize's contract states it."""
    out, stats = [], []
    for sig in dataset.signals:
        x = sig.samples
        if mode == "zscore":
            first, second = float(x.mean()), float(x.std())
            y = np.zeros_like(x) if second < 1e-12 else (x - first) / second
        else:
            first, second = float(x.min()), float(x.max())
            y = np.zeros_like(x) if second - first < 1e-12 else 2.0 * (x - first) / (second - first) - 1.0
        out.append(y)
        stats.append((first, second))
    return out, stats


class TestNormalize:
    def test_constant_signal_zscore(self):
        ds = Dataset([LabeledSignal(np.full(8, 3.7), 0)], 8, 1)
        out, stats = normalize(ds, "zscore")
        assert np.array_equal(out.signals[0].samples, np.zeros(8))

    def test_minmax_affine(self):
        ds = Dataset([LabeledSignal(np.array([0.0, 1.0, 2.0]), 0)], 3, 1)
        out, stats = normalize(ds, "minmax")
        assert np.allclose(out.signals[0].samples, [-1.0, 0.0, 1.0])
        assert stats[0] == (0.0, 2.0)

    def test_zscore_moments(self, rng):
        sigs = [LabeledSignal(rng.standard_normal(32) * 5 + 2, 0) for _ in range(20)]
        out, _ = normalize(Dataset(sigs, 32, 1), "zscore")
        for s in out.signals:
            assert abs(s.samples.mean()) < 1e-12
            assert abs(s.samples.std() - 1.0) < 1e-9

    @pytest.mark.parametrize("mode", ["zscore", "minmax"])
    @pytest.mark.parametrize("length", [1, 7, 9, 129, 360])
    def test_matches_per_signal_reference_bitwise(self, rng, mode, length):
        # magnitudes from e^-30 to e^30: normalize's exact power-of-two
        # scaling leaves every value and stat as the unscaled formula gives it
        sigs = [LabeledSignal(np.exp(rng.uniform(-30.0, 30.0))
                              * (rng.standard_normal(length) + float(rng.integers(-50, 50))), c % 3)
                for c in range(400)]
        sigs.append(LabeledSignal(np.full(length, 3.7), 1))  # a constant signal
        for ds in (Dataset(sigs, length, 3), Dataset(sigs[:1], length, 3)):
            out, stats = normalize(ds, mode)
            want, want_stats = reference_normalize(ds, mode)
            assert stats == want_stats
            assert [s.samples.tobytes() for s in out.signals] == [y.tobytes() for y in want]
            assert [s.label for s in out.signals] == [s.label for s in ds.signals]

    @pytest.mark.parametrize("mode", ["zscore", "minmax"])
    def test_rows_at_the_float64_limit_stay_finite(self, mode):
        # negative control: the mean, std or spread of these rows overflowed,
        # and they came back as NaN with a RuntimeWarning
        limit = np.array([1.7e308, -1.7e308] * 4)
        ds = Dataset([LabeledSignal(limit, 0), LabeledSignal(np.full(8, 1.7e308), 0)], 8, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, stats = normalize(ds, mode)
        assert np.array_equal(out.signals[0].samples, np.sign(limit))
        assert np.array_equal(out.signals[1].samples, np.zeros(8))  # flat
        assert stats[0] == ((0.0, 1.7e308) if mode == "zscore" else (-1.7e308, 1.7e308))

    def test_bad_mode(self):
        ds = Dataset([LabeledSignal(np.zeros(4), 0)], 4, 1)
        with pytest.raises(ValueError):
            normalize(ds, "robust")


class TestSplit:
    def make(self, rng, per_class=100, classes=3, L=8):
        sigs = [LabeledSignal(rng.standard_normal(L), c)
                for c in range(classes) for _ in range(per_class)]
        return Dataset(sigs, L, classes)

    def test_stratified_counts(self, rng):
        ds = self.make(rng)
        tr, te = split(ds, 0.3, seed=0)
        assert len(tr) == 210 and len(te) == 90
        assert list(tr.class_counts()) == [70, 70, 70]
        assert list(te.class_counts()) == [30, 30, 30]

    def test_same_seed_same_split(self, rng):
        ds = self.make(rng, per_class=20)
        a = split(ds, 0.25, seed=5)
        b = split(ds, 0.25, seed=5)
        for x, y in zip(a[0].signals, b[0].signals):
            assert np.array_equal(x.samples, y.samples)

    def test_different_seeds_differ(self, rng):
        ds = self.make(rng, per_class=30)
        base = split(ds, 0.5, seed=0)[1]
        base_mat = np.stack([s.samples for s in base.signals])
        distinct = 0
        for seed in range(1, 11):
            other = split(ds, 0.5, seed=seed)[1]
            other_mat = np.stack([s.samples for s in other.signals])
            if other_mat.shape != base_mat.shape or not np.array_equal(other_mat, base_mat):
                distinct += 1
        assert distinct >= 9

    def test_partition(self, rng):
        ds = self.make(rng, per_class=17)
        tr, te = split(ds, 0.4, seed=3)
        assert len(tr) + len(te) == len(ds)
        seen = sorted(id(s) for s in tr.signals + te.signals)
        assert len(set(seen)) == len(ds)  # disjoint: every signal exactly once

    def test_tiny_class_warns_and_stays_in_train(self, rng):
        sigs = [LabeledSignal(rng.standard_normal(4), 0) for _ in range(10)]
        sigs.append(LabeledSignal(rng.standard_normal(4), 1))
        ds = Dataset(sigs, 4, 2)
        with pytest.warns(UserWarning):
            tr, te = split(ds, 0.3, seed=0)
        assert tr.class_counts()[1] == 1 and te.class_counts()[1] == 0

    def test_both_sides_nonempty_when_possible(self, rng):
        sigs = [LabeledSignal(rng.standard_normal(4), 0) for _ in range(2)]
        ds = Dataset(sigs, 4, 1)
        tr, te = split(ds, 0.05, seed=0)
        assert len(tr) == 1 and len(te) == 1

    def test_fraction_validated(self, rng):
        ds = self.make(rng, per_class=5)
        with pytest.raises(ValueError):
            split(ds, 1.5, seed=0)


class TestSynth:
    def test_size_and_classes(self):
        ds = synth_waveforms(num_per_class=200, L=64, noise_sigma=0.1, seed=0)
        assert len(ds) == 600
        assert ds.num_classes == 3
        assert list(ds.class_counts()) == [200, 200, 200]

    def test_pure_sine_in_range(self):
        ds = synth_waveforms(num_per_class=50, L=64, noise_sigma=0.0, seed=1)
        for s in ds.signals:
            if s.label == 0:
                assert np.all(np.abs(s.samples) <= 1.0)

    def test_seeded_bit_identical(self):
        a = synth_waveforms(77, 32, 0.2, seed=9)
        b = synth_waveforms(77, 32, 0.2, seed=9)
        for x, y in zip(a.signals, b.signals):
            assert np.array_equal(x.samples, y.samples)

    def test_minimum_length(self):
        with pytest.raises(ValueError):
            synth_waveforms(10, 4, 0.0, seed=0)

    @pytest.mark.parametrize("noise", [-1.0, np.nan, np.inf])
    def test_bad_noise_rejected(self, noise):
        # negative control: a negative or nan noise_sigma used to mean no noise
        with pytest.raises(ValueError, match="noise_sigma must be a finite number >= 0"):
            synth_waveforms(2, 16, noise, seed=1)

    def test_classes_separable_by_difference_energy_features(self):
        """Sanity oracle: with no noise the three families separate with two
        axis-aligned thresholds on first-difference statistics (a spectral
        energy split: sum |dx|^2 weights high frequencies)."""
        ds = synth_waveforms(num_per_class=200, L=64, noise_sigma=0.0, seed=4)
        feats = {0: [], 1: [], 2: []}
        for s in ds.signals:
            dx = np.abs(np.diff(s.samples))
            jumps = int(np.sum(dx > 1.0))
            flat = float(np.mean(dx < 0.05))
            feats[s.label].append((jumps, flat))
        sine = np.array(feats[0])
        square = np.array(feats[1])
        saw = np.array(feats[2])
        # square: mostly-flat steps; sine and sawtooth are never that flat
        assert square[:, 1].min() > 0.5
        assert max(sine[:, 1].max(), saw[:, 1].max()) < 0.5
        # sawtooth always wraps at least once; sine never jumps
        assert saw[:, 0].min() >= 1
        assert sine[:, 0].max() == 0


class TestFilterMinClassCount:
    def test_drops_and_relabels(self, rng):
        sigs = [LabeledSignal(rng.standard_normal(4), c) for c in (0, 0, 0, 1, 2, 2)]
        ds = Dataset(sigs, 4, 3)
        out = filter_min_class_count(ds, 2)
        assert out.num_classes == 2
        assert sorted(set(int(s.label) for s in out.signals)) == [0, 1]
        assert len(out) == 5

    def test_noop_below_threshold(self, rng):
        ds = Dataset([LabeledSignal(rng.standard_normal(4), 0)], 4, 1)
        assert filter_min_class_count(ds, 1) is ds
