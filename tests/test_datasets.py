"""Tests for data generation, the bundled table, rescaling, and CSV I/O."""

import warnings

import numpy as np
import pytest

from branchembed import (
    ConstantColumn,
    IoError,
    LabeledData,
    ParseError,
    RaggedRow,
    SplitMix64,
    blobs,
    gaussian_matrix,
    iris,
    load_csv,
    rescale_minmax,
    s_curve,
)


class TestGaussianMatrix:
    def test_shape_and_dtype(self):
        x = gaussian_matrix(100, 5, 0)
        assert x.shape == (100, 5) and x.dtype == np.float64

    def test_accepts_bare_seed(self):
        assert np.array_equal(gaussian_matrix(4, 3, 9),
                              SplitMix64(9).normals(12).reshape(4, 3))

    def test_reproducible(self):
        assert np.array_equal(gaussian_matrix(20, 4, 1),
                              gaussian_matrix(20, 4, 1))

    def test_streams_differ(self):
        a = gaussian_matrix(10, 2, 3)
        b = gaussian_matrix(10, 2, 4)
        assert not np.array_equal(a, b)

    def test_moments(self):
        x = gaussian_matrix(400, 100, 12)
        assert abs(x.mean()) < 0.02
        assert abs(x.std() - 1.0) < 0.02
        assert abs(np.mean(x ** 3)) < 0.05  # symmetric

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            gaussian_matrix(0, 5, 0)

    @pytest.mark.parametrize("rows, cols, name", [
        (5.0, 2, "rows"), (5, 2.0, "cols"), (True, 2, "rows"),
        ("5", 2, "rows"),
    ])
    def test_rejects_non_integer_sizes(self, rows, cols, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            gaussian_matrix(rows, cols, 0)

    def test_accepts_numpy_integer_sizes(self):
        assert np.array_equal(gaussian_matrix(np.int64(4), np.int32(3), 9),
                              gaussian_matrix(4, 3, 9))


class TestBlobs:
    def test_sizes_as_even_as_possible(self):
        got = blobs(500, 0)
        counts = np.bincount(got.labels)
        assert counts.tolist() == [167, 167, 166]

    def test_exact_thirds(self):
        counts = np.bincount(blobs(9, 1).labels)
        assert counts.tolist() == [3, 3, 3]

    def test_shape(self):
        got = blobs(50, 2)
        assert got.data.shape == (50, 2)
        assert got.labels.shape == (50,)

    def test_points_near_their_centers(self):
        got = blobs(3000, 3)
        for k, sd in enumerate((0.5, 0.8, 1.0)):
            pts = got.data[got.labels == k]
            center = pts.mean(axis=0)
            assert np.all(np.abs(center) <= 10.5)
            spread = pts.std(axis=0).mean()
            assert spread == pytest.approx(sd, rel=0.15)

    def test_reproducible(self):
        a = blobs(30, 4)
        b = blobs(30, 4)
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(a.labels, b.labels)

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            blobs(2, 0)


class TestSCurve:
    def test_shape(self):
        assert s_curve(120, 0).shape == (120, 3)

    def test_column_ranges(self):
        x = s_curve(4000, 1)
        assert np.all(np.abs(x[:, 0]) <= 1.0)
        assert np.all((x[:, 1] >= 0.0) & (x[:, 1] < 2.0))
        assert np.all(np.abs(x[:, 2]) <= 2.0)

    def test_on_the_sheet(self):
        # first and third columns trace (sin t, sign(t)(cos t - 1)):
        # therefore (|z| - 1)^2 + x^2 = 1 for every point
        x = s_curve(500, 2)
        radius = (np.abs(x[:, 2]) - 1.0) ** 2 + x[:, 0] ** 2
        assert radius == pytest.approx(np.ones(500), abs=1e-12)

    def test_reproducible(self):
        assert np.array_equal(s_curve(64, 3), s_curve(64, 3))


class TestIris:
    def test_shape_and_classes(self):
        got = iris()
        assert got.data.shape == (150, 4)
        assert np.bincount(got.labels).tolist() == [50, 50, 50]

    def test_first_row(self):
        got = iris()
        assert got.data[0] == pytest.approx([5.1, 3.5, 1.4, 0.2])
        assert got.labels[0] == 0

    def test_value_ranges_plausible(self):
        got = iris()
        assert got.data.min() > 0.0
        assert got.data.max() < 8.0


class TestRescale:
    def test_maps_to_unit_interval(self):
        x = np.array([[0.0, 10.0], [5.0, 20.0], [10.0, 30.0]])
        got = rescale_minmax(x)
        assert got == pytest.approx(np.array([[0.0, 0.0], [0.5, 0.5],
                                               [1.0, 1.0]]))

    def test_extremes_hit_bounds(self):
        rng = np.random.default_rng(5)
        got = rescale_minmax(rng.normal(size=(40, 6)))
        assert got.min(axis=0) == pytest.approx(np.zeros(6))
        assert got.max(axis=0) == pytest.approx(np.ones(6))

    def test_huge_span_scaled_exactly(self):
        # Only the first column's span, 2e308, overflows; the third
        # column keeps the bits of the plain formula.
        x = np.array([[1e308, 1.0, 1e300], [-1e308, 2.0, -1e300],
                      [0.0, 3.0, 3.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rescale_minmax(x)
        assert np.array_equal(got[:, :2], [[1.0, 0.0], [0.0, 0.5],
                                           [0.5, 1.0]])
        assert np.array_equal(got[:, 2], (x[:, 2] + 1e300) / 2e300)

    def test_constant_column_rejected(self):
        x = np.array([[1.0, 3.0], [2.0, 3.0]])
        with pytest.raises(ConstantColumn) as err:
            rescale_minmax(x)
        assert err.value.column == 1

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            rescale_minmax(np.array([1.0, 2.0]))


class TestLabeledData:
    def test_label_length_checked(self):
        with pytest.raises(ValueError):
            LabeledData(np.zeros((3, 2)), np.array([0, 1]))

    def test_labels_optional(self):
        assert LabeledData(np.zeros((3, 2))).labels is None


class TestLoadCsv:
    def test_plain_numeric(self, tmp_path):
        p = tmp_path / "plain.csv"
        p.write_text("1,2\n3,4\n")
        got = load_csv(p)
        assert got.data == pytest.approx(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert got.labels is None

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("a,b\n1,2\n")
        got = load_csv(p, has_header=True)
        assert got.data.shape == (1, 2)

    def test_label_by_index(self, tmp_path):
        p = tmp_path / "li.csv"
        p.write_text("1,2,0\n3,4,1\n")
        got = load_csv(p, label_column=2)
        assert got.data.shape == (2, 2)
        assert got.labels.tolist() == [0, 1]

    def test_label_by_name(self, tmp_path):
        p = tmp_path / "ln.csv"
        p.write_text("x,y,cls\n1,2,5\n3,4,6\n")
        got = load_csv(p, has_header=True, label_column="cls")
        assert got.labels.tolist() == [5, 6]
        assert got.data == pytest.approx(np.array([[1.0, 2.0], [3.0, 4.0]]))

    def test_named_label_needs_header(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("1,2\n")
        with pytest.raises(ValueError):
            load_csv(p, label_column="cls")

    def test_unknown_label_name(self, tmp_path):
        p = tmp_path / "u.csv"
        p.write_text("x,y\n1,2\n")
        with pytest.raises(ParseError) as err:
            load_csv(p, has_header=True, label_column="cls")
        assert err.value.line == 1

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text("1,2\n\n3,4\n\n")
        assert load_csv(p).data.shape == (2, 2)

    def test_ragged_row_line_number(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("1,2\n3,4\n5\n")
        with pytest.raises(RaggedRow) as err:
            load_csv(p)
        assert err.value.line == 3

    def test_bad_cell_line_number_counts_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x,y\n1,2\n1,oops\n")
        with pytest.raises(ParseError) as err:
            load_csv(p, has_header=True)
        assert err.value.line == 3
        assert "oops" in str(err.value)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("")
        with pytest.raises(ParseError):
            load_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError) as err:
            load_csv(tmp_path / "absent.csv")
        assert "absent.csv" in str(err.value.path)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "1e300", "9.3e18",
                                      "nan", "1.5"])
    def test_label_must_be_integer(self, tmp_path, cell):
        p = tmp_path / "l.csv"
        p.write_text(f"1,2,0\n3,4,{cell}\n")
        with pytest.raises(ParseError, match="label must be an integer") \
                as err:
            load_csv(p, label_column=2)
        assert err.value.line == 2
        assert "field 2" in str(err.value)

    def test_integral_float_labels(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("1,2,2.0\n3,4,-1e3\n5,6,-9223372036854775808\n")
        assert load_csv(p, label_column=2).labels.tolist() == \
            [2, -1000, -2**63]

    def test_label_column_out_of_range(self, tmp_path):
        p = tmp_path / "o.csv"
        p.write_text("1,2\n")
        with pytest.raises(ParseError):
            load_csv(p, label_column=5)
