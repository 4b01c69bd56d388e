import json

import numpy as np
import pytest

from conftest import write_dataset_csv
from dcic.data import (ClassPrior, Dataset, Projection,
                       TransitionMatrix, empirical_prior, read_dataset_csv,
                       symmetric_noise)


class TestDataset:
    def test_basic_labeled(self):
        data = Dataset(np.zeros((3, 2)), np.array([1, 2, 1]), "clean")
        assert data.n_samples == 3
        assert data.dim == 2
        assert data.n_classes == 2
        assert data.label_kind == "clean"

    def test_unlabeled(self):
        data = Dataset(np.ones((4, 3)))
        assert data.labels is None
        assert data.label_kind == "unlabeled"

    def test_explicit_n_classes(self):
        data = Dataset(np.zeros((2, 1)), np.array([1, 1]), "noisy", n_classes=5)
        assert data.n_classes == 5

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 1)), np.array([0, 1]), "clean")
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 1)), np.array([1, 3]), "clean", n_classes=2)

    # the smallest label is checked before the class count is taken from
    # the largest, so labels that are all 0 name the label
    @pytest.mark.parametrize("labels, smallest", [
        ([0, 0], 0), ([0, 2], 0), ([2, -1], -1)],
        ids=["all-zero", "zero-and-two", "minus-one"])
    def test_too_small_label_named(self, labels, smallest):
        with pytest.raises(ValueError,
                           match=rf"^labels must be >= 1, got {smallest}$"):
            Dataset(np.zeros((2, 2)), np.array(labels), "noisy")

    def test_nonfinite_features_rejected(self):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError):
            Dataset(bad)
        with pytest.raises(ValueError):
            Dataset(np.array([[np.inf]]))

    def test_features_frozen(self):
        data = Dataset(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            data.features[0, 0] = 1.0

    def test_bad_label_kind(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.array([1, 1]), "fuzzy")

    def test_with_features(self):
        data = Dataset(np.zeros((2, 2)), np.array([1, 2]), "clean")
        swapped = data.with_features(np.ones((2, 3)))
        assert swapped.dim == 3
        assert np.array_equal(swapped.labels, data.labels)
        assert swapped.label_kind == "clean"


class TestTransitionMatrix:
    def test_identity_valid(self):
        q = TransitionMatrix(np.eye(2))
        assert q.n_classes == 2

    def test_symmetric_flip_valid(self):
        q = TransitionMatrix(np.array([[0.6, 0.4], [0.4, 0.6]]))
        assert q.n_classes == 2

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            TransitionMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))

    def test_non_stochastic_rejected(self):
        with pytest.raises(ValueError):
            TransitionMatrix(np.array([[0.7, 0.4], [0.4, 0.6]]))
        with pytest.raises(ValueError):
            TransitionMatrix(np.array([[1.2, -0.2], [0.0, 1.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            TransitionMatrix(np.ones((2, 3)) / 3.0)

    @pytest.mark.parametrize("text, missing", [
        ('{"rows": [[1.0, 0.0], [0.0, 1.0]]}', "c"), ('{"c": 2}', "rows"),
        ('[]', "c, rows")])
    def test_from_json_names_missing_key(self, text, missing):
        with pytest.raises(ValueError, match=rf"q\.json: missing key\(s\) {missing}$"):
            TransitionMatrix.from_json(text, "q.json")

    # JSON's true would load as a one-class matrix
    @pytest.mark.parametrize("c", ["true", "1.0", '"1"'])
    def test_from_json_non_integer_c_rejected(self, c):
        with pytest.raises(ValueError, match=r"q\.json: c must be an integer"):
            TransitionMatrix.from_json(f'{{"c": {c}, "rows": [[1.0]]}}', "q.json")

    # rows of the wrong count, ragged rows, and rows the matrix rejects
    @pytest.mark.parametrize("text", [
        '{"c": 3, "rows": [[1.0]]}', '{"c": 2, "rows": [[1.0, 0.0], [1.0]]}',
        '{"c": 2, "rows": [[0.9, 0.2], [0.2, 0.8]]}',
        '{"c": 2, "rows": [[1.5, -0.5], [0.0, 1.0]]}',
        '{"c": 2, "rows": [[0.5, 0.5], [0.5, 0.5]]}'],
        ids=["count", "ragged", "row-sum", "entries", "singular"])
    def test_from_json_errors_name_the_source(self, text):
        with pytest.raises(ValueError, match=r"^q\.json: "):
            TransitionMatrix.from_json(text, "q.json")

    def test_json_roundtrip(self):
        q = TransitionMatrix(np.array([[0.8, 0.2], [0.3, 0.7]]))
        back = TransitionMatrix.from_json(q.to_json())
        assert np.array_equal(back.q, q.q)
        obj = json.loads(q.to_json())
        assert obj["c"] == 2
        assert len(obj["rows"]) == 2


class TestSymmetricNoise:
    def test_zero_rate_is_identity(self):
        assert np.array_equal(symmetric_noise(2, 0.0).q, np.eye(2))

    def test_binary_values(self):
        q = symmetric_noise(2, 0.4)
        assert np.allclose(q.q, [[0.6, 0.4], [0.4, 0.6]])

    def test_multiclass_rows(self):
        q = symmetric_noise(4, 0.3)
        assert np.allclose(np.diag(q.q), 0.7)
        off = q.q[~np.eye(4, dtype=bool)]
        assert np.allclose(off, 0.1)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            symmetric_noise(2, 1.0)
        with pytest.raises(ValueError):
            symmetric_noise(2, -0.1)


class TestPriorAndRatio:
    def test_prior_simplex_enforced(self):
        with pytest.raises(ValueError):
            ClassPrior(np.array([0.6, 0.6]))
        with pytest.raises(ValueError):
            ClassPrior(np.array([1.2, -0.2]))

    def test_prior_ok(self):
        p = ClassPrior(np.array([0.25, 0.75]))
        assert p.n_classes == 2


class TestProjection:
    def test_orthonormal_accepted(self):
        w = np.array([[1.0], [0.0]])
        proj = Projection(w)
        assert proj.w.shape == (2, 1)

    def test_non_orthonormal_rejected(self):
        with pytest.raises(ValueError):
            Projection(np.array([[1.0], [1.0]]))


class TestEmpiricalPrior:
    def test_symmetric_counts(self):
        assert np.allclose(empirical_prior(np.array([1, 1, 2, 2]), 2).p, [0.5, 0.5])

    def test_direct_count(self):
        assert np.allclose(empirical_prior(np.array([1, 1, 1, 2]), 2).p, [0.75, 0.25])

    def test_single_class(self):
        assert np.allclose(empirical_prior(np.array([2, 2, 2]), 3).p, [0, 1, 0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_prior(np.array([], dtype=np.int64), 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            empirical_prior(np.array([1, 3]), 2)


class TestCsvRoundTrip:
    def test_labeled(self, tmp_path, rng):
        data = Dataset(rng.standard_normal((10, 3)), rng.integers(1, 4, 10), "noisy")
        path = tmp_path / "labeled.csv"
        write_dataset_csv(data, path)
        header = path.read_text().splitlines()[0]
        assert header == "f1,f2,f3,label"
        back = read_dataset_csv(path, label_kind="noisy")
        assert np.array_equal(back.features, data.features)
        assert np.array_equal(back.labels, data.labels)
        assert back.label_kind == "noisy"

    def test_unlabeled(self, tmp_path, rng):
        data = Dataset(rng.standard_normal((4, 2)) * 1e-7)
        path = tmp_path / "plain.csv"
        write_dataset_csv(data, path)
        assert path.read_text().splitlines()[0] == "f1,f2"
        back = read_dataset_csv(path)
        assert np.array_equal(back.features, data.features)
        assert back.labels is None

    # a header without data rows names the file, with or without labels
    @pytest.mark.parametrize("header", ["f1,f2", "f1,f2,label"])
    def test_header_without_rows_rejected(self, tmp_path, header):
        path = tmp_path / "empty.csv"
        path.write_text(f"{header}\n\n")
        with pytest.raises(ValueError, match=r"empty\.csv: no data rows"):
            read_dataset_csv(path)

    # a short or long labelled row and a short unlabelled row all name the
    # file and the line
    @pytest.mark.parametrize("header, bad", [
        ("f1,f2,label", "0.3,0.4"),
        ("f1,f2,label", "0.3,0.4,1,9"),
        ("f1,f2", "0.3"),
    ], ids=["labelled-short", "labelled-long", "unlabelled-short"])
    def test_row_width_must_match_header(self, tmp_path, header, bad):
        good = "0.1,0.2,2" if header.endswith("label") else "0.1,0.2"
        path = tmp_path / "ragged.csv"
        path.write_text(f"{header}\n{good}\n{bad}\n{good}\n")
        with pytest.raises(ValueError, match=r"ragged\.csv, line 3: "):
            read_dataset_csv(path)

    # a feature or label that does not parse names the file and the line
    @pytest.mark.parametrize("bad, what", [
        ("abc,0.4,1", "could not convert string to float: 'abc'"),
        ("0.3,0.4,2.0", "invalid literal for int"),
    ], ids=["feature", "label"])
    def test_unparsed_field_names_line(self, tmp_path, bad, what):
        path = tmp_path / "bad.csv"
        path.write_text(f"f1,f2,label\n0.1,0.2,2\n{bad}\n")
        with pytest.raises(ValueError, match=rf"bad\.csv, line 3: {what}"):
            read_dataset_csv(path)

    # a header of ``label`` alone, or a blank one, has no feature columns
    @pytest.mark.parametrize("header", ["label", ""], ids=["label", "blank"])
    def test_header_without_features_rejected(self, tmp_path, header):
        path = tmp_path / "nofeat.csv"
        path.write_text(f"{header}\n1\n")
        with pytest.raises(ValueError,
                           match=r"nofeat\.csv: header .* has no feature columns"):
            read_dataset_csv(path)

    # a value that parses but that Dataset refuses names the file too
    @pytest.mark.parametrize("rows, what", [
        ("nan,0.4,1", "features contain non-finite entries"),
        ("0.3,inf,1", "features contain non-finite entries"),
        ("0.3,0.4,0", "labels must be >= 1, got 0"),
        ("0.1,0.2,1\n0.3,0.4,-1", "labels must be >= 1, got -1"),
    ], ids=["nan", "inf", "label-0", "label-minus-1"])
    def test_refused_values_name_the_file(self, tmp_path, rows, what):
        path = tmp_path / "values.csv"
        path.write_text(f"f1,f2,label\n{rows}\n")
        with pytest.raises(ValueError, match=rf"values\.csv: {what}"):
            read_dataset_csv(path)
