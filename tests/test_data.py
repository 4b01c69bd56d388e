import dataclasses
import json
import re

import numpy as np
import pytest

from conftest import write_dataset_csv
from dcic.classifier import TrainConfig, train
from dcic.data import (ClassPrior, Dataset, Projection,
                       TransitionMatrix, empirical_prior, read_dataset_csv,
                       symmetric_noise)
from dcic.linear import LinearFitConfig, LinearFitResult, _MmdProblem
from dcic.noise import GammaWeights
from dcic.synth import GmmSpec, LocationScale


class TestDataset:
    def test_basic_labeled(self):
        data = Dataset(np.zeros((3, 2)), np.array([1, 2, 1]))
        assert data.n_samples == 3
        assert data.dim == 2
        assert data.n_classes == 2

    def test_unlabeled(self):
        data = Dataset(np.ones((4, 3)))
        assert data.labels is None

    def test_explicit_n_classes(self):
        data = Dataset(np.zeros((2, 1)), np.array([1, 1]), n_classes=5)
        assert data.n_classes == 5
        data = Dataset(np.zeros((2, 1)), np.array([1, 1]), np.int64(3))
        assert type(data.n_classes) is int and data.n_classes == 3

    # a float or bool class count would be truncated to another count, a
    # string would raise a bare TypeError, and a label kind passed where
    # the class count now sits must fail loudly; labelled or not
    @pytest.mark.parametrize("labels", [[1, 1], None], ids=["labeled", "unlabeled"])
    @pytest.mark.parametrize("n_classes", [2.5, 2.0, True, "2", "noisy"])
    def test_non_integer_n_classes_rejected(self, labels, n_classes):
        with pytest.raises(ValueError, match=r"^n_classes must be an integer, got "):
            Dataset(np.zeros((2, 1)), labels, n_classes)

    @pytest.mark.parametrize("labels", [[1, 1], None], ids=["labeled", "unlabeled"])
    @pytest.mark.parametrize("n_classes", [0, -1])
    def test_n_classes_below_one_rejected(self, labels, n_classes):
        with pytest.raises(ValueError,
                           match=rf"^n_classes must be >= 1, got {n_classes}$"):
            Dataset(np.zeros((2, 1)), labels, n_classes)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 1)), np.array([0, 1]))
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 1)), np.array([1, 3]), n_classes=2)

    # the smallest label is checked before the class count is taken from
    # the largest, so labels that are all 0 name the label
    @pytest.mark.parametrize("labels, smallest", [
        ([0, 0], 0), ([0, 2], 0), ([2, -1], -1)],
        ids=["all-zero", "zero-and-two", "minus-one"])
    def test_too_small_label_named(self, labels, smallest):
        with pytest.raises(ValueError,
                           match=rf"^labels must be >= 1, got {smallest}$"):
            Dataset(np.zeros((2, 2)), np.array(labels))

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

    def test_with_features(self):
        data = Dataset(np.zeros((2, 2)), np.array([1, 2]))
        swapped = data.with_features(np.ones((2, 3)))
        assert swapped.dim == 3
        assert np.array_equal(swapped.labels, data.labels)
        assert swapped.n_classes == data.n_classes


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
        '{"c": 2, "rows": [[0.5, 0.5], [0.5, 0.5]]}',
        '{"c": 2, "rows": [[true, false], [false, true]]}',
        '{"c": 2, "rows": [["0.8", "0.2"], [0.2, 0.8]]}'],
        ids=["count", "ragged", "row-sum", "entries", "singular", "booleans",
             "strings"])
    def test_from_json_errors_name_the_source(self, text):
        with pytest.raises(ValueError, match=r"^q\.json: "):
            TransitionMatrix.from_json(text, "q.json")

    def test_json_roundtrip(self):
        q = TransitionMatrix(np.array([[0.8, 0.2], [0.3, 0.7]]))
        back = TransitionMatrix.from_json(q.to_json(), "q.json")
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
        data = Dataset(rng.standard_normal((10, 3)), rng.integers(1, 4, 10))
        path = tmp_path / "labeled.csv"
        write_dataset_csv(data, path)
        header = path.read_text().splitlines()[0]
        assert header == "f1,f2,f3,label"
        back = read_dataset_csv(path)
        assert np.array_equal(back.features, data.features)
        assert np.array_equal(back.labels, data.labels)

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


def _valid_fields(cls) -> dict:
    """Keyword arguments that build a valid ``cls`` with two classes, made
    afresh on each call."""
    return {
        Dataset: dict(features=np.zeros((2, 2)), labels=[1, 2]),
        TransitionMatrix: dict(q=np.eye(2)),
        ClassPrior: dict(p=[0.5, 0.5]),
        Projection: dict(w=np.eye(2)),
        GammaWeights: dict(gamma=np.ones(2)),
        GmmSpec: dict(means=np.zeros((2, 2)),
                      covariances=np.stack([np.eye(2)] * 2),
                      priors=ClassPrior([0.5, 0.5])),
        LocationScale: dict(shift=np.zeros((2, 2)), scale=np.ones((2, 2))),
        LinearFitResult: dict(w=Projection(np.eye(2)),
                              alpha=ClassPrior([0.5, 0.5]),
                              objective_trace=np.array([0.2, 0.1]),
                              stop_reason="converged",
                              config=LinearFitConfig(d_prime=2), sigma=1.0),
    }[cls]


FLOAT_FIELDS = [(Dataset, "features"), (TransitionMatrix, "q"),
                (ClassPrior, "p"), (Projection, "w"), (GammaWeights, "gamma"),
                (GmmSpec, "means"), (GmmSpec, "covariances"),
                (LocationScale, "shift"), (LocationScale, "scale"),
                (LinearFitResult, "objective_trace")]
ARRAY_FIELDS = FLOAT_FIELDS + [(Dataset, "labels")]


class TestArrayFieldRule:
    # every float field of every value type is refused with one message
    # when it holds a NaN or an inf, so a bad input fails at construction
    # rather than as a later LinAlgError or a NaN result
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("cls, name", FLOAT_FIELDS,
                             ids=[f"{c.__name__}.{n}" for c, n in FLOAT_FIELDS])
    def test_non_finite_refused(self, cls, name, bad):
        kwargs = _valid_fields(cls)
        value = np.array(kwargs[name], dtype=np.float64)
        value.flat[-1] = bad
        kwargs[name] = value
        with pytest.raises(ValueError,
                           match=rf"^{name} contain non-finite entries$"):
            cls(**kwargs)

    @pytest.mark.parametrize("cls", sorted({c for c, _ in FLOAT_FIELDS},
                                           key=lambda c: c.__name__))
    def test_every_array_field_is_read_only(self, cls):
        obj = cls(**_valid_fields(cls))
        arrays = [getattr(obj, f.name) for f in dataclasses.fields(obj)
                  if isinstance(getattr(obj, f.name), np.ndarray)]
        assert arrays
        for a in arrays:
            assert a.flags.c_contiguous
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = a.flat[0]


class TestCopyRule:
    # a value type stores its own copy of each array it is given, even one
    # already of the field's dtype and layout: the caller's array stays
    # writable, and writing to it leaves the stored field as it was
    @pytest.mark.parametrize("cls, name", ARRAY_FIELDS,
                             ids=[f"{c.__name__}.{n}" for c, n in ARRAY_FIELDS])
    def test_input_is_copied(self, cls, name):
        kwargs = _valid_fields(cls)
        given = np.array(kwargs[name],
                         dtype=np.int64 if name == "labels" else np.float64)
        kwargs[name] = given
        stored = getattr(cls(**kwargs), name)
        before = stored.copy()
        assert given.flags.writeable
        assert not np.shares_memory(given, stored)
        given.flat[0] += 1
        assert np.array_equal(stored, before)

    def test_refused_input_stays_writable(self):
        given = np.array([1.5, -0.5])
        with pytest.raises(ValueError, match="^prior entries must be finite"):
            ClassPrior(given)
        assert given.flags.writeable


def _train_labels(labels):
    labels = np.asarray(labels)
    train(np.zeros((labels.size, 2)), labels, TransitionMatrix(np.eye(2)),
          GammaWeights(np.ones(2)), TrainConfig(hidden_units=2, epochs=1))


class TestLabelRule:
    # one check of 1-based labels behind every type and function that takes
    # them, at c = 2
    @pytest.mark.parametrize("labels, message", [
        ([1, 0], "labels must be >= 1, got 0"),
        ([1, 3], "labels must lie in 1..2"),
        (np.array([], dtype=np.int64), "labels must be a non-empty vector"),
        ([1, 1.5], "labels must be integers"),
        ([True, True], "labels must be integers"),
    ], ids=["zero", "c-plus-one", "empty", "non-integer", "boolean"])
    @pytest.mark.parametrize("consumer", [
        lambda y: Dataset(np.zeros((len(y), 2)), y, 2),
        lambda y: _MmdProblem(np.zeros((len(y), 2)), y, np.zeros((2, 2)),
                              np.eye(2), 1.0),
        lambda y: empirical_prior(np.asarray(y), 2),
        _train_labels,
    ], ids=["Dataset", "_MmdProblem", "empirical_prior", "train"])
    def test_bad_labels_refused(self, consumer, labels, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            consumer(labels)
