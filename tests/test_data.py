"""Loader, normalizer, split, and corpus-generation tests."""

import os

import numpy as np
import pytest

from kplsvm import data, datasets, trainer
from kplsvm.errors import DataError, TrainingError


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


class TestCsvLoader:
    def test_two_row_example(self, tmp_path):
        p = write(tmp_path, "t.csv", "1,0.5,0.5\n-1,0,1\n")
        ds = data.load_csv(p)
        assert ds.X.shape == (2, 2)
        assert ds.y.tolist() == [1.0, -1.0]
        assert ds.label_map == {-1: -1.0, 1: 1.0}

    def test_zero_one_labels_remap(self, tmp_path):
        p = write(tmp_path, "t.csv", "0,1.0\n1,2.0\n0,3.0\n")
        ds = data.load_csv(p)
        assert ds.y.tolist() == [-1.0, 1.0, -1.0]
        assert ds.label_map == {0: -1.0, 1: 1.0}

    def test_one_two_labels_remap(self, tmp_path):
        p = write(tmp_path, "t.csv", "2,1.0\n1,2.0\n")
        ds = data.load_csv(p)
        # smaller original label -> -1
        assert ds.y.tolist() == [1.0, -1.0]

    def test_text_labels_lexicographic(self, tmp_path):
        p = write(tmp_path, "t.csv", "b,1.0\na,2.0\n")
        ds = data.load_csv(p)
        assert ds.label_map == {"a": -1.0, "b": 1.0}

    def test_label_column_last(self, tmp_path):
        p = write(tmp_path, "t.csv", "0.5,0.25,1\n0.1,0.2,0\n")
        ds = data.load_csv(p, label_col=-1)
        assert ds.y.tolist() == [1.0, -1.0]
        assert ds.X[0].tolist() == [0.5, 0.25]

    def test_header_auto_skip(self, tmp_path):
        p = write(tmp_path, "t.csv", "label,f1\n1,0.5\n0,0.25\n")
        ds = data.load_csv(p)
        assert len(ds) == 2

    def test_ragged_row_reports_line(self, tmp_path):
        p = write(tmp_path, "t.csv", "1,0.5\n0,1,7\n")
        with pytest.raises(DataError, match=r"t\.csv:2"):
            data.load_csv(p)

    def test_non_numeric_feature_reports_line(self, tmp_path):
        p = write(tmp_path, "t.csv", "1,0.5\n0,oops\n")
        with pytest.raises(DataError, match=":2"):
            data.load_csv(p)

    def test_three_label_values_rejected(self, tmp_path):
        p = write(tmp_path, "t.csv", "0,1\n1,1\n2,1\n")
        with pytest.raises(DataError, match="2 label values"):
            data.load_csv(p)


    @pytest.mark.parametrize("name, text, kwargs, match", [
        ("t.csv", "\n  \n", {}, "empty file"),
        ("t.csv", "1,0.5\n0,0.25\n", {"label_col": 2},
         "label column 2 out of range for width 2"),
        ("t.svm", "# only a comment\n\n", {"fmt": "libsvm"}, "empty file"),
    ])
    def test_file_without_rows_or_label_column(self, tmp_path, name, text,
                                               kwargs, match):
        p = write(tmp_path, name, text)
        with pytest.raises(DataError, match=match):
            data.load_dataset(p, **kwargs)


class TestLibsvmLoader:
    def test_sparse_to_dense(self, tmp_path):
        p = write(tmp_path, "t.svm", "1 1:0.5 3:2\n-1 2:1\n")
        ds = data.load_libsvm(p)
        assert ds.X.tolist() == [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]]
        assert ds.y.tolist() == [1.0, -1.0]

    def test_comment_and_blank_lines(self, tmp_path):
        p = write(tmp_path, "t.svm", "# c\n\n1 1:1\n-1 1:2 # tail\n")
        ds = data.load_libsvm(p)
        assert len(ds) == 2

    def test_bad_token_reports_line(self, tmp_path):
        p = write(tmp_path, "t.svm", "1 1:1\n-1 0:3\n")
        with pytest.raises(DataError, match=":2"):
            data.load_libsvm(p)

    def test_dispatch(self, tmp_path):
        p = write(tmp_path, "t.svm", "1 1:1\n-1 1:2\n")
        ds = data.load_dataset(p, fmt="libsvm")
        assert ds.X.shape == (2, 1)
        with pytest.raises(DataError):
            data.load_dataset(p, fmt="parquet")


class TestByteOrderMark:
    # a UTF-8 byte-order mark, as Excel's "CSV UTF-8" writes, is not part
    # of the first field: every row loads and the labels map to +-1
    @pytest.mark.parametrize("name, text, kwargs", [
        ("t.csv", "0.5,0.25,1\n0.1,0.2,0\n0.3,0.7,1\n0.9,0.4,0\n",
         {"label_col": -1}),
        ("t.csv", "1,0.5,0.25\n0,0.1,0.2\n1,0.3,0.7\n0,0.9,0.4\n", {}),
        ("t.svm", "1 1:0.5 2:0.25\n-1 1:0.1\n1 2:0.7\n-1 1:0.9\n",
         {"fmt": "libsvm"}),
    ])
    def test_leading_bom_is_skipped(self, tmp_path, name, text, kwargs):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8-sig")
        assert p.read_bytes().startswith(b"\xef\xbb\xbf")
        ds = data.load_dataset(str(p), **kwargs)
        assert ds.y.tolist() == [1.0, -1.0, 1.0, -1.0]
        assert ds.X.shape == (4, 2)
        assert ds.X[0].tolist() == [0.5, 0.25]


class TestNormalizer:
    def test_affine_map(self):
        tr = data.fit_normalizer(np.array([[0.0], [5.0], [10.0]]))
        out = tr.apply(np.array([[0.0], [5.0], [10.0]]))
        assert out.ravel().tolist() == [-1.0, 0.0, 1.0]

    def test_constant_column_maps_to_zero(self):
        tr = data.fit_normalizer(np.array([[3.0, 1.0], [3.0, 2.0]]))
        out = tr.apply(np.array([[3.0, 1.5]]))
        assert out[0, 0] == 0.0

    def test_out_of_range_not_clipped(self):
        tr = data.fit_normalizer(np.array([[0.0], [10.0]]))
        assert tr.apply(np.array([[12.0]]))[0, 0] == pytest.approx(1.4)

    def test_training_range_lands_in_unit_box(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(40, 5)) * 10 + 3
        out = data.fit_normalizer(X).apply(X)
        assert out.min() >= -1.0 - 1e-12 and out.max() <= 1.0 + 1e-12

    def test_dimension_mismatch(self):
        tr = data.fit_normalizer(np.zeros((3, 2)) + [[0, 1], [1, 2], [2, 3]])
        with pytest.raises(DataError):
            tr.apply(np.zeros((1, 3)))
        for X in (np.zeros(3), np.zeros((0, 3)), np.zeros((2, 1))):
            with pytest.raises(DataError, match="expected 2 features"):
                tr.apply(X)

    @pytest.mark.parametrize("shape", [(2, 3, 1), (2, 3, 3), (1, 2, 3)])
    def test_input_must_be_one_or_two_d(self, shape):
        tr = data.fit_normalizer(np.arange(6.0).reshape(2, 3))
        with pytest.raises(DataError):
            tr.apply(np.zeros(shape))
        with pytest.raises(DataError, match="2-d"):
            data.fit_normalizer(np.zeros(shape))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected(self, value):
        # a NaN once fitted NaN bounds, and apply passed inf through
        X = np.array([[value, 1.0], [2.0, 3.0]])
        with pytest.raises(DataError, match="non-finite"):
            data.fit_normalizer(X)
        tr = data.fit_normalizer(np.array([[0.0, 1.0], [2.0, 3.0]]))
        with pytest.raises(DataError, match="non-finite"):
            tr.apply(X)
        with pytest.raises(DataError, match="non-finite"):
            tr.apply(X[0])

    @pytest.mark.parametrize("X, match", [
        ([1.0, 2.0, 3.0], "nonempty 2-d"),
        (np.zeros((0, 3)), "nonempty 2-d"),
        ([[1.0, 2.0], [3.0]], "real numbers"),
    ], ids=["1-d", "empty", "ragged"])
    def test_fit_needs_a_nonempty_2d_block(self, X, match):
        # a 1-d X is one row elsewhere, but a fit needs a block of samples
        with pytest.raises(DataError, match=match):
            data.fit_normalizer(X)

    @pytest.mark.parametrize("shape, out_shape", [((0, 3), (0, 3)),
                                                  ((3,), (1, 3))])
    def test_empty_and_single_row_apply(self, shape, out_shape):
        tr = data.fit_normalizer(np.arange(6.0).reshape(2, 3))
        out = tr.apply(np.broadcast_to([1.5, 2.5, 3.5], shape))  # midpoints
        assert out.shape == out_shape
        assert (out == 0.0).all()


class TestAsRows:
    def test_one_d_is_one_row(self):
        out = data.as_rows([1, 2, 3])
        assert out.shape == (1, 3) and out.dtype == float

    def test_float_block_is_not_copied(self):
        X = np.ones((4, 2))
        assert data.as_rows(X, 2) is X

    @pytest.mark.parametrize("X, match", [
        (np.zeros((2, 2, 2)), "expected 2-d sample array, got shape"),
        (np.float64(1.0), "expected 2-d sample array, got shape"),
        ([[1.0, np.nan]], "non-finite feature values"),
        (np.zeros((3, 4)), "expected 2 features, got 4"),
        (np.zeros(4), "expected 2 features, got 4"),
        ([["1.0", "x"]], "real numbers"),
        ([[1.0, 2.0], [3.0]], "real numbers"),
    ], ids=["rank3", "scalar", "nan", "width", "1-d width", "string",
            "ragged"])
    def test_rejects(self, X, match):
        with pytest.raises(DataError, match=match):
            data.as_rows(X, 2)

    def test_empty_block_passes(self):
        assert data.as_rows(np.zeros((0, 2)), 2).shape == (0, 2)


class TestSplit:
    def make(self, l=306):
        rng = np.random.default_rng(0)
        y = np.where(rng.random(l) < 0.5, -1.0, 1.0)
        y[:2] = [-1.0, 1.0]
        return data.Dataset(rng.normal(size=(l, 3)), y, name="toy")

    def test_sizes(self):
        tr, te = data.split_dataset(self.make(306), 150, seed=0)
        assert len(tr) == 150 and len(te) == 156
        assert not set(tr) & set(te)

    def test_seed_determinism(self):
        ds = self.make()
        a = data.split_dataset(ds, 150, seed=5)
        b = data.split_dataset(ds, 150, seed=5)
        c = data.split_dataset(ds, 150, seed=6)
        d = data.split_dataset(ds, np.int64(150), seed=np.uint8(5))
        assert a[0].tolist() == b[0].tolist() == d[0].tolist()
        assert a[0].tolist() != c[0].tolist()

    def test_predefined_is_file_order(self):
        tr, te = data.split_dataset(self.make(10), 4, predefined=True)
        assert tr.tolist() == [0, 1, 2, 3]
        assert te.tolist() == [4, 5, 6, 7, 8, 9]

    def test_out_of_range(self):
        with pytest.raises(DataError):
            data.split_dataset(self.make(10), 10)
        with pytest.raises(DataError):
            data.split_dataset(self.make(10), 0)

    @pytest.mark.parametrize("n_train, seed, match", [
        (10.5, 0, "n_train"),
        ("10", 0, "n_train"),
        (np.float64(10.0), 0, "n_train"),
        (10, 1.5, "seed"),
        (10, "1", "seed"),
        (True, 0, "n_train"),
        (10, True, "seed"),
    ])
    def test_integer_arguments(self, n_train, seed, match):
        with pytest.raises(DataError, match=match):
            data.split_dataset(self.make(), n_train, seed=seed)

    def test_env_seed_override(self, monkeypatch):
        ds = self.make()
        monkeypatch.setenv("KPLSVM_SEED", "9")
        a = data.split_dataset(ds, 150, seed=None)
        monkeypatch.delenv("KPLSVM_SEED")
        b = data.split_dataset(ds, 150, seed=9)
        assert a[0].tolist() == b[0].tolist()
        # unset, the default seed is 0
        a = data.split_dataset(ds, 150, seed=None)
        b = data.split_dataset(ds, 150, seed=0)
        assert a[0].tolist() == b[0].tolist()

    def test_negative_seed_rejected(self, monkeypatch):
        # numpy's generator takes no negative seed; say so as a DataError
        with pytest.raises(DataError, match="non-negative"):
            data.split_dataset(self.make(), 150, seed=-1)
        # a predefined split draws nothing, so the seed is never read
        monkeypatch.setenv("KPLSVM_SEED", "-1")
        tr, _ = data.split_dataset(self.make(10), 4, predefined=True)
        assert tr.tolist() == [0, 1, 2, 3]

    def test_env_seed_malformed(self, monkeypatch):
        monkeypatch.setenv("KPLSVM_SEED", "nope")
        with pytest.raises(DataError):
            data.default_seed()


class TestClassRatio:
    """The negative class's cap is C0 times n_positive / n_negative."""

    def test_two_to_one(self):
        y = np.array([1.0] * 10 + [-1.0] * 5)
        C = trainer._class_caps(y, 0.5, True)
        assert C.tolist() == [0.5] * 10 + [1.0] * 5

    def test_balanced(self):
        C = trainer._class_caps(np.array([1.0, -1.0]), 0.5, True)
        assert C.tolist() == [0.5, 0.5]

    def test_one_class_absent(self):
        with pytest.raises(TrainingError):
            trainer._class_caps(np.ones(4), 0.5, True)


# Positive-class sizes of the rule-labeled full grids.  Inclusion-exclusion:
# problem 1: 432(1/3 + 1/4 - 1/12) = 216; problem 2: sum over attribute
# pairs of prod(domain-1) over the rest = 142; problem 3:
# 36 + 216 - 24 = 228.
GRID_POSITIVES = {1: 216, 2: 142, 3: 228}


def loop_labels(which, A):
    out = []
    for a1, a2, a3, a4, a5, a6 in A.astype(int):
        if which == 1:
            v = a1 == a2 or a5 == 1
        elif which == 2:
            v = sum(int(a == 1) for a in (a1, a2, a3, a4, a5, a6)) == 2
        else:
            v = (a5 == 3 and a4 == 1) or (a5 != 4 and a2 != 3)
        out.append(int(v))
    return np.array(out)


class TestMonkGeneration:
    def test_grid_shape_and_domains(self):
        G = datasets.monk_grid()
        assert G.shape == (432, 6)
        assert len(np.unique(G, axis=0)) == 432
        for j, d in enumerate(datasets.MONK_DOMAINS):
            assert sorted(set(G[:, j])) == list(range(1, d + 1))

    @pytest.mark.parametrize("which", [1, 2, 3])
    def test_rule_labels_match_loop_oracle(self, which):
        G = datasets.monk_grid()
        y = datasets.monk_labels(which, G)
        assert y.tolist() == loop_labels(which, G).tolist()
        assert int(y.sum()) == GRID_POSITIVES[which]

    @pytest.mark.parametrize("which,n_train", [(1, 124), (2, 169), (3, 122)])
    def test_train_blocks(self, which, n_train):
        Xtr, ytr, Xte, yte = datasets.make_monk(which)
        assert Xtr.shape == (n_train, 6) and Xte.shape == (432, 6)
        clean = datasets.monk_labels(which, Xtr)
        flips = int((clean != ytr).sum())
        assert flips == (6 if which == 3 else 0)
        # test block is always rule-true
        assert (datasets.monk_labels(which, Xte) == yte).all()

    @pytest.mark.parametrize("make", [
        lambda: datasets.monk_labels(4, datasets.monk_grid()),
        lambda: datasets.make_monk(0),
    ], ids=["monk_labels", "make_monk"])
    def test_unknown_problem(self, make):
        with pytest.raises(DataError, match="unknown Monk problem"):
            make()

    def test_seed_changes_draw(self):
        a = datasets.make_monk(1, seed=0)[0]
        b = datasets.make_monk(1, seed=1)[0]
        assert a.tolist() != b.tolist()


class TestCorpus:
    def test_monk1_ingestion_via_manifest(self, tmp_path):
        datasets.write_corpus(tmp_path, include={"monk1"})
        entries = datasets.load_manifest(tmp_path / "manifest.csv")
        assert len(entries) == 1 and entries[0].seed is None
        ds = datasets.resolve_split(entries[0], tmp_path)
        tr, te = ds.split
        assert len(tr) == 124 and len(te) == 432
        assert ds.X.shape == (556, 6)
        # test half is the exact grid
        assert ds.X[te].tolist() == datasets.monk_grid().tolist()

    def test_standin_shapes_and_manifest(self, tmp_path):
        names = {"haberman", "spect", "votes"}
        datasets.write_corpus(tmp_path, include=names)
        entries = {e.name: e for e in
                   datasets.load_manifest(tmp_path / "manifest.csv")}
        assert set(entries) == names
        hab = datasets.resolve_split(entries["haberman"], tmp_path)
        assert hab.X.shape == (306, 3) and len(hab.split[0]) == 150
        assert entries["haberman"].seed == 0
        spect = datasets.resolve_split(entries["spect"], tmp_path)
        assert spect.X.shape == (267, 21)
        assert entries["spect"].seed is None
        assert set(np.unique(spect.X)) <= {0.0, 1.0}

    def test_generation_deterministic(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        datasets.write_corpus(d1, include={"heart-statlog", "monk3"})
        datasets.write_corpus(d2, include={"heart-statlog", "monk3"})
        for f in ("heart-statlog.csv", "monk3.csv", "manifest.csv"):
            assert (d1 / f).read_bytes() == (d2 / f).read_bytes()

    def test_full_corpus_row_counts(self, tmp_path):
        small = {r.name: r for r in datasets.CORPUS_TABLE
                 if r.name != "spambase"}
        datasets.write_corpus(tmp_path, include=set(small))
        for e in datasets.load_manifest(tmp_path / "manifest.csv"):
            ds = datasets.resolve_split(e, tmp_path)
            row = small[e.name]
            assert ds.X.shape == (row.rows, row.features), e.name
            assert len(ds.split[0]) == row.n_train

    def test_manifest_errors(self, tmp_path):
        p = tmp_path / "m.csv"
        for row, match in [("a,b.csv,csv,x,", "bad n_train"),
                           ("a,b.csv,csv,10,x", "bad seed"),
                           ("a,b.csv,csv,10", "expected 5 fields, got 4")]:
            p.write_text(f"name,path,format,n_train,seed\n{row}\n")
            with pytest.raises(DataError, match=f":1: {match}"):
                datasets.load_manifest(p)

    def test_split_indices_validated(self):
        X = np.zeros((4, 1))
        y = np.array([1.0, -1.0, 1.0, -1.0])
        with pytest.raises(DataError):
            data.Dataset(X, y, split=([0, 1], [1, 2]))
        with pytest.raises(DataError):
            data.Dataset(X, y, split=([0], [9]))
        with pytest.raises(DataError, match="train indices"):
            data.Dataset(X, y, split=([0, 4], [1]))
        # row numbers are integers: none is rounded or taken as 0/1
        for split, match in ((([0.5, 1.9], [2.2]), "train indices"),
                             (([0], np.array([2.0, 3.0])), "test indices"),
                             (([True, False], [2]), "train indices"),
                             (([True, 2], [3]), "train indices"),
                             ((["a"], [1]), "train indices"),
                             (([[0], [1, 2]], [3]), "train indices"),
                             (([0], 3), "test indices"),
                             (([0], [1], [2]), "a \\(train, test\\) pair")):
            with pytest.raises(DataError, match=match):
                data.Dataset(X, y, split=split)

    @pytest.mark.parametrize("X, y, match", [
        (np.zeros(4), [1.0, -1.0, 1.0, -1.0], "2-d"),
        (np.zeros((4, 1)), [[1.0, -1.0, 1.0, -1.0]], "2-d"),
        (np.zeros((3, 1)), [1.0, -1.0, 1.0, -1.0], "row counts"),
        ([[0.0], [np.inf], [1.0], [2.0]], [1.0, -1.0, 1.0, -1.0],
         "non-finite"),
        (np.zeros((4, 1)), [1.0, 0.0, 1.0, 0.0], "labels must be"),
        ([["a"], ["b"]], [1.0, -1.0], "real numbers"),
        ([[0.0], [1.0, 2.0]], [1.0, -1.0], "real numbers"),
    ])
    def test_dataset_arrays_validated(self, X, y, match):
        with pytest.raises(DataError, match=match):
            data.Dataset(X, y)
