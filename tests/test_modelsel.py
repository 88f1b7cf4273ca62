"""Grid-search protocol, evaluation harness, and benchmark reports."""

import collections
import os
import threading

import numpy as np
import pytest
from conftest import monk_dataset

from kplsvm import datasets, loss, modelsel
from kplsvm.data import Dataset
from kplsvm.errors import DataError, TrainingError
from kplsvm.modelsel import (CellRecord, GridSpec, REPORT_COLUMNS, evaluate,
                             staged_search, benchmark_run)
from kplsvm.trainer import TrainParams


def blob_dataset(seed=0, n_per=12, gap=2.0, n_test=20):
    rng = np.random.default_rng(seed)
    n = 2 * n_per + 2 * n_test
    X = rng.normal(size=(n, 2))
    y = np.concatenate([np.ones(n_per), -np.ones(n_per),
                        np.ones(n_test), -np.ones(n_test)])
    X[y > 0, 0] += gap
    X[y < 0, 0] -= gap
    tr = np.arange(2 * n_per)
    te = np.arange(2 * n_per, n)
    return Dataset(X, y, name="blob", split=(tr, te))


TINY = GridSpec(c0_grid=(0.125, 1.0), q_grid=(1.0,),
                tau_grid=(-0.4, 0.0, 0.4), eps_grid=(0.0, 0.5))


class TestGridSpec:
    def test_default_grids_match_protocol(self):
        g = GridSpec()
        assert g.c0_grid == tuple(2.0 ** p for p in range(-7, 8))
        assert g.q_grid == g.c0_grid
        assert len(g.tau_grid) == 11
        assert g.tau_grid[0] == -1.0 and g.tau_grid[-1] == 1.0
        assert np.allclose(np.diff(g.tau_grid), 0.2)
        assert len(g.eps_grid) == 21
        assert g.eps_grid[0] == -5.0 and g.eps_grid[-1] == 5.0
        assert np.allclose(np.diff(g.eps_grid), 0.5)

    def test_three_piece_grid_size(self):
        # tau x tau x eps x eps at fixed C0
        cells = sum(1 for _ in modelsel._family_params("3pl", GridSpec()))
        assert cells == 11 * 11 * 21 * 21

    def test_stage2_canonical_key_count(self):
        # the criterion-07 stage-2 grid: its pinball, 2pl and 3pl cells
        # at one (C0, q) reduce to 651 envelope-minimal training problems
        grids = GridSpec(tau_grid=(-0.8, -0.4, 0.0, 0.4, 0.8),
                         eps_grid=tuple(range(-5, 6)))
        specs = [loss.LossSpec(taus, eps)
                 for family in ("pinball", "2pl", "3pl")
                 for taus, eps in modelsel._family_params(family, grids)]
        assert len(specs) == 3085
        keys = {loss.canonical(s) for s in specs}
        assert collections.Counter(s.k for s in keys) == {3: 596, 2: 55}

    @pytest.mark.parametrize("bad", [
        dict(c0_grid=()),
        dict(tau_grid=(0.0, 0.0)),
        dict(eps_grid=(1.0, -1.0)),
        dict(c0_grid=(-1.0, 1.0)),
        dict(q_grid=(0.0, 1.0)),
        dict(tau_grid=(0.0, float("inf"))),
        dict(c0_grid=(None,)),
        dict(c0_grid=("a",)),
        dict(tau_grid=("0.5",)),
        dict(q_grid=(True,)),
        dict(c0_grid=None),
        dict(c0_grid=1.0),
        dict(eps_grid=np.float64(0.5)),
    ])
    def test_validation(self, bad):
        with pytest.raises(DataError):
            GridSpec(**bad)


class TestEvaluate:
    class _Const:
        def __init__(self, v):
            self.v = v

        def predict(self, X):
            return np.full(len(X), self.v)

    def test_perfect_and_constant(self):
        X = np.zeros((4, 2))
        y = np.array([1.0, 1.0, -1.0, -1.0])
        assert evaluate(self._Const(1.0), X[:2], y[:2]) == 100.0
        assert evaluate(self._Const(1.0), X, y) == 50.0

    def test_three_decimal_rounding(self):
        y = np.concatenate([np.ones(119), -np.ones(144 - 119)])
        assert evaluate(self._Const(1.0), np.zeros((144, 1)), y) == 82.639

    def test_empty_test_set(self):
        with pytest.raises(DataError):
            evaluate(self._Const(1.0), np.zeros((0, 2)), np.zeros(0))

    @pytest.mark.parametrize("n_labels", [1, 3, 5])
    def test_label_count_must_match_rows(self, n_labels):
        # one label would broadcast against every row
        with pytest.raises(DataError,
                           match=rf"X \(4, 2\) and y \({n_labels},\)"):
            evaluate(self._Const(1.0), np.zeros((4, 2)), np.ones(n_labels))

    def test_labels_must_be_one_d(self):
        # a 1-d X is one row, but a scalar label is not a label vector
        X, y = np.zeros((4, 2)), np.ones(4)
        with pytest.raises(DataError, match=r"X \(1, 2\) and y \(\)"):
            evaluate(self._Const(1.0), X[0], y[0])

    @pytest.mark.parametrize("X, y, match", [
        (np.zeros((4, 2)), [1.0, 0.0, 1.0, 0.0], "labels must be"),
        (np.zeros((4, 2)), np.full(4, 2.0), "labels must be"),
        (np.zeros((4, 2)), np.full(4, np.nan), "labels must be"),
        (np.zeros((2, 2)), ["a", "b"], "real numbers"),
        ([["a", "b"]], [1.0], "real numbers"),
        ([[0.0, 1.0], [2.0]], [1.0, -1.0], "real numbers"),
    ], ids=["0/1 labels", "labels 2", "nan labels", "string labels",
            "string row", "ragged rows"])
    def test_malformed_samples_rejected(self, X, y, match):
        # labels outside +-1 were once scored as if they were classes
        with pytest.raises(DataError, match=match):
            evaluate(self._Const(1.0), X, y)

    def test_holdout_score_is_evaluate(self, monkeypatch):
        # 100 * 23 / 320 is 7.1875 exactly; 100 * (23 / 320) is not
        monkeypatch.setattr(modelsel, "train",
                            lambda X, y, params: self._Const(1.0))
        y = np.concatenate([np.ones(2), -np.ones(2),
                            np.ones(23), -np.ones(320 - 23)])
        ds = Dataset(np.zeros((len(y), 1)), y, name="tie",
                     split=(np.arange(4), np.arange(4, len(y))))
        scorer = modelsel._Scorer(ds, "holdout", folds=5)
        acc, err, _ = scorer.score(TrainParams(loss=loss.hinge(), c0=1.0))
        assert err is None and acc == 7.188
        assert evaluate(self._Const(1.0), ds.X[4:], y[4:]) == 7.188


class TestFoldAssignment:
    def test_stratified_round_robin(self):
        y = np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0, -1.0])
        fold = modelsel._fold_assignment(y, 2)
        # within each class, alternating folds in index order
        assert fold.tolist() == [0, 0, 1, 0, 1, 1, 0, 1]
        for label in (1.0, -1.0):
            counts = np.bincount(fold[y == label], minlength=2)
            assert abs(counts[0] - counts[1]) <= 1

    def test_deterministic(self):
        y = np.where(np.arange(30) % 3 == 0, 1.0, -1.0)
        a = modelsel._fold_assignment(y, 5)
        b = modelsel._fold_assignment(y, 5)
        assert np.array_equal(a, b)


class TestStagedSearch:
    def test_report_shape(self):
        rep = staged_search(blob_dataset(), "linear", TINY,
                            criterion="holdout")
        n_stage1 = len(TINY.c0_grid)
        n_stage2 = (len(TINY.tau_grid)
                    + len(TINY.tau_grid) * len(TINY.eps_grid)
                    + len(TINY.tau_grid) ** 2 * len(TINY.eps_grid) ** 2)
        assert len(rep.records) == n_stage1 + n_stage2
        for fam in modelsel.FAMILIES:
            assert isinstance(rep.best[fam], CellRecord)
        # the external slot is a report row of its own, not a family
        assert set(rep.best) == set(modelsel.FAMILIES)
        assert rep.criterion == "holdout"
        assert rep.chosen_q is None  # linear kernel has no width

    def test_best_is_argmax_of_family(self):
        rep = staged_search(blob_dataset(), "linear", TINY,
                            criterion="holdout")
        for fam in modelsel.FAMILIES:
            accs = [r.accuracy for r in rep.records
                    if r.family == fam and r.accuracy is not None]
            assert rep.best[fam].accuracy == max(accs)

    def test_tie_breaks_to_smaller_c0(self):
        # widely separated blobs: every C0 scores 100, smallest must win
        rep = staged_search(blob_dataset(gap=4.0), "linear", TINY,
                            criterion="holdout")
        assert rep.best["hinge"].accuracy == 100.0
        assert rep.chosen_c0 == TINY.c0_grid[0]

    def test_nested_family_dominance(self):
        for crit in ("holdout", "cv"):
            rep = staged_search(monk_dataset(3), "linear", TINY,
                                criterion=crit, folds=3)
            accs = [rep.best[f].accuracy for f in modelsel.FAMILIES]
            assert all(a <= b for a, b in zip(accs, accs[1:])), (crit, accs)

    def test_shared_cells_score_identically(self):
        # pinball tau=0 is the hinge cell; duplicated-piece 3pl cells
        # canonicalize onto their 2pl counterparts
        rep = staged_search(monk_dataset(3), "linear", TINY,
                            criterion="holdout")
        chosen = rep.chosen_c0
        hinge = rep.best["hinge"].accuracy
        pin0 = [r for r in rep.records
                if r.family == "pinball" and r.taus == (0.0,)]
        assert pin0[0].accuracy == hinge
        two = {(r.taus[0], r.epsilons[0]): r.accuracy
               for r in rep.records if r.family == "2pl"}
        dup = [r for r in rep.records
               if r.family == "3pl" and r.taus[0] == r.taus[1]
               and r.epsilons[0] == r.epsilons[1]]
        for r in dup:
            assert r.accuracy == two[(r.taus[0], r.epsilons[0])]
        # a 3pl cell with a piece under the envelope is its 2pl twin
        dominated = 0
        for r in rep.records:
            if r.family != "3pl" or r in dup:
                continue
            canon = loss.canonical(loss.LossSpec(r.taus, r.epsilons))
            if canon.k == 2:
                dominated += 1
                assert r.accuracy == two[canon.taus[0], canon.epsilons[0]]
        assert dominated > 0

    def test_stage1_monk3_published_c0_near_optimal(self):
        # Full power-of-two C0 sweep.  The regenerated train draw can
        # shift the argmax by a grid notch, so the reference choice
        # (0.125) is held to the usual 2pp replication tolerance instead
        # of exact identity.
        grids = GridSpec(tau_grid=(0.0,), eps_grid=(0.0,))
        rep = staged_search(monk_dataset(3), "linear", grids,
                            criterion="holdout")
        assert rep.chosen_c0 in grids.c0_grid
        at_published = [r.accuracy for r in rep.records if r.c0 == 0.125]
        assert abs(at_published[0] - rep.best["hinge"].accuracy) <= 2.0

    def test_failures_recorded_and_search_continues(self, monkeypatch):
        real = modelsel.train

        def flaky(X, y, params):
            if params.c0 == TINY.c0_grid[1]:
                raise TrainingError("forced failure")
            return real(X, y, params)

        monkeypatch.setattr(modelsel, "train", flaky)
        rep = staged_search(blob_dataset(), "linear", TINY,
                            criterion="holdout")
        failed = [r for r in rep.records if r.error is not None]
        assert failed and all("forced failure" in r.error for r in failed)
        assert all(r.accuracy is None for r in failed)
        assert rep.best["hinge"].c0 == TINY.c0_grid[0]

    def test_all_cells_failing_raises(self, monkeypatch):
        def broken(X, y, params):
            raise TrainingError("down")

        monkeypatch.setattr(modelsel, "train", broken)
        with pytest.raises(DataError, match="stage 1"):
            staged_search(blob_dataset(), "linear", TINY)

    def test_rbf_stage1_sweeps_q(self):
        grids = GridSpec(c0_grid=(1.0,), q_grid=(0.5, 2.0),
                         tau_grid=(0.0,), eps_grid=(0.0,))
        rep = staged_search(blob_dataset(), "rbf", grids,
                            criterion="holdout")
        stage1 = [r for r in rep.records if r.family == "hinge"]
        assert sorted(r.q for r in stage1) == [0.5, 2.0]
        assert rep.chosen_q in (0.5, 2.0)
        stage2 = [r for r in rep.records if r.family != "hinge"]
        assert all(r.q == rep.chosen_q for r in stage2)

    def test_jobs_do_not_change_results(self):
        # jobs is reserved and changes nothing today; this regains its
        # meaning when grid cells run in worker processes (ROADMAP item 6)
        for kernel_kind in ("linear", "rbf"):
            a, b = (staged_search(blob_dataset(), kernel_kind, TINY,
                                  criterion="holdout", jobs=jobs)
                    for jobs in (1, 2))
            assert [(r.family, r.c0, r.q, r.taus, r.epsilons, r.accuracy,
                     r.time_s == 0.0) for r in a.records] == \
                   [(r.family, r.c0, r.q, r.taus, r.epsilons, r.accuracy,
                     r.time_s == 0.0) for r in b.records]

    def test_input_validation(self):
        ds = blob_dataset()
        with pytest.raises(DataError, match="kernel_kind must be"):
            staged_search(ds, "poly", TINY)
        with pytest.raises(DataError):
            staged_search(ds, "linear", TINY, criterion="bootstrap")
        for folds in (1, "3", 2.5, None):
            with pytest.raises(DataError, match="folds"):
                staged_search(ds, "linear", TINY, folds=folds)
        for kernel_kind in ("linear", "rbf"):
            for jobs in (0, 1.5, "2"):
                with pytest.raises(DataError, match="jobs"):
                    staged_search(ds, kernel_kind, TINY, jobs=jobs)
        with pytest.raises(DataError):
            staged_search(Dataset(ds.X, ds.y), "linear", TINY)

    def test_empty_validation_split_fails_before_training(self,
                                                          monkeypatch):
        # holdout on a split with no test rows has nothing to score, so
        # it fails as a whole before any cell trains
        trains = []
        monkeypatch.setattr(modelsel, "train",
                            lambda *args: trains.append(args))
        ds = blob_dataset()
        ds = Dataset(ds.X, ds.y, split=(np.arange(len(ds)), []))
        with pytest.raises(DataError,
                           match="^no validation samples in any split$"):
            modelsel._Scorer(ds, "holdout", folds=None)
        with pytest.raises(DataError,
                           match="^no validation samples in any split$"):
            staged_search(ds, "linear", TINY, criterion="holdout")
        assert trains == []

    def test_cv_label_carries_fold_count(self):
        for folds in (3, np.int64(3)):      # a numpy integer is an integer
            rep = staged_search(blob_dataset(), "linear",
                                GridSpec(c0_grid=(1.0,), q_grid=(1.0,),
                                         tau_grid=(0.0,), eps_grid=(0.0,)),
                                criterion="cv", folds=folds)
            assert rep.criterion == "cv3"

    def test_duplicates_train_once(self, monkeypatch):
        real = modelsel.train

        def counted(X, y, params):
            canon = loss.canonical(params.loss)
            trains[canon.taus, canon.epsilons, params.c0] += 1
            return real(X, y, params)

        monkeypatch.setattr(modelsel, "train", counted)
        # each pair below canonicalizes to one training problem
        cells = [("hinge", 1.0, None, (0.0,), (0.0,)),
                 ("3pl", 1.0, None, (0.0, 0.0), (0.0, 0.0)),
                 ("3pl", 1.0, None, (0.4, -0.4), (0.5, 0.0)),
                 ("3pl", 1.0, None, (-0.4, 0.4), (0.0, 0.5))] * 3
        for kernel_kind in ("rbf", "linear"):
            trains = collections.Counter()
            scorer = modelsel._Scorer(blob_dataset(), "holdout", folds=5)
            records = modelsel._run_cells(cells, scorer, kernel_kind)
            assert len(trains) == 2
            assert set(trains.values()) == {1}
            # the first cell of each key in grid order holds the time
            assert [i for i, r in enumerate(records)
                    if r.time_s != 0.0] == [0, 2]
            assert records[0].accuracy == records[1].accuracy
            assert records[2].accuracy == records[3].accuracy

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rbf_cells_train_on_the_calling_thread(self, jobs, tmp_path,
                                                   monkeypatch):
        real = modelsel.train
        threads = []

        def recorded(X, y, params):
            threads.append(threading.current_thread())
            return real(X, y, params)

        monkeypatch.setattr(modelsel, "train", recorded)
        staged_search(blob_dataset(), "rbf", TINY, criterion="holdout",
                      jobs=jobs)
        searched = len(threads)
        datasets.write_corpus(tmp_path, include={"monk3"})
        rp = tmp_path / "replay.csv"
        rp.write_text("dataset,family,c0,q,tau1,tau2,eps1,eps2\n"
                      "monk3,hinge,1,2,,,,\n"
                      "monk3,2pl,1,0.5,0.4,,0.5,\n", encoding="utf-8")
        benchmark_run(tmp_path / "manifest.csv", tmp_path / "rep",
                      kernel_kind="rbf", replay=rp, jobs=jobs, timing=False)
        assert searched > 0 and len(threads) == searched + 2
        assert set(threads) == {threading.current_thread()}

    def test_dominated_cell_shares_its_2pl_twins_key(self, monkeypatch):
        real = modelsel.train
        trained = []

        def counted(X, y, params):
            trained.append(params.loss)
            return real(X, y, params)

        monkeypatch.setattr(modelsel, "train", counted)
        scorer = modelsel._Scorer(blob_dataset(), "holdout", folds=5)
        # -0.2u - 1 lies below max(u, -0.5u): the 3pl cell is the 2pl one
        cells = [("2pl", 1.0, None, (0.5,), (0.0,)),
                 ("3pl", 1.0, None, (0.5, 0.2), (0.0, -1.0))]
        two, three = modelsel._run_cells(cells, scorer, "linear")
        assert trained == [loss.pinball(0.5)]
        assert two.accuracy is not None and three.accuracy == two.accuracy
        assert two.time_s > 0.0 and three.time_s == 0.0
        assert (three.taus, three.epsilons) == ((0.5, 0.2), (0.0, -1.0))
        assert (two.taus, two.epsilons) == ((0.5,), (0.0,))

    def test_cv_folds_are_assigned_once(self, monkeypatch):
        real = modelsel._fold_assignment
        calls = []

        def counted(y, folds):
            calls.append(folds)
            return real(y, folds)

        monkeypatch.setattr(modelsel, "_fold_assignment", counted)
        scorer = modelsel._Scorer(blob_dataset(), "cv", folds=3)
        for spec in (loss.hinge(), loss.pinball(0.4), loss.pinball(-0.4)):
            params = TrainParams(loss=loss.canonical(spec), c0=1.0)
            acc, err, dt = scorer.score(params)
            assert acc is not None and err is None and dt > 0.0
        assert calls == [3]

    def test_each_cell_canonicalizes_once(self, monkeypatch):
        real = loss.canonical
        calls = []

        def counted(spec):
            calls.append(spec)
            return real(spec)

        # modelsel imports the name; train reaches it through the module
        monkeypatch.setattr(modelsel, "canonical", counted)
        monkeypatch.setattr(loss, "canonical", counted)
        scorer = modelsel._Scorer(blob_dataset(), "holdout", folds=5)
        cells = [("3pl", 1.0, None, (0.4, -0.4), (0.5, 0.0)),
                 ("3pl", 1.0, None, (-0.4, 0.4), (0.0, 0.5)),
                 ("3pl", 1.0, None, (0.0, 0.0), (1.0, 1.0))]
        records = modelsel._run_cells(cells, scorer, "linear")
        # once per cell in the search, and each cell is scored before the
        # next is built: a new key trains at once and canonicalizes once
        # more inside train, where the canonical spec maps to itself; the
        # second cell's key is the first's, so it reads the cache
        specs = [loss.LossSpec(taus, eps) for _, _, _, taus, eps in cells]
        assert calls == [specs[0], real(specs[0]), specs[1],
                         specs[2], real(specs[2])]
        # each record keeps its cell's own parameters
        assert [(r.taus, r.epsilons) for r in records] == [
            (taus, eps) for _, _, _, taus, eps in cells]
        assert records[0].accuracy == records[1].accuracy


class TestBenchmarkRun:
    @pytest.fixture()
    def corpus(self, tmp_path):
        datasets.write_corpus(tmp_path, include={"monk3", "fertility"})
        return tmp_path

    def test_search_mode_outputs(self, corpus, tmp_path):
        out = benchmark_run(corpus / "manifest.csv", tmp_path / "rep",
                            grids=TINY, criterion="holdout",
                            timing=False)
        with open(out["consolidated"], encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == ",".join(REPORT_COLUMNS)
        fams = [ln.split(",")[1] for ln in lines[1:]]
        block = list(modelsel.FAMILIES) + ["ls-svm-external"]
        assert fams == block * 2  # one block per manifest dataset
        assert set(out["datasets"]) == {"monk3", "fertility"}
        with open(out["datasets"]["monk3"], encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
        assert header == list(REPORT_COLUMNS) + ["error"]

    def test_missing_dataset_warns_and_continues(self, corpus, tmp_path):
        man = corpus / "manifest.csv"
        with open(man, "a", encoding="utf-8") as fh:
            fh.write("ghost,ghost.csv,csv,10,0\n")
        out = benchmark_run(man, tmp_path / "rep", grids=TINY,
                            criterion="holdout", timing=False)
        assert any(w.startswith("ghost:") for w in out["warnings"])
        with open(out["consolidated"], encoding="utf-8") as fh:
            rows = fh.read().splitlines()
        warn = [r for r in rows if r.split(",")[1] == "warning"]
        assert len(warn) == 1 and warn[0].startswith("ghost,")
        # the healthy datasets still produced their family rows
        assert sum(r.split(",")[1] == "3pl" for r in rows) == 2

    def test_negative_manifest_seed_warns_and_continues(self, corpus,
                                                        tmp_path):
        man = corpus / "manifest.csv"
        with open(man, "a", encoding="utf-8") as fh:
            fh.write("negseed,fertility.csv,csv,50,-3\n")
        out = benchmark_run(man, tmp_path / "rep", grids=TINY,
                            criterion="holdout", timing=False)
        assert [w for w in out["warnings"] if w.startswith("negseed:")] == [
            "negseed: skipped: split seed must be non-negative, got -3"]
        assert set(out["datasets"]) == {"monk3", "fertility"}

    def test_include_names_absent_from_manifest(self, corpus, tmp_path):
        with pytest.raises(DataError, match="haberman, monk9"):
            benchmark_run(corpus / "manifest.csv", tmp_path / "rep",
                          grids=TINY, criterion="holdout", timing=False,
                          include={"monk3", "monk9", "haberman"})
        assert not (tmp_path / "rep" / "consolidated.csv").exists()

    def test_include_limits_the_run(self, corpus, tmp_path):
        out = benchmark_run(corpus / "manifest.csv", tmp_path / "rep",
                            grids=TINY, criterion="holdout", timing=False,
                            include={"fertility"})
        assert set(out["datasets"]) == {"fertility"}
        with open(out["consolidated"], encoding="utf-8") as fh:
            names = {r.split(",")[0] for r in fh.read().splitlines()[1:]}
        assert names == {"fertility"}

    @pytest.mark.parametrize("jobs", [0, 1.5, "2"])
    def test_bad_jobs_on_an_empty_manifest(self, jobs, tmp_path):
        man = tmp_path / "manifest.csv"
        man.write_text("name,path,format,n_train,seed\n", encoding="utf-8")
        with pytest.raises(DataError, match="jobs"):
            benchmark_run(man, tmp_path / "rep", grids=TINY, jobs=jobs)
        assert not (tmp_path / "rep").exists()

    def test_empty_manifest_empty_report(self, tmp_path):
        man = tmp_path / "manifest.csv"
        man.write_text("name,path,format,n_train,seed\n", encoding="utf-8")
        out = benchmark_run(man, tmp_path / "rep", grids=TINY)
        with open(out["consolidated"], encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines == [",".join(REPORT_COLUMNS)]
        assert out["warnings"] == []

    def test_byte_identical_reruns(self, corpus, tmp_path):
        args = dict(grids=TINY, criterion="holdout", timing=False)
        a = benchmark_run(corpus / "manifest.csv", tmp_path / "a", **args)
        b = benchmark_run(corpus / "manifest.csv", tmp_path / "b", **args)
        for pa, pb in [(a["consolidated"], b["consolidated"])] + [
                (a["datasets"][n], b["datasets"][n]) for n in a["datasets"]]:
            with open(pa, "rb") as fa, open(pb, "rb") as fb:
                assert fa.read() == fb.read()

    def test_replay_mode(self, corpus, tmp_path):
        rp = tmp_path / "replay.csv"
        rp.write_text(
            "dataset,family,c0,q,tau1,tau2,eps1,eps2\n"
            "monk3,hinge,0.125,,,,,\n"
            "monk3,3pl,0.125,,-0.4,1,0.5,-3.5\n",
            encoding="utf-8")
        out = benchmark_run(corpus / "manifest.csv", tmp_path / "rep",
                            replay=rp, timing=False)
        with open(out["consolidated"], encoding="utf-8") as fh:
            rows = [r.split(",") for r in fh.read().splitlines()[1:]]
        by_fam = {r[1]: r for r in rows if r[0] == "monk3"}
        # reference accuracies: hinge 82.639, 3pl 88.889, both +-2pp
        assert abs(float(by_fam["hinge"][2]) - 82.639) <= 2.0
        assert abs(float(by_fam["3pl"][2]) - 88.889) <= 2.0
        assert by_fam["3pl"][10] == "replay"
        # fertility has no replay rows -> warning, not a crash
        assert any("fertility" in w for w in out["warnings"])
        # an unknown kernel kind is refused before any dataset is read
        with pytest.raises(DataError, match="kernel_kind must be"):
            benchmark_run(corpus / "manifest.csv", tmp_path / "poly",
                          kernel_kind="poly", replay=rp)
        assert not (tmp_path / "poly").exists()

    @pytest.mark.parametrize("kernel_kind", ["linear", "rbf"])
    def test_records_csv_replays_every_cell(self, kernel_kind, tmp_path):
        # linear cells leave q blank, RBF cells fill it
        rep = staged_search(blob_dataset(), kernel_kind, TINY,
                            criterion="holdout")
        path = tmp_path / "records.csv"
        modelsel._write_records_csv(path, "blob", rep.criterion, rep.records,
                                    timing=False)
        cells = [(r.family, r.c0, r.q, r.taus, r.epsilons)
                 for r in rep.records]
        assert {c[0] for c in cells} == set(modelsel.FAMILIES)
        assert modelsel._load_replay_table(path) == {"blob": cells}

    def test_replay_table_validation(self, corpus, tmp_path):
        rp = tmp_path / "bad.csv"
        rp.write_text("dataset,family\nmonk3,hinge\n", encoding="utf-8")
        with pytest.raises(DataError, match="replay table"):
            benchmark_run(corpus / "manifest.csv", tmp_path / "rep", replay=rp)
        rp2 = tmp_path / "bad2.csv"
        rp2.write_text(
            "dataset,family,c0,q,tau1,tau2,eps1,eps2\n"
            "monk3,quartic,1,,,,,\n", encoding="utf-8")
        with pytest.raises(DataError, match="family"):
            benchmark_run(corpus / "manifest.csv", tmp_path / "rep", replay=rp2)
        rp3 = tmp_path / "bad3.csv"
        rp3.write_text("dataset,family,c0,q,tau1,tau2,eps1,eps2\n"
                       "monk3,3pl,1,,0.4\n", encoding="utf-8")
        with pytest.raises(DataError, match=r":2: 3pl needs tau2, eps1, eps2"):
            modelsel._load_replay_table(rp3)
        rp4 = tmp_path / "bad4.csv"
        rp4.write_text("dataset,family,c0,q,tau1,tau2,eps1,eps2\n"
                       "monk3,hinge,1,,,,,\n"
                       "monk3,pinball,one,,0.4,,,\n", encoding="utf-8")
        with pytest.raises(DataError, match=r":3: bad number"):
            modelsel._load_replay_table(rp4)

    def test_replay_records_failed_rows_and_goes_on(self, tmp_path):
        rp = tmp_path / "replay.csv"
        rp.write_text(
            "dataset,family,c0,q,tau1,tau2,eps1,eps2\n"
            "blob,hinge,1,,,,,\n"
            "blob,pinball,1,,nan,,,\n"
            "blob,2pl,-1,,0.4,,0.5,\n"
            "blob,3pl,1,,-0.4,0.4,0.5,0\n", encoding="utf-8")
        rows = modelsel._load_replay_table(rp)["blob"]
        rep = modelsel._replay_dataset(blob_dataset(), rows, "linear")
        hinge, pinball, two, three = rep.records
        assert pinball.accuracy is None
        assert pinball.error.startswith("RepresentationError")
        assert two.accuracy is None
        assert two.error.startswith("TrainingError") and "c0" in two.error
        for rec in (hinge, three):
            assert rec.error is None and rec.accuracy is not None
        # each family's best is its last row, failed or not
        assert rep.best["pinball"] is pinball and rep.best["3pl"] is three

    def test_replay_trains_each_canonical_key_once(self, monkeypatch):
        real = modelsel.train

        def counted(X, y, params):
            calls.append(params)
            return real(X, y, params)

        monkeypatch.setattr(modelsel, "train", counted)
        # the pinball loss at tau = 0 is the hinge loss
        rows = [("hinge", 1.0, None, (0.0,), (0.0,)),
                ("pinball", 1.0, None, (0.0,), (0.0,))]
        for kernel_kind in ("linear", "rbf"):
            calls = []
            rep = modelsel._replay_dataset(blob_dataset(), rows, kernel_kind)
            assert len(calls) == 1
            assert calls[0].kernel.kind == kernel_kind
            hinge, pinball = rep.records
            assert pinball.accuracy == hinge.accuracy
            assert pinball.time_s == 0.0
