"""Inputs and rounds of the three workloads.

Each workload is a closed loop with one caller: its ``*_round`` function
performs one round of the workload's operations and records its samples
in a ``Round``; ``run.py`` repeats whole rounds until the run length is
reached.  Every model that trains is checked with ``certify`` and its
held-out accuracy against decision values computed here from the model's
fields.  The checks run inside ``Round.checking()``, which keeps them out
of the round's time and out of a traced run's spans.

All data are the corpus stand-ins of ``kplsvm.datasets`` at corpus seed 0
(the ones ``kplsvm make-data`` writes and the acceptance tests use), split
with seed 0.  Those inputs are fixed because the solver's stall (see
``STALL_CELL``) strikes cells of other stand-in seeds at random: on the
haberman stand-in of seeds 1 and 2 the criterion-07 search loses 3 and 24
cells, so a seeded data set would make the failed share differ by seed.
The run's ``--seed`` orders the training rows and held-out rows of
``train-large`` and the cells of ``stress-3pl``.
"""

from __future__ import annotations

import contextlib
import os
import time

import numpy as np

from kplsvm import datasets, model_io, modelsel, trainer
from kplsvm.data import Dataset, split_dataset
from kplsvm.errors import KplsvmError
from kplsvm.kernels import KernelSpec
from kplsvm.loss import LossSpec

import certify

# At l = 800 the 3-piece linear configuration returns a model labelled
# optimal whose own KKT residual (9.4e-6) and duality gap (1.5e-5) miss the
# bounds the acceptance tests put on them; the independent certificate
# reads 7.7e-6.  The traced run counts it in trainer.kkt_gap_misses.
LARGE_TRAIN_ROWS = 800
LARGE_CONFIGS = (
    ("3pl-linear", LossSpec((-0.4, 0.4), (0.5, -1.0)), KernelSpec("linear")),
    ("2pl-linear", LossSpec((0.4,), (0.5,)), KernelSpec("linear")),
    ("3pl-rbf", LossSpec((-0.4, 0.4), (0.5, -1.0)),
     KernelSpec("rbf", q=4.0)),
    ("2pl-rbf", LossSpec((0.4,), (0.5,)), KernelSpec("rbf", q=4.0)),
)
LARGE_C0 = 1.0
PREDICT_REPEATS = 10

# criterion 07 of the acceptance tests
SEARCH_GRIDS = dict(
    tau_grid=tuple(round(-0.8 + 0.4 * i, 10) for i in range(5)),
    eps_grid=tuple(float(v) for v in range(-5, 6)))

STRESS_CELLS = 300
STRESS_DRAW_SEED = 1
STRESS_TAUS = tuple(round(-1.0 + 0.2 * i, 10) for i in range(11))
STRESS_EPS = tuple(round(-5.0 + 0.5 * i, 10) for i in range(21))
STRESS_C0S = tuple(2.0 ** p for p in range(-7, 8))
# The interior point stops once its stall counter reaches 12 and reports
# status "max_iter" after 15 iterations, so train raises TrainingError.
STALL_CELL = ("haberman", (-0.8, 0.0), (0.0, -1.0), 128.0)


def standin(name):
    """(X, y, train_idx, test_idx) of a corpus stand-in, corpus seed 0."""
    row = next(r for r in datasets.CORPUS_TABLE if r.name == name)
    X, y01 = datasets.make_standin(name, row.rows, row.features, seed=0,
                                   binary=row.binary)
    y = y01 * 2.0 - 1.0
    tr, te = split_dataset(Dataset(X, y), row.n_train, seed=0)
    return X, y, tr, te


def stress_cells():
    """The fixed sweep: STRESS_CELLS seeded draws plus the stall cell."""
    rng = np.random.default_rng(STRESS_DRAW_SEED)
    cells = []
    for _ in range(STRESS_CELLS):
        name = ("haberman", "heart-statlog")[int(rng.integers(2))]
        taus = tuple(float(v) for v in rng.choice(STRESS_TAUS, 2))
        eps = tuple(float(v) for v in rng.choice(STRESS_EPS, 2))
        cells.append((name, taus, eps, float(rng.choice(STRESS_C0S))))
    cells.append(STALL_CELL)
    return cells


def prepare(workload, seed):
    """The workload's inputs; the same seed gives the same inputs."""
    rng = np.random.default_rng(seed)
    if workload == "train-large":
        X, y, _, _ = standin("spambase")
        tr, te = split_dataset(Dataset(X, y), LARGE_TRAIN_ROWS, seed=0)
        tr, te = rng.permutation(tr), rng.permutation(te)
        return {"Xtr": X[tr], "ytr": y[tr], "Xte": X[te], "yte": y[te]}
    if workload == "search-3pl":
        X, y, tr, te = standin("haberman")
        return {"dataset": Dataset(X, y, name="haberman", split=(tr, te))}
    if workload == "stress-3pl":
        data = {}
        for name in ("haberman", "heart-statlog"):
            X, y, tr, te = standin(name)
            data[name] = (X[tr], y[tr], X[te], y[te])
        return {"data": data, "cells": stress_cells(), "rng": rng}
    raise ValueError(f"unknown workload {workload!r}")


def warm_up():
    """One small train and predict, so lazy imports and caches are filled."""
    X, y, tr, _ = standin("haberman")
    model = trainer.train(X[tr[:60]], y[tr[:60]], trainer.TrainParams(
        loss=LossSpec((-0.4, 0.4), (0.5, -1.0)), c0=1.0))
    model.predict(X)


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def _train(X, y, spec, c0, kernel=KernelSpec()):
    """(model | None, seconds); None when training raised."""
    params = trainer.TrainParams(loss=spec, c0=c0, kernel=kernel)
    t0 = time.perf_counter()
    try:
        model = trainer.train(X, y, params)
    except KplsvmError:
        model = None
    return model, time.perf_counter() - t0


class Round:
    """Samples and findings of one round.

    ``quiet`` is the context in which the benchmark's own checks run:
    the tracer's pause in a traced run, else a null context.
    """

    def __init__(self, quiet=contextlib.nullcontext):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.samples: dict[str, list] = {}
        self.check_s = 0.0
        self._quiet = quiet

    def add(self, key, value):
        self.samples.setdefault(key, []).append(value)

    @contextlib.contextmanager
    def checking(self):
        """The benchmark's own checks: untraced, outside the round's time."""
        t0 = time.perf_counter()
        try:
            with self._quiet():
                yield
        finally:
            self.check_s += time.perf_counter() - t0

    def check(self, ok, what):
        if not ok:
            self.errors.append(what)

    def certify_model(self, model, X, y, c0, what):
        try:
            cert = certify.certificate(model, X, y, c0)
        except ValueError as exc:   # a support row that is no training row
            self.check(False, f"{what}: {exc}")
            return
        self.check(certify.certified(cert),
                   f"{what}: certificate failed {cert}")

    def check_accuracy(self, model, Xtr, Xte, yte, acc, what):
        """``acc`` (percent) against the sign of the checker's own f.

        Returns the rows kplsvm should predict +1, with the near-ties
        that either side may take.
        """
        f = _own_decision(model, Xtr, Xte)
        tie = np.abs(f) <= 1e-9 * (1.0 + np.abs(model.beta).sum())
        own = np.where(f >= 0, 1.0, -1.0)
        self.check(abs(acc - 100.0 * np.mean(own == yte))
                   <= 100.0 * np.mean(tie) + 5e-4,
                   f"{what}: accuracy {acc} is not that of the sign of f")
        return own, tie


def _own_decision(model, Xtr, X):
    """Decision values from the model's fields, scaled like training."""
    mins, maxs = Xtr.min(axis=0), Xtr.max(axis=0)
    S = certify.scale_features(X, mins, maxs)
    k = model.kernel
    return certify.kernel_matrix(k.kind, k.q, k.rbf_form, S,
                                 model.support_x) @ model.beta + model.bias


@contextlib.contextmanager
def _timing(owner, attr, times):
    """Append the wall time of every call of ``owner.attr`` to ``times``."""
    fn = getattr(owner, attr)

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            times.append(time.perf_counter() - t0)

    setattr(owner, attr, timed)
    try:
        yield
    finally:
        setattr(owner, attr, fn)


def large_round(rnd, inp, outdir):
    """Train each configuration, predict and score the held-out rows, persist.

    A model that is bit for bit the one a previous round certified keeps
    that round's checks; any other model is checked in full.
    """
    Xtr, ytr, Xte, yte = inp["Xtr"], inp["ytr"], inp["Xte"], inp["yte"]
    checked = inp.setdefault("checked", {})
    majority = max(np.mean(yte > 0), np.mean(yte < 0))
    for name, spec, kernel in LARGE_CONFIGS:
        rnd.attempted += 1
        model, dt = _train(Xtr, ytr, spec, LARGE_C0, kernel)
        rnd.add("train_s", dt)
        rnd.add(f"train_s/{name}", dt)
        if model is None:
            rnd.failed += 1
            continue
        for _ in range(PREDICT_REPEATS):
            pred, dt = _timed(model.predict, Xte)
            rnd.add(f"predict_s/{name}", dt)
        acc = modelsel.evaluate(model, Xte, yte)
        path = os.path.join(outdir, f"model-{name}.json")
        model_io.save_model(model, path)
        loaded = model_io.load_model(path)
        with rnd.checking():
            rnd.check(np.array_equal(loaded.predict(Xte), pred),
                      f"{name}: the loaded model predicts differently")
            seen = checked.get(name)
            if seen is not None and model.bias == seen[0] \
                    and np.array_equal(model.beta, seen[1]) \
                    and np.array_equal(pred, seen[2]) and acc == seen[3]:
                continue
            n_errors = len(rnd.errors)
            rnd.certify_model(model, Xtr, ytr, LARGE_C0, name)
            own, tie = rnd.check_accuracy(model, Xtr, Xte, yte, acc, name)
            rnd.check(np.all((pred == own) | tie),
                      f"{name}: predict differs from the sign of f")
            rnd.check(acc > 100.0 * majority,
                      f"{name}: accuracy {acc} does not beat the majority "
                      f"rate {100.0 * majority:.3f}")
            if len(rnd.errors) == n_errors:
                checked[name] = (model.bias, model.beta, pred, acc)


def search_round(rnd, inp, jobs):
    """One staged search; each train it makes is timed from outside."""
    ds = inp["dataset"]
    trains = []
    with _timing(modelsel, "train", trains):
        report = modelsel.staged_search(
            ds, grids=modelsel.GridSpec(**SEARCH_GRIDS), criterion="holdout",
            jobs=jobs)
    rnd.samples["train_s"] = trains
    rnd.attempted = len(report.records)
    rnd.failed = sum(1 for r in report.records if r.error is not None)
    with rnd.checking():
        best = [report.best_accuracy(f) for f in modelsel.FAMILIES]
        rnd.check(None not in best and best == sorted(best),
                  f"best accuracies not monotone hinge..3pl: {best}")
        tr, te = ds.split
        for family in modelsel.FAMILIES:
            rec = report.best[family]
            if rec is None:
                continue
            model, _ = _train(ds.X[tr], ds.y[tr],
                              LossSpec(rec.taus, rec.epsilons), rec.c0)
            if model is None:
                rnd.check(False, f"best {family} cell does not retrain")
                continue
            rnd.check_accuracy(model, ds.X[tr], ds.X[te], ds.y[te],
                               rec.accuracy, f"best {family}")
            rnd.certify_model(model, ds.X[tr], ds.y[tr], rec.c0,
                              f"best {family}")


def stress_round(rnd, inp):
    """Train and score each cell of the sweep, in the seed's order."""
    cells = inp["cells"]
    for i in inp["rng"].permutation(len(cells)):
        name, taus, eps, c0 = cells[i]
        Xtr, ytr, Xte, yte = inp["data"][name]
        rnd.attempted += 1
        model, dt = _train(Xtr, ytr, LossSpec(taus, eps), c0)
        rnd.add("train_s", dt)
        if model is None:
            rnd.failed += 1
            continue
        acc = modelsel.evaluate(model, Xte, yte)
        with rnd.checking():
            rnd.certify_model(model, Xtr, ytr, c0, f"{cells[i]}")
            rnd.check_accuracy(model, Xtr, Xte, yte, acc, f"{cells[i]}")
