"""Staged grid search over the piecewise-linear loss family.

Stage 1 tunes (C0[, q]) with the hinge loss; stage 2 keeps that pair
fixed and sweeps the loss parameters of each richer family (pinball,
two-piece, three-piece).  Selection uses either held-out test accuracy
("holdout") or k-fold cross-validation on the training split.
The report generator writes per-dataset and consolidated CSV tables.
"""

from __future__ import annotations

import csv
import itertools
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .data import as_labelled, as_rows, open_text, write_rows
from .datasets import load_manifest, resolve_split
from .errors import DataError, KplsvmError, check_integer, check_reals
from .kernels import KERNEL_KINDS, KernelSpec
from .loss import LossSpec, canonical
from .trainer import TrainParams, train

__all__ = [
    "GridSpec",
    "CellRecord",
    "GridSearchReport",
    "FAMILIES",
    "staged_search",
    "evaluate",
    "benchmark_run",
    "REPORT_COLUMNS",
]

# Fixed column order for every report CSV this module writes.
REPORT_COLUMNS = ("dataset", "family", "accuracy", "time_s", "c0", "q",
                  "tau1", "tau2", "eps1", "eps2", "criterion")

#: Each loss family, in nesting order, with the report columns it leaves
#: free; a slot it does not list is 0.0.  Grid cells, report columns and
#: replay rows are all read from this table.
FAMILY_PARAMS = {
    "hinge": (),
    "pinball": ("tau1",),
    "2pl": ("tau1", "eps1"),
    "3pl": ("tau1", "tau2", "eps1", "eps2"),
}
_SLOTS = ("tau1", "tau2", "eps1", "eps2")

#: "hinge" rows come from stage 1, the others from stage 2.  The LS-SVM
#: comparison column of the published tables uses a different solver
#: family; reports keep an external slot for it instead.
FAMILIES = tuple(FAMILY_PARAMS)
EXTERNAL_SLOT = "ls-svm-external"


def _power_grid():
    return tuple(2.0 ** p for p in range(-7, 8))


def _step_grid(lo, hi, step):
    n = int(round((hi - lo) / step)) + 1
    return tuple(round(lo + i * step, 10) for i in range(n))


@dataclass(frozen=True)
class GridSpec:
    """Search grids; defaults follow the benchmark protocol."""

    c0_grid: tuple = field(default_factory=_power_grid)
    q_grid: tuple = field(default_factory=_power_grid)
    tau_grid: tuple = field(default_factory=lambda: _step_grid(-1.0, 1.0, 0.2))
    eps_grid: tuple = field(default_factory=lambda: _step_grid(-5.0, 5.0, 0.5))

    def __post_init__(self):
        for name in ("c0_grid", "q_grid", "tau_grid", "eps_grid"):
            positive = name in ("c0_grid", "q_grid")
            rule = "finite and positive" if positive else "finite"
            g = check_reals(getattr(self, name), DataError,
                            f"{name} values must be {rule}", positive)
            if not g:
                raise DataError(f"{name} must be nonempty")
            if any(b <= a for a, b in zip(g, g[1:])):
                raise DataError(f"{name} must be strictly increasing")
            object.__setattr__(self, name, g)


@dataclass
class CellRecord:
    """One evaluated grid cell (or one replayed parameter tuple)."""

    family: str
    c0: float
    q: float | None
    taus: tuple
    epsilons: tuple
    accuracy: float | None      # None when the cell failed
    time_s: float
    error: str | None = None


@dataclass
class GridSearchReport:
    dataset: str
    kernel_kind: str
    criterion: str
    chosen_c0: float | None
    chosen_q: float | None
    records: list
    best: dict                   # family -> CellRecord | None

    def best_accuracy(self, family):
        cell = self.best.get(family)
        return None if cell is None else cell.accuracy


def evaluate(model, X, y) -> float:
    """Accuracy percentage (three decimals) of ``model`` on a test split; X
    passes ``data.as_rows`` and then, with y, ``data.as_labelled``."""
    X, y = as_labelled(as_rows(X), y)
    if y.size == 0:
        raise DataError("cannot evaluate on an empty test set")
    return round(100.0 * int(np.sum(model.predict(X) == y)) / y.size, 3)


def _fold_assignment(y, folds):
    """Deterministic stratified folds: round-robin within each class."""
    fold = np.empty(len(y), dtype=int)
    for label in (-1.0, 1.0):
        idx = np.flatnonzero(y == label)
        fold[idx] = np.arange(len(idx)) % folds
    return fold


class _Scorer:
    """Accuracy of training problems on fixed splits, with a result cache.

    The splits are fixed once: holdout is the one split (training rows,
    test rows), cross-validation the (fit, validation) rows of each
    nonempty stratified fold of the training rows.  Accuracy is pooled
    over the validation rows.  Duplicate grid cells (pieces in another
    order, duplicated pieces, the tau=0 pinball cell vs. plain hinge, a
    3-piece cell whose extra piece never tops the envelope vs. its
    2-piece twin) are one envelope-minimal training problem, so they
    share one criterion value, which makes the nested-family dominance
    of the report exact.
    """

    def __init__(self, dataset, criterion, folds):
        if dataset.split is None:
            raise DataError("staged_search requires a dataset with a split")
        self.X, self.y = dataset.X, dataset.y
        tr, te = dataset.split
        self.splits = [(tr, te)]
        if criterion == "cv":
            fold = _fold_assignment(self.y[tr], folds)
            self.splits = [(tr[fold != f], tr[fold == f])
                           for f in range(folds) if np.any(fold == f)]
        self._validation_rows = sum(len(val) for _, val in self.splits)
        if not self._validation_rows:
            raise DataError("no validation samples in any split")
        self._cache = {}

    def score(self, params):
        """(accuracy | None, error | None, seconds) of one ``TrainParams``.

        ``params`` is both the cache key and what gets trained; its loss
        is canonical (envelope-minimal), so ``train`` leaves it unchanged.
        The first call of a problem trains it and reports its time; a
        later call reads the cached result and reports 0.0.
        """
        if params in self._cache:
            return self._cache[params] + (0.0,)
        t0 = time.perf_counter()
        try:
            acc, err = self._score_uncached(params), None
        except KplsvmError as exc:
            acc, err = None, _error_text(exc)
        self._cache[params] = acc, err
        return acc, err, time.perf_counter() - t0

    def _score_uncached(self, params):
        correct = 0
        for fit_idx, val_idx in self.splits:
            model = train(self.X[fit_idx], self.y[fit_idx], params)
            correct += int(np.sum(model.predict(self.X[val_idx])
                                  == self.y[val_idx]))
        return round(100.0 * correct / self._validation_rows, 3)


def _loss_params(family, values):
    """(taus, eps) of ``family``: free slots from ``values``, others 0.0."""
    free = FAMILY_PARAMS[family]
    t1, t2, e1, e2 = (values[s] if s in free else 0.0 for s in _SLOTS)
    return ((t1, t2), (e1, e2)) if "tau2" in free else ((t1,), (e1,))


def _family_params(family, grids):
    """Loss-parameter tuples of one family, in ascending grid order.

    The free slots nest in ``FAMILY_PARAMS`` order (for the 3-piece
    loss tau1, then tau2, eps1, eps2).
    """
    free = FAMILY_PARAMS[family]
    axes = [grids.tau_grid if s.startswith("tau") else grids.eps_grid
            for s in free]
    for values in itertools.product(*axes):
        yield _loss_params(family, dict(zip(free, values)))


def _kernel_for(kernel_kind, q):
    """The linear kernel, or the RBF kernel of width q (1.0 when blank)."""
    if kernel_kind == "linear":
        return KernelSpec(kind="linear")
    return KernelSpec(kind="rbf", q=1.0 if q is None else q)


def _error_text(exc):
    return f"{type(exc).__name__}: {exc}"


def _run_cells(cells, scorer, kernel_kind):
    """Score (family, c0, q, taus, eps) cells; one record each, in order.

    Each cell becomes one frozen ``TrainParams`` (its loss canonicalized
    once to the envelope-minimal spec, its C0 and its kernel) and is
    scored at once, in grid order on this thread.  That record is the
    scorer's cache key and what ``train`` receives; each ``CellRecord``
    keeps the cell's own taus and epsilons.  The first cell of a problem
    keeps its time, later ones read 0.0 s from the scorer's cache.  A
    cell whose problem cannot be built (its loss, C0 or RBF width) is
    recorded with its error.
    """
    records = []
    for cell in cells:
        _, c0, q, taus, eps = cell
        try:
            params = TrainParams(
                loss=canonical(LossSpec(taus=taus, epsilons=eps)), c0=c0,
                kernel=_kernel_for(kernel_kind, q))
        except KplsvmError as exc:
            acc, err, dt = None, _error_text(exc), 0.0
        else:
            acc, err, dt = scorer.score(params)
        records.append(CellRecord(*cell, acc, dt, err))
    return records


def _pick_best(records):
    """First best record that trained: earlier grid order wins ties."""
    return max((rec for rec in records if rec.accuracy is not None),
               key=lambda rec: rec.accuracy, default=None)


def _check_kernel_kind(kernel_kind):
    if kernel_kind not in KERNEL_KINDS:
        raise DataError(f"kernel_kind must be {' or '.join(KERNEL_KINDS)}, "
                        f"got {kernel_kind!r}")


def staged_search(dataset, kernel_kind="linear", grids=None,
                  criterion="cv", folds=5, jobs=1) -> GridSearchReport:
    """Run the two-stage protocol on a split dataset.

    ``criterion`` is "holdout" (held-out test accuracy, the
    published tuning protocol) or "cv" (stratified ``folds``-fold
    cross-validation on the training split); both score each distinct
    training problem once (see ``_Scorer``).  Cells that fail to train
    are recorded with their error and skipped by the arg-max.

    Every cell trains in grid order on the calling thread.  ``jobs`` (an
    integer >= 1) is reserved for grid cells in worker processes (ROADMAP
    Open item 6) and changes nothing until then.
    """
    check_integer(jobs, 1, DataError, "jobs must be at least 1 (int)")
    _check_kernel_kind(kernel_kind)
    if criterion not in ("cv", "holdout"):
        raise DataError(f"unknown criterion {criterion!r}")
    check_integer(folds, 2, DataError, "folds must be >= 2")
    grids = grids or GridSpec()
    scorer = _Scorer(dataset, criterion, folds)
    crit_label = "holdout" if criterion == "holdout" else f"cv{folds}"

    q_values = grids.q_grid if kernel_kind == "rbf" else (None,)

    def cells_for(family, c0s, qs):
        return [(family, c0, q, taus, eps) for c0 in c0s for q in qs
                for taus, eps in _family_params(family, grids)]

    records, best = [], {}

    # Stage 1: hinge over (C0[, q]).
    stage1 = _run_cells(cells_for("hinge", grids.c0_grid, q_values),
                        scorer, kernel_kind)
    records.extend(stage1)
    best["hinge"] = _pick_best(stage1)
    if best["hinge"] is None:
        raise DataError(f"stage 1 failed on every grid cell for {dataset.name!r}")
    chosen_c0, chosen_q = best["hinge"].c0, best["hinge"].q

    # Stage 2: richer families at the stage-1 pair.
    for family in FAMILIES[1:]:
        cells = _run_cells(cells_for(family, (chosen_c0,), (chosen_q,)),
                           scorer, kernel_kind)
        records.extend(cells)
        best[family] = _pick_best(cells)

    return GridSearchReport(dataset=dataset.name, kernel_kind=kernel_kind,
                            criterion=crit_label, chosen_c0=chosen_c0,
                            chosen_q=chosen_q, records=records, best=best)


# ---------------------------------------------------------------------------
# report files


def _fmt(v):
    return "" if v is None else repr(float(v))


def _param_fields(rec):
    """(c0, q, tau1, tau2, eps1, eps2) strings; only free params shown."""
    values = dict(zip(("tau1", "tau2"), rec.taus))
    values.update(zip(("eps1", "eps2"), rec.epsilons))
    free = FAMILY_PARAMS[rec.family]
    return (_fmt(rec.c0), _fmt(rec.q)) + tuple(
        _fmt(values[s]) if s in free else "" for s in _SLOTS)


def _report_row(dataset_name, family, criterion, rec=None, timing=False):
    """One ``REPORT_COLUMNS`` row; without a record its values are blank."""
    if rec is None:
        return (dataset_name, family) + ("",) * 8 + (criterion,)
    return ((dataset_name, family,
             "" if rec.accuracy is None else f"{rec.accuracy:.3f}",
             f"{rec.time_s:.3f}" if timing else "0.000")
            + _param_fields(rec) + (criterion,))


def _write_records_csv(path, dataset_name, criterion, records, timing):
    write_rows(path, [REPORT_COLUMNS + ("error",)] + [
        _report_row(dataset_name, rec.family, criterion, rec, timing)
        + (rec.error or "",) for rec in records])


def _consolidated_rows(report, timing):
    rows = [_report_row(report.dataset, family, report.criterion,
                        report.best[family], timing)
            for family in FAMILIES if report.best.get(family) is not None]
    rows.append(_report_row(report.dataset, EXTERNAL_SLOT, "external"))
    return rows


def _load_replay_table(path):
    """Replay rows: dataset -> [(family, c0, q, taus, eps)] in file order."""
    table = {}
    with open_text(path) as fh:
        # a row with fewer fields than the header reads the rest as blank
        reader = csv.DictReader(fh, restval="")
        need = {"dataset", "family", "c0", "q", *_SLOTS}
        if reader.fieldnames is None or not need <= set(reader.fieldnames):
            raise DataError(f"{path}: replay table needs columns {sorted(need)}")
        for lineno, row in enumerate(reader, 2):
            fam = row["family"].strip()
            if fam not in FAMILY_PARAMS:
                raise DataError(f"{path}:{lineno}: unknown family {fam!r}")
            try:
                c0 = float(row["c0"])
                q = float(row["q"]) if row["q"].strip() else None
                vals = {k: float(row[k]) for k in _SLOTS if row[k].strip()}
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad number: {exc}") from exc
            missing = [k for k in FAMILY_PARAMS[fam] if k not in vals]
            if missing:
                raise DataError(
                    f"{path}:{lineno}: {fam} needs {', '.join(missing)}")
            table.setdefault(row["dataset"].strip(), []).append(
                (fam, c0, q) + _loss_params(fam, vals))
    return table


def _replay_dataset(dataset, rows, kernel_kind):
    """Score fixed tuples on the held-out split, in replay report shape.

    Each family's best is its last row in the table.
    """
    scorer = _Scorer(dataset, "holdout", folds=None)
    records = _run_cells(rows, scorer, kernel_kind)
    best = {rec.family: rec for rec in records}
    return GridSearchReport(dataset=dataset.name, kernel_kind=kernel_kind,
                            criterion="replay", chosen_c0=None, chosen_q=None,
                            records=records, best=best)


def benchmark_run(manifest, outdir, grids=None, kernel_kind="linear",
                  criterion="cv", folds=5, replay=None,
                  jobs=1, timing=True, include=None):
    """Search (or replay) every manifest dataset and write report CSVs.

    ``replay`` is a fixed-parameter table path; when given, the grid
    search is skipped and each listed tuple is trained directly, one
    training per canonical key as in the search (see ``_run_cells``).
    ``jobs`` is reserved, as in ``staged_search``.
    ``include`` limits the run to the named manifest entries; a name the
    manifest lacks is a ``DataError``.  Missing or unreadable datasets
    produce a warning row and the run continues.  Returns
    ``{"consolidated": path, "datasets": {name: path}, "warnings": [...]}``.
    With ``timing=False`` every time field is written as 0.000 so that
    repeated runs are byte-identical.
    """
    check_integer(jobs, 1, DataError, "jobs must be at least 1 (int)")
    _check_kernel_kind(kernel_kind)
    entries = load_manifest(manifest)
    absent = sorted(set(include or ()) - {entry.name for entry in entries})
    if absent:
        raise DataError(f"{manifest}: no datasets named {', '.join(absent)}")
    base_dir = os.path.dirname(os.path.abspath(manifest))
    os.makedirs(outdir, exist_ok=True)
    replay_table = _load_replay_table(replay) if replay is not None else None

    rows, per_dataset, warnings = [], {}, []
    for entry in entries:
        if include is not None and entry.name not in include:
            continue
        try:
            ds = resolve_split(entry, base_dir)
        except (OSError, KplsvmError) as exc:
            msg = f"skipped: {exc}"
            warnings.append(f"{entry.name}: {msg}")
            rows.append(_report_row(entry.name, "warning", msg))
            continue
        if replay_table is not None:
            fixed = replay_table.get(entry.name, [])
            if not fixed:
                msg = "skipped: no replay parameters"
                warnings.append(f"{entry.name}: {msg}")
                rows.append(_report_row(entry.name, "warning", msg))
                continue
            report = _replay_dataset(ds, fixed, kernel_kind)
        else:
            report = staged_search(ds, kernel_kind=kernel_kind, grids=grids,
                                   criterion=criterion, folds=folds, jobs=jobs)
            rec_path = os.path.join(outdir, f"{entry.name}_records.csv")
            _write_records_csv(rec_path, entry.name, report.criterion,
                               report.records, timing)
            per_dataset[entry.name] = rec_path
        rows.extend(_consolidated_rows(report, timing))

    out = os.path.join(outdir, "consolidated.csv")
    write_rows(out, [REPORT_COLUMNS, *rows])
    return {"consolidated": out, "datasets": per_dataset, "warnings": warnings}
