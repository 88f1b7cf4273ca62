"""Staged grid search over the piecewise-linear loss family.

Stage 1 tunes (C0[, q]) with the hinge loss; stage 2 keeps that pair
fixed and sweeps the loss parameters of each richer family (pinball,
two-piece, three-piece).  Selection uses either held-out test accuracy
("holdout") or k-fold cross-validation on the training split.
The report generator writes per-dataset and consolidated CSV tables.
"""

from __future__ import annotations

import csv
import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .datasets import load_manifest, resolve_split
from .errors import DataError, KplsvmError
from .kernels import KernelSpec
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

#: Families searched in stage 2, in nesting order.  "hinge" rows come from
#: stage 1.  The LS-SVM comparison column of the published tables uses a
#: different solver family; reports keep an external slot for it instead.
FAMILIES = ("hinge", "pinball", "2pl", "3pl")
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
    staged: bool = True

    def __post_init__(self):
        for name in ("c0_grid", "q_grid", "tau_grid", "eps_grid"):
            g = tuple(float(v) for v in getattr(self, name))
            if not g:
                raise DataError(f"{name} must be nonempty")
            if not all(np.isfinite(g)):
                raise DataError(f"{name} must be finite")
            if any(b <= a for a, b in zip(g, g[1:])):
                raise DataError(f"{name} must be strictly increasing")
            object.__setattr__(self, name, g)
        if any(c <= 0 for c in self.c0_grid):
            raise DataError("c0_grid values must be positive")
        if any(q <= 0 for q in self.q_grid):
            raise DataError("q_grid values must be positive")


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
    """Accuracy percentage (three decimals) of ``model`` on a test split."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.shape[0] == 0:
        raise DataError("cannot evaluate on an empty test set")
    pred = model.predict(X)
    return round(100.0 * float(np.mean(pred == y)), 3)


def _fold_assignment(y, folds):
    """Deterministic stratified folds: round-robin within each class."""
    fold = np.empty(len(y), dtype=int)
    for label in (-1.0, 1.0):
        idx = np.flatnonzero(y == label)
        fold[idx] = np.arange(len(idx)) % folds
    return fold


class _Scorer:
    """Criterion evaluation with a canonical-spec result cache.

    Duplicate grid cells (pieces in a different order, duplicated
    pieces, the tau=0 pinball cell vs. plain hinge) canonicalize to the
    same training problem, so their criterion values are shared —
    which also makes the nested-family dominance of the report exact.
    """

    def __init__(self, dataset, criterion, folds, balance=True):
        if dataset.split is None:
            raise DataError("staged_search requires a dataset with a split")
        self.X, self.y = dataset.X, dataset.y
        self.tr, self.te = dataset.split
        self.criterion = criterion
        self.folds = folds
        self.balance = balance
        self._cache = {}
        self._lock = threading.Lock()

    def score(self, spec, c0, kspec):
        """(accuracy | None, error | None, seconds) for one config.

        The cache key is the canonical spec, which is also what gets
        trained.  The first caller of a key trains it; a later or
        concurrent caller waits for that result and reports 0.0 seconds.
        """
        spec = canonical(spec)
        k = (spec.taus, spec.epsilons, c0, kspec.kind, kspec.q,
             kspec.rbf_form)
        with self._lock:
            result = self._cache.get(k)
            owner = result is None
            if owner:
                result = self._cache[k] = Future()
        if not owner:
            acc, err = result.result()
            return acc, err, 0.0
        t0 = time.perf_counter()
        try:
            acc, err = self._score_uncached(spec, c0, kspec), None
        except KplsvmError as exc:
            acc, err = None, f"{type(exc).__name__}: {exc}"
        except BaseException as exc:
            result.set_exception(exc)
            raise
        dt = time.perf_counter() - t0
        result.set_result((acc, err))
        return acc, err, dt

    def _score_uncached(self, spec, c0, kspec):
        params = TrainParams(loss=spec, c0=c0, kernel=kspec,
                             balance_classes=self.balance,
                             canonicalize=False)
        if self.criterion == "holdout":
            model = train(self.X[self.tr], self.y[self.tr], params)
            return evaluate(model, self.X[self.te], self.y[self.te])
        # k-fold CV on the training split, pooled over held-out folds.
        ytr = self.y[self.tr]
        fold = _fold_assignment(ytr, self.folds)
        correct, total = 0, 0
        for f in range(self.folds):
            fit_idx = self.tr[fold != f]
            val_idx = self.tr[fold == f]
            if len(val_idx) == 0:
                continue
            model = train(self.X[fit_idx], self.y[fit_idx], params)
            pred = model.predict(self.X[val_idx])
            correct += int(np.sum(pred == self.y[val_idx]))
            total += len(val_idx)
        if total == 0:
            raise DataError("no validation samples in any fold")
        return round(100.0 * correct / total, 3)


def _family_params(family, grids):
    """Loss-parameter tuples of one family, in ascending grid order."""
    if family == "hinge":
        yield (0.0,), (0.0,)
    elif family == "pinball":
        for t in grids.tau_grid:
            yield (t,), (0.0,)
    elif family == "2pl":
        for t in grids.tau_grid:
            for e in grids.eps_grid:
                yield (t,), (e,)
    elif family == "3pl":
        for t1 in grids.tau_grid:
            for t2 in grids.tau_grid:
                for e1 in grids.eps_grid:
                    for e2 in grids.eps_grid:
                        yield (t1, t2), (e1, e2)
    else:
        raise DataError(f"unknown family {family!r}")


def _kernel_for(kernel_kind, q):
    """The linear kernel, or the RBF kernel of width q (1.0 when blank)."""
    if kernel_kind == "linear":
        return KernelSpec(kind="linear")
    return KernelSpec(kind="rbf", q=1.0 if q is None else q)


def _run_cells(cells, scorer, jobs):
    """Evaluate (family, c0, q, taus, eps) cells; order-preserving."""
    def one(cell):
        family, c0, q, taus, eps = cell
        kspec = _kernel_for("linear" if q is None else "rbf", q)
        spec = LossSpec(taus=taus, epsilons=eps)
        acc, err, dt = scorer.score(spec, c0, kspec)
        return CellRecord(family, c0, q, taus, eps, acc, dt, err)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(one, cells))
    return [one(c) for c in cells]


def _pick_best(records):
    """First strictly-best record: earlier grid order wins ties."""
    best = None
    for rec in records:
        if rec.accuracy is None:
            continue
        if best is None or rec.accuracy > best.accuracy:
            best = rec
    return best


def staged_search(dataset, kernel_kind="linear", grids=None,
                  criterion="cv", folds=5, jobs=1,
                  balance=True) -> GridSearchReport:
    """Run the two-stage protocol on a split dataset.

    ``criterion`` is "holdout" (held-out test accuracy, the
    published tuning protocol) or "cv" (stratified ``folds``-fold
    cross-validation on the training split).  Cells that fail to train
    are recorded with their error and skipped by the arg-max.

    With ``grids.staged`` false every family searches the full joint
    (C0[, q], loss-parameter) product instead of reusing the stage-1
    pair; the hinge-family optimum still defines ``chosen_c0``/``chosen_q``.
    """
    if kernel_kind not in ("linear", "rbf"):
        raise DataError(f"kernel_kind must be linear or rbf, got {kernel_kind!r}")
    if criterion not in ("cv", "holdout"):
        raise DataError(f"unknown criterion {criterion!r}")
    if folds < 2:
        raise DataError("folds must be >= 2")
    grids = grids or GridSpec()
    scorer = _Scorer(dataset, criterion, folds, balance=balance)
    crit_label = "holdout" if criterion == "holdout" else f"cv{folds}"

    q_values = grids.q_grid if kernel_kind == "rbf" else (None,)

    def cells_for(family, c0s, qs):
        out = []
        for c0 in c0s:
            for q in qs:
                for taus, eps in _family_params(family, grids):
                    out.append((family, c0, q, taus, eps))
        return out

    records, best = [], {}

    # Stage 1: hinge over (C0[, q]).
    stage1 = _run_cells(cells_for("hinge", grids.c0_grid, q_values),
                        scorer, jobs)
    records.extend(stage1)
    best["hinge"] = _pick_best(stage1)
    if best["hinge"] is None:
        raise DataError(f"stage 1 failed on every grid cell for {dataset.name!r}")
    chosen_c0, chosen_q = best["hinge"].c0, best["hinge"].q

    # Stage 2: richer families at the stage-1 pair (or the full joint
    # product when staged search is disabled).
    if grids.staged:
        c0s, qs = (chosen_c0,), (chosen_q,)
    else:
        c0s, qs = grids.c0_grid, q_values
    for family in ("pinball", "2pl", "3pl"):
        cells = _run_cells(cells_for(family, c0s, qs), scorer, jobs)
        records.extend(cells)
        best[family] = _pick_best(cells)
    best[EXTERNAL_SLOT] = None

    return GridSearchReport(dataset=dataset.name, kernel_kind=kernel_kind,
                            criterion=crit_label, chosen_c0=chosen_c0,
                            chosen_q=chosen_q, records=records, best=best)


# ---------------------------------------------------------------------------
# report files


def _fmt(v):
    return "" if v is None else repr(float(v))


def _param_fields(family, rec):
    """(c0, q, tau1, tau2, eps1, eps2) strings; only free params shown."""
    taus, eps = rec.taus, rec.epsilons
    t1 = t2 = e1 = e2 = ""
    if family == "pinball":
        t1 = _fmt(taus[0])
    elif family == "2pl":
        t1, e1 = _fmt(taus[0]), _fmt(eps[0])
    elif family == "3pl":
        t1, t2 = _fmt(taus[0]), _fmt(taus[1])
        e1, e2 = _fmt(eps[0]), _fmt(eps[1])
    return (_fmt(rec.c0), _fmt(rec.q), t1, t2, e1, e2)


def _acc_str(acc):
    return "" if acc is None else f"{acc:.3f}"


def _time_str(t, timing):
    return f"{t:.3f}" if timing else "0.000"


def _open_csv(path):
    return open(path, "w", encoding="utf-8", newline="")


def _write_records_csv(path, dataset_name, criterion, records, timing):
    with _open_csv(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(REPORT_COLUMNS + ("error",))
        for rec in records:
            w.writerow((dataset_name, rec.family, _acc_str(rec.accuracy),
                        _time_str(rec.time_s, timing))
                       + _param_fields(rec.family, rec)
                       + (criterion, rec.error or ""))


def _consolidated_rows(report, timing):
    rows = []
    for family in FAMILIES:
        rec = report.best.get(family)
        if rec is None:
            continue
        rows.append((report.dataset, family, _acc_str(rec.accuracy),
                     _time_str(rec.time_s, timing))
                    + _param_fields(family, rec) + (report.criterion,))
    rows.append((report.dataset, EXTERNAL_SLOT, "", "", "", "", "", "", "",
                 "", "external"))
    return rows


def _load_replay_table(path):
    """Replay rows: dataset -> [(family, c0, q, taus, eps)] in file order."""
    table = {}
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        need = {"dataset", "family", "c0", "q", "tau1", "tau2", "eps1", "eps2"}
        if reader.fieldnames is None or not need <= set(reader.fieldnames):
            raise DataError(f"{path}: replay table needs columns {sorted(need)}")
        for lineno, row in enumerate(reader, 2):
            fam = row["family"].strip()
            if fam not in FAMILIES:
                raise DataError(f"{path}:{lineno}: unknown family {fam!r}")
            try:
                c0 = float(row["c0"])
                q = float(row["q"]) if row["q"].strip() else None
                vals = {k: float(row[k]) for k in ("tau1", "tau2", "eps1", "eps2")
                        if row[k].strip()}
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad number: {exc}") from exc
            if fam == "hinge":
                taus, eps = (0.0,), (0.0,)
            elif fam == "pinball":
                taus, eps = (vals["tau1"],), (0.0,)
            elif fam == "2pl":
                taus, eps = (vals["tau1"],), (vals["eps1"],)
            else:
                taus = (vals["tau1"], vals["tau2"])
                eps = (vals["eps1"], vals["eps2"])
            table.setdefault(row["dataset"].strip(), []).append(
                (fam, c0, q, taus, eps))
    return table


def _replay_dataset(dataset, rows, kernel_kind, balance=True):
    """Train fixed tuples; returns a GridSearchReport in replay shape."""
    tr, te = dataset.split
    records, best = [], {}
    for fam, c0, q, taus, eps in rows:
        kspec = _kernel_for(kernel_kind, q)
        t0 = time.perf_counter()
        try:
            params = TrainParams(loss=LossSpec(taus=taus, epsilons=eps),
                                 c0=c0, kernel=kspec, balance_classes=balance)
            model = train(dataset.X[tr], dataset.y[tr], params)
            acc, err = evaluate(model, dataset.X[te], dataset.y[te]), None
        except KplsvmError as exc:
            acc, err = None, f"{type(exc).__name__}: {exc}"
        rec = CellRecord(fam, c0, q, taus, eps, acc,
                         time.perf_counter() - t0, err)
        records.append(rec)
        best[fam] = rec
    best.setdefault(EXTERNAL_SLOT, None)
    return GridSearchReport(dataset=dataset.name, kernel_kind=kernel_kind,
                            criterion="replay", chosen_c0=None, chosen_q=None,
                            records=records, best=best)


def benchmark_run(manifest, outdir, grids=None, kernel_kind="linear",
                  criterion="cv", folds=5, replay=None,
                  jobs=1, timing=True, include=None):
    """Search (or replay) every manifest dataset and write report CSVs.

    ``replay`` is a fixed-parameter table path; when given, the grid
    search is skipped and each listed tuple is trained directly.
    Missing or unreadable datasets produce a warning row and the run
    continues.  Returns ``{"consolidated": path, "datasets": {name: path},
    "warnings": [...]}``.  With ``timing=False`` every time field is
    written as 0.000 so that repeated runs are byte-identical.
    """
    entries = load_manifest(manifest)
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
            rows.append((entry.name, "warning", "", "", "", "", "", "", "",
                         "", msg))
            continue
        if replay_table is not None:
            fixed = replay_table.get(entry.name, [])
            if not fixed:
                msg = "skipped: no replay parameters"
                warnings.append(f"{entry.name}: {msg}")
                rows.append((entry.name, "warning", "", "", "", "", "", "",
                             "", "", msg))
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
    with _open_csv(out) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(REPORT_COLUMNS)
        w.writerows(rows)
    return {"consolidated": out, "datasets": per_dataset, "warnings": warnings}
