"""Command-line interface.

Subcommands: train, predict, eval, grid-search, bench, loss-curve,
verify, make-data.  Exit codes are stable and documented:

* 0 — success
* 2 — flag/usage errors (bad values, malformed lists, unknown options)
* 3 — data errors (unreadable files, malformed rows, dimension mismatch)
* 4 — training/solver failures
* 5 — verification failure (a residual exceeded the tolerance)

The ``KPLSVM_SEED`` environment variable overrides the default split
seed wherever a seeded split is constructed.  All CSV output is UTF-8
with LF line endings.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import sys
import time

import numpy as np

from . import modelsel
from .data import load_dataset, split_dataset, write_rows
from .datasets import CORPUS_TABLE, write_corpus
from .errors import (DataError, KplsvmError, RepresentationError,
                     check_integer, check_real)
from .kernels import KERNEL_KINDS, KernelSpec, RBF_FORMS
from .loss import LossSpec, eval_loss
from .model_io import load_model, save_model
from .modelsel import GridSpec, benchmark_run, evaluate, staged_search
from .trainer import TrainParams, train

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_SOLVER = 4
EXIT_VERIFY = 5


class UsageError(Exception):
    pass


def _float_list(text, flag):
    """Comma-separated floats; empty string means an empty list."""
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise UsageError(f"{flag}: expected comma-separated numbers, "
                         f"got {text!r}") from exc


def _loss_from_flags(args):
    taus = _float_list(args.taus, "--taus")
    eps = _float_list(args.epsilons, "--epsilons")
    try:
        return LossSpec(taus=taus, epsilons=eps)
    except RepresentationError as exc:
        raise UsageError(f"--taus/--epsilons: {exc}") from exc


def _add_data_flags(p):
    p.add_argument("--data", required=True, help="dataset file")
    p.add_argument("--format", default="csv", choices=("csv", "libsvm"),
                   help="dataset file format (default: csv)")
    p.add_argument("--label-col", type=int, default=0,
                   help="label column index for CSV input (default: 0)")


def _add_kernel_flags(p):
    p.add_argument("--kernel", default="linear", choices=KERNEL_KINDS)
    p.add_argument("--q", type=float, default=1.0,
                   help="RBF width parameter (default: 1.0)")
    p.add_argument("--rbf-form", default="squared-distance",
                   choices=RBF_FORMS, help="RBF formula variant")


def _at_least(lo):
    """argparse type: an integer >= ``lo``; anything else exits 2."""
    def integer(text):
        return check_integer(int(text), lo, argparse.ArgumentTypeError,
                             f"must be at least {lo}")
    return integer


def _finite_positive(text):
    """argparse type: a finite float > 0; anything else exits 2."""
    return check_real(float(text), argparse.ArgumentTypeError,
                      "must be finite and positive", positive=True)


def _add_search_flags(p):
    p.add_argument("--kernel", default="linear", choices=KERNEL_KINDS)
    p.add_argument("--criterion", default="cv",
                   choices=("cv", "holdout"))
    p.add_argument("--folds", type=_at_least(2), default=5)
    p.add_argument("--jobs", type=_at_least(1), default=os.cpu_count() or 1,
                   help="reserved for grid cells in worker processes; "
                   "until then every cell trains on the calling thread")
    p.add_argument("--c0-grid", dest="c0_grid", default=None)
    p.add_argument("--q-grid", dest="q_grid", default=None)
    p.add_argument("--tau-grid", dest="tau_grid", default=None)
    p.add_argument("--eps-grid", dest="eps_grid", default=None)


def _load(args):
    return load_dataset(args.data, fmt=args.format, label_col=args.label_col)


def _grid_or_default(args):
    fields = {}
    for name in ("c0_grid", "q_grid", "tau_grid", "eps_grid"):
        raw = getattr(args, name)
        if raw is not None:
            fields[name] = _float_list(raw, "--" + name.replace("_", "-"))
    try:
        return GridSpec(**fields)
    except DataError as exc:
        raise UsageError(f"grid flags: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(args):
    loss = _loss_from_flags(args)
    kernel = KernelSpec(kind=args.kernel, q=args.q, rbf_form=args.rbf_form)
    params = TrainParams(loss=loss, c0=args.c0, kernel=kernel,
                         balance_classes=args.balance)
    ds = _load(args)
    t0 = time.perf_counter()
    model = train(ds.X, ds.y, params)
    wall = time.perf_counter() - t0
    save_model(model, args.out)

    if args.balance:
        p = model.diagnostics["class_ratio"]
        print(f"class balance: p = {p:.6g} "
              f"(C+ = {args.c0:.6g}, C- = {p * args.c0:.6g})")
    print(f"training accuracy: {evaluate(model, ds.X, ds.y):.3f}")
    print(f"support vectors: {len(model.beta)} / {len(ds.y)}")
    print(f"kkt max residual: {model.diagnostics['kkt_max_residual']:.3e}")
    print(f"wall time: {wall:.3f} s")
    print(f"model: {args.out}")
    if args.test:
        test = load_dataset(args.test, fmt=args.format,
                            label_col=args.label_col)
        print(f"test accuracy: {evaluate(model, test.X, test.y):.3f}")
    return EXIT_OK


def cmd_predict(args):
    model = load_model(args.model)
    ds = _load(args)
    write_rows(args.out, [(int(v),) for v in model.predict(ds.X)])
    return EXIT_OK


def cmd_eval(args):
    model = load_model(args.model)
    ds = _load(args)
    acc = evaluate(model, ds.X, ds.y)
    line = f"{acc:.3f}"
    print(line)
    if args.out is not None:
        write_rows(args.out, [(line,)])
    return EXIT_OK


def cmd_grid_search(args):
    grids = _grid_or_default(args)
    ds = _load(args)
    ds = dataclasses.replace(ds, split=split_dataset(
        ds, args.n_train, seed=args.seed, predefined=args.predefined_split))
    report = staged_search(ds, kernel_kind=args.kernel, grids=grids,
                           criterion=args.criterion, folds=args.folds,
                           jobs=args.jobs)
    chosen_q = "" if report.chosen_q is None else f", q = {report.chosen_q:g}"
    print(f"stage 1: C0 = {report.chosen_c0:g}{chosen_q} "
          f"[{report.criterion}]")
    for family in modelsel.FAMILIES:
        rec = report.best[family]
        if rec is None:
            print(f"{family}: no successful cell")
            continue
        params = ", ".join(f"{v:g}" for v in rec.taus + rec.epsilons)
        print(f"{family}: accuracy {rec.accuracy:.3f} ({params})")
    failures = sum(1 for r in report.records if r.error is not None)
    if failures:
        print(f"failed cells: {failures} / {len(report.records)}")
    if args.out:
        modelsel._write_records_csv(args.out, ds.name or args.data,
                                    report.criterion, report.records,
                                    timing=True)
        print(f"records: {args.out}")
    return EXIT_OK


def cmd_bench(args):
    out = benchmark_run(args.manifest, args.outdir,
                        grids=_grid_or_default(args),
                        kernel_kind=args.kernel, criterion=args.criterion,
                        folds=args.folds, replay=args.replay, jobs=args.jobs,
                        timing=not args.no_timing,
                        include=set(args.include.split(","))
                        if args.include else None)
    for warning in out["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"consolidated: {out['consolidated']}")
    return EXIT_OK


def cmd_loss_curve(args):
    loss = _loss_from_flags(args)
    try:
        lo_s, hi_s = args.range.split(":")
        lo, hi = float(lo_s), float(hi_s)
    except ValueError as exc:
        raise UsageError(f"--range: expected LO:HI, got {args.range!r}") \
            from exc
    span = (hi - lo) / args.step        # the point count less one
    if not (hi > lo and args.step > 0
            and np.isfinite([lo, hi, args.step, span]).all()):
        raise UsageError("--range must be finite and increasing and "
                         "--step finite and positive")
    n = int(np.floor(span + 1e-12)) + 1
    if n > 10 ** 6:
        raise UsageError(f"--range and --step give {n} points; "
                         "at most 1000000 are allowed")
    us = lo + args.step * np.arange(n)
    # Python floats, which the csv module writes in shortest repr
    write_rows(args.out, [("u", "loss"),
                          *zip(us.tolist(), eval_loss(loss, us).tolist())])
    return EXIT_OK


def cmd_verify(args):
    """Re-derive the optimality report for a stored model.

    The data file must be the model's training set.  Training is
    deterministic, so refitting with the stored parameters (normalizing
    only if the model did) reproduces the solution; its KKT residuals
    are printed and checked against --tol, and the stored coefficients
    must reproduce the refit's decision values.
    """
    model = load_model(args.model)
    ds = _load(args)
    params = TrainParams(loss=model.loss, c0=model.c0, kernel=model.kernel,
                         balance_classes=bool(
                             model.diagnostics.get("balanced", True)))
    refit = train(ds.X, ds.y, params, normalize=model.normalizer is not None)
    for name, value in refit.diagnostics["kkt_report"].items():
        print(f"{name}: {value:.3e}")
    worst = refit.diagnostics["kkt_max_residual"]
    print(f"max residual: {worst:.3e} (tol {args.tol:g})")
    drift = float(np.max(np.abs(model.decision_function(ds.X)
                                - refit.decision_function(ds.X))))
    print(f"stored-model score drift: {drift:.3e}")
    if worst > args.tol or not np.isfinite(worst):
        print("verification FAILED", file=sys.stderr)
        return EXIT_VERIFY
    if drift > 1e-6:
        print("stored model does not reproduce the refit", file=sys.stderr)
        return EXIT_VERIFY
    print("verification OK")
    return EXIT_OK


def cmd_make_data(args):
    include = set(args.include.split(",")) if args.include else None
    unknown = sorted(set(include or ()) - {row.name for row in CORPUS_TABLE})
    if unknown:
        raise UsageError(f"--include: unknown datasets {', '.join(unknown)}")
    entries = write_corpus(args.outdir, include=include)
    print(f"wrote {len(entries)} datasets to {args.outdir}")
    print(f"manifest: {os.path.join(args.outdir, 'manifest.csv')}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kplsvm",
        description="Kernel SVM training with piecewise-linear losses.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model and write a model file")
    _add_data_flags(p)
    _add_kernel_flags(p)
    p.add_argument("--c0", type=_finite_positive, required=True,
                   help="base cost C0")
    p.add_argument("--taus", default="0", help="comma-separated slopes")
    p.add_argument("--epsilons", default="0",
                   help="comma-separated intercept shifts")
    p.add_argument("--balance", action=argparse.BooleanOptionalAction,
                   default=True, help="class-ratio cost balancing")
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--test", help="optional test set to score after training")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="write +-1 predictions, one per line")
    p.add_argument("--model", required=True)
    _add_data_flags(p)
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="accuracy of a model on a labeled file")
    p.add_argument("--model", required=True)
    _add_data_flags(p)
    p.add_argument("--out", help="also write the accuracy to this file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("grid-search", help="staged parameter search")
    _add_data_flags(p)
    p.add_argument("--n-train", type=int, required=True,
                   help="training rows for the split")
    p.add_argument("--seed", type=_at_least(0), default=None,
                   help="split seed (default: KPLSVM_SEED or 0)")
    p.add_argument("--predefined-split", action="store_true",
                   help="first n-train rows form the training set")
    _add_search_flags(p)
    p.add_argument("--out", help="write per-cell records CSV")
    p.set_defaults(func=cmd_grid_search)

    p = sub.add_parser("bench", help="run the benchmark protocol")
    p.add_argument("--manifest", required=True)
    p.add_argument("--outdir", required=True)
    _add_search_flags(p)
    p.add_argument("--replay", help="fixed-parameter table; skips the search")
    p.add_argument("--include", help="comma-separated dataset subset")
    p.add_argument("--no-timing", action="store_true",
                   help="write 0.000 times for byte-reproducible reports")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("loss-curve", help="tabulate (u, L(u)) as CSV")
    p.add_argument("--taus", required=True)
    p.add_argument("--epsilons", required=True)
    p.add_argument("--range", default="-3:3", help="LO:HI (default -3:3)")
    p.add_argument("--step", type=float, default=0.1)
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=cmd_loss_curve)

    p = sub.add_parser("verify",
                       help="re-derive optimality residuals for a model")
    p.add_argument("--model", required=True)
    _add_data_flags(p)
    p.add_argument("--tol", type=_finite_positive, default=1e-6)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("make-data",
                       help="generate the bundled benchmark corpus")
    p.add_argument("--outdir", required=True)
    p.add_argument("--include", help="comma-separated dataset subset")
    p.set_defaults(func=cmd_make_data)

    return parser


# Flags whose values are numeric lists/ranges and may begin with "-",
# which bare argparse would misread as an option string.
_LIST_FLAGS = ("--taus", "--epsilons", "--c0-grid", "--q-grid",
               "--tau-grid", "--eps-grid", "--range")
_NUMLIST = re.compile(r"-?(\d+\.?\d*|\.\d+)(e[+-]?\d+)?"
                      r"([,:]-?(\d+\.?\d*|\.\d+)(e[+-]?\d+)?)*", re.I)


def _fuse_list_flags(argv):
    out, skip = [], False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in _LIST_FLAGS and i + 1 < len(argv) \
                and _NUMLIST.fullmatch(argv[i + 1]):
            out.append(f"{tok}={argv[i + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_fuse_list_flags(argv))
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except KplsvmError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
