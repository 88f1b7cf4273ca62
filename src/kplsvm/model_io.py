"""Versioned text persistence for trained models.

Models are stored as JSON: diffable, language-portable, and small at
the scales this package targets.  Floats are emitted with Python's
shortest-repr encoding, so ``load(save(model))`` reproduces every
coefficient bit-for-bit and therefore every prediction.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os

import numpy as np

from .data import NormalizationTransform, open_text
from .errors import DataError, RepresentationError, check_real
from .kernels import KernelSpec
from .loss import LossSpec
from .trainer import TrainedModel

__all__ = ["FORMAT_VERSION", "save_model", "load_model",
           "model_to_dict", "model_from_dict"]

FORMAT_VERSION = 1


def model_to_dict(model: TrainedModel) -> dict:
    norm = None
    if model.normalizer is not None:
        norm = {"mins": model.normalizer.mins.tolist(),
                "maxs": model.normalizer.maxs.tolist()}
    return {
        "format_version": FORMAT_VERSION,
        "kernel": {"kind": model.kernel.kind, "q": float(model.kernel.q),
                   "rbf_form": model.kernel.rbf_form},
        "loss": {"taus": list(model.loss.taus),
                 "epsilons": list(model.loss.epsilons)},
        "c0": float(model.c0),
        "normalizer": norm,
        "support_x": np.asarray(model.support_x, dtype=float).tolist(),
        "beta": np.asarray(model.beta, dtype=float).tolist(),
        "bias": float(model.bias),
        "diagnostics": dict(model.diagnostics),
    }


def _require(cond, msg):
    if not cond:
        raise DataError(f"model file: {msg}")


@contextlib.contextmanager
def _field(name):
    """Report a value of the wrong type inside the block as a bad ``name``."""
    try:
        yield
    except (TypeError, ValueError, OverflowError,
            RepresentationError) as exc:
        raise DataError(f"model file: bad {name}") from exc


def _is_number_type(t: type) -> bool:
    """Whether values of type ``t`` are JSON numbers: int or float, never
    bool, which Python makes an int but JSON does not."""
    return issubclass(t, (int, float)) and t is not bool


def _number_array(value, name: str, ndim: int = 1) -> np.ndarray:
    """A JSON array of numbers (``ndim`` 2: an array of such arrays) as a
    float array; strings, booleans and nulls in it are a bad ``name``."""
    rows = [value] if ndim == 1 else value
    _require(isinstance(rows, list)
             and all(isinstance(row, list) for row in rows)
             and all(map(_is_number_type,
                         set(map(type, itertools.chain.from_iterable(rows))))),
             f"bad {name}")
    with _field(name):
        return np.asarray(value, dtype=float)


def model_from_dict(doc: dict) -> TrainedModel:
    _require(isinstance(doc, dict), "top level must be an object")
    version = doc.get("format_version")
    if not _is_number_type(type(version)) or version != FORMAT_VERSION:
        raise DataError(
            f"unsupported model format_version {version!r} "
            f"(this build reads version {FORMAT_VERSION})")
    for key in ("kernel", "loss", "c0", "support_x", "beta", "bias"):
        _require(key in doc, f"missing field {key!r}")
    kern = doc["kernel"]
    _require(isinstance(kern, dict) and "kind" in kern, "bad kernel block")
    kernel = KernelSpec(kind=kern["kind"], q=kern.get("q", 1.0),
                        rbf_form=kern.get("rbf_form", "squared-distance"))
    loss_doc = doc["loss"]
    _require(isinstance(loss_doc, dict), "bad loss block")
    with _field("loss"):
        loss = LossSpec(taus=loss_doc.get("taus", []),
                        epsilons=loss_doc.get("epsilons", []))
    c0 = check_real(doc["c0"], DataError,
                    "model file: c0 must be finite and positive", positive=True)
    bias = check_real(doc["bias"], DataError, "model file: bias must be finite")
    support = _number_array(doc["support_x"], "support_x", ndim=2)
    beta = _number_array(doc["beta"], "beta")
    _require(support.ndim == 2, "support_x must be a 2-D array")
    _require(beta.ndim == 1 and beta.size == support.shape[0],
             "beta length must match the number of support points")
    _require(np.all(np.isfinite(support)) and np.all(np.isfinite(beta)),
             "support points and coefficients must be finite")
    norm = None
    if doc.get("normalizer") is not None:
        nd = doc["normalizer"]
        _require(isinstance(nd, dict) and "mins" in nd and "maxs" in nd,
                 "bad normalizer block")
        mins = _number_array(nd["mins"], "normalizer")
        maxs = _number_array(nd["maxs"], "normalizer")
        _require(mins.shape == maxs.shape == (support.shape[1],),
                 "normalizer bounds must match the feature count")
        norm = NormalizationTransform(mins=mins, maxs=maxs)
    diagnostics = doc.get("diagnostics", {}) or {}
    _require(isinstance(diagnostics, dict), "bad diagnostics block")
    return TrainedModel(kernel=kernel, loss=loss, c0=c0,
                        support_x=support, beta=beta, bias=bias,
                        normalizer=norm, diagnostics=diagnostics)


def save_model(model: TrainedModel, path) -> str:
    """Write the model atomically (write-then-rename); returns ``path``."""
    path = os.fspath(path)
    doc = model_to_dict(model)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    os.replace(tmp, path)
    return path


def load_model(path) -> TrainedModel:
    try:
        with open_text(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not a valid model file: {exc}") from exc
    return model_from_dict(doc)
