"""Self-test of the benchmark's checker and tracer.

    python3 -m pytest -q perfbench/selftest

The duality certificate must accept freshly trained models and reject a
model whose bias is shifted by 0.1 or whose beta is scaled by 1.01; the
conjugate it uses must match sup_u (v u - L(u)) computed by brute force.
"""

import dataclasses
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import certify  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from kplsvm import trainer  # noqa: E402
from kplsvm.kernels import KernelSpec  # noqa: E402
from kplsvm.loss import LossSpec  # noqa: E402

CASES = [
    ("haberman", LossSpec((0.0,), (0.0,)), 1.0, KernelSpec()),
    ("haberman", LossSpec((0.4,), (0.0,)), 0.25, KernelSpec()),
    ("heart-statlog", LossSpec((-0.4,), (1.5,)), 4.0, KernelSpec()),
    ("heart-statlog", LossSpec((-0.4, 0.4), (0.5, -1.0)), 0.125,
     KernelSpec("rbf", q=2.0)),
    ("haberman", LossSpec((-0.8, 0.6), (2.0, -3.0)), 16.0,
     KernelSpec("rbf", q=0.5, rbf_form="plain-distance")),
]


@pytest.fixture(scope="module", params=range(len(CASES)))
def trained(request):
    name, spec, c0, kernel = CASES[request.param]
    X, y, tr, _ = workloads.standin(name)
    model = trainer.train(X[tr], y[tr], trainer.TrainParams(
        loss=spec, c0=c0, kernel=kernel))
    return model, X[tr], y[tr], c0


def test_fresh_model_is_certified(trained):
    model, X, y, c0 = trained
    cert = certify.certificate(model, X, y, c0)
    assert certify.certified(cert), cert


@pytest.mark.parametrize("shift", [0.1, -0.1])
def test_shifted_bias_fails(trained, shift):
    model, X, y, c0 = trained
    moved = dataclasses.replace(model, bias=model.bias + shift)
    assert not certify.certified(certify.certificate(moved, X, y, c0))


def test_scaled_beta_fails(trained):
    model, X, y, c0 = trained
    scaled = dataclasses.replace(model, beta=model.beta * 1.01)
    assert not certify.certified(certify.certificate(scaled, X, y, c0))


def test_dual_infeasibility_alone_fails():
    ok = {"gap_rel": 0.0, "balance_rel": 0.0, "slope_violation": 0.0}
    assert certify.certified(ok)
    for key in ("balance_rel", "slope_violation"):
        assert not certify.certified(dict(ok, **{key: 1e-3}))
    # hinge margin violators sit at s_i = C_i; 1% more leaves the dual set
    X, y, tr, _ = workloads.standin("haberman")
    model = trainer.train(X[tr], y[tr], trainer.TrainParams(
        loss=LossSpec((0.0,), (0.0,)), c0=1.0))
    scaled = dataclasses.replace(model, beta=model.beta * 1.01)
    cert = certify.certificate(scaled, X[tr], y[tr], 1.0)
    assert cert["slope_violation"] == pytest.approx(0.01, rel=1e-6)


def test_conjugate_matches_brute_force():
    """sup_u (v u - L(u)) is attained where two pieces cross."""
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = int(rng.integers(1, 4))
        a, b = certify.loss_pieces(rng.uniform(-1, 1, m),
                                   rng.uniform(-3, 3, m))
        u = np.array([(b[j] - b[i]) / (a[i] - a[j])
                      for i in range(m + 1) for j in range(i)
                      if a[i] != a[j]])
        L = (a[None, :] * u[:, None] + b[None, :]).max(axis=1)
        for v in np.linspace(a.min(), a.max(), 7):
            brute = float((v * u - L).max())
            assert certify.conjugate(a, b, np.array([v]))[0] \
                == pytest.approx(brute, abs=1e-9)


def test_tracer_counts_calls_and_restores():
    X, y, tr, _ = workloads.standin("haberman")
    original = trainer.train
    tracer = tracing.Tracer()
    with tracer.install():
        assert trainer.train is not original
        models = [trainer.train(X[tr], y[tr], trainer.TrainParams(
            loss=LossSpec((t,), (0.0,)), c0=1.0)) for t in (0.0, 0.4)]
        with tracer.paused():
            models[0].predict(X)
    assert trainer.train is original
    m = tracing.layer_metrics(tracer.spans, rounds=1)
    assert m["trainer.train.calls"]["value"] == 2
    assert m["qp.solve.calls"]["value"] == 2
    assert m["kernels.gram.calls"]["value"] == 2
    assert m["kernels.cross_gram.calls"]["value"] == 0
    assert m["qp.iterations"]["value"] == sum(
        mod.diagnostics["qp_iterations"] for mod in models)
    assert 0.0 < m["trainer.train.self_s"]["value"] \
        < m["trainer.train.s"]["value"]
