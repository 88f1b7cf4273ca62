"""End-to-end acceptance gate for the toolkit.

Ten checks, one per test, covering: the algebraic reductions inside the
loss family, solver optimality certificates on the benchmark replay
parameters, a brute-force primal oracle on tiny instances, the Monk
replications against their pinned reference accuracies, nested-family
dominance of the staged search, the analytic loss properties, outlier
robustness, and model persistence.

Each test prints a single ``criterion NN: PASS/FAIL`` line with the
measured quantities (through the capture-disabled channel so the line
is visible in a plain ``pytest -v`` transcript) and then asserts.
Tolerances are pinned here and nowhere else.
"""

import csv
import time
from pathlib import Path

import numpy as np
from conftest import monk_dataset

from kplsvm import datasets, loss, modelsel, trainer
from kplsvm.kernels import RBF_FORMS, KernelSpec
from kplsvm.loss import LossSpec
from kplsvm.model_io import load_model, save_model
from kplsvm.modelsel import GridSpec, benchmark_run, evaluate, staged_search
from kplsvm.trainer import TrainParams, train

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"

# Per-dataset C0 used by the linear-kernel replay presets for the Monks.
MONK_C0 = {1: 0.0625, 2: 0.0078125, 3: 0.125}


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_hinge_reduction_on_monks(capsys):
    """A 3-piece spec with all parameters zero must behave as the hinge."""
    t0 = time.perf_counter()
    matched, worst = True, 0.0
    for which in (1, 2, 3):
        rep = trainer.reduction_equivalence(monk_dataset(which), MONK_C0[which])
        matched = matched and rep["hinge_predictions_match"]
        worst = max(worst, rep["hinge_objective_reldiff"])
    dt = time.perf_counter() - t0
    ok = matched and worst <= 1e-6 and dt < 10.0
    _report(capsys, 1, ok,
            f"hinge vs all-zero 3-piece spec on monk1-3: predictions "
            f"{'identical' if matched else 'DIFFER'}, max dual-objective "
            f"reldiff {worst:.2e} (tol 1e-6), {dt:.1f} s (budget 10 s)")
    assert ok


def test_criterion_02_pinball_embedding_on_monk2(capsys):
    """(tau, 0) and its redundant 3-piece twin (tau, 0, 0, 0) must agree."""
    ds = monk_dataset(2)
    t0 = time.perf_counter()
    matched, worst = True, 0.0
    for tau in (-1.0, -0.5, 0.5, 1.0):
        rep = trainer.reduction_equivalence(ds, MONK_C0[2], tau=tau)
        matched = matched and rep["pinball_predictions_match"]
        worst = max(worst, rep["pinball_objective_reldiff"])
    dt = time.perf_counter() - t0
    ok = matched and dt < 20.0
    _report(capsys, 2, ok,
            f"pinball (tau,0) vs (tau,0,0,0) on monk2 for tau in "
            f"{{-1,-0.5,0.5,1}}: predictions "
            f"{'identical' if matched else 'DIFFER'}, max dual-objective "
            f"reldiff {worst:.2e}, {dt:.1f} s (budget 20 s)")
    assert ok


# Datasets whose replay rows double as the solver-certificate sample.
CERT_LINEAR = ("monk1", "monk2", "monk3", "spect", "haberman",
               "heart-statlog", "fertility", "plrx")
CERT_RBF = ("monk3", "heart-statlog", "fertility", "bupa")


def _training_half(name, standin):
    if name.startswith("monk"):
        trX, try01, _, _ = datasets.make_monk(int(name[-1]))
        return trX, try01 * 2.0 - 1.0
    ds = standin(name)
    tr, _ = ds.split
    return ds.X[tr], ds.y[tr]


def test_criterion_03_kkt_and_gap_on_replay_runs(capsys, standin):
    """Every replay training must certify optimality via KKT and gap."""
    t0 = time.perf_counter()
    worst_kkt = worst_gap = 0.0
    n_runs = 0
    for path, names, kind in ((BENCH_DIR / "replay_linear.csv", CERT_LINEAR,
                               "linear"),
                              (BENCH_DIR / "replay_rbf.csv", CERT_RBF, "rbf")):
        table = modelsel._load_replay_table(path)
        for name in names:
            X, y = _training_half(name, standin)
            for fam, c0, q, taus, eps in table[name]:
                kspec = (KernelSpec() if kind == "linear"
                         else KernelSpec(kind="rbf", q=q))
                m = train(X, y,
                          TrainParams(loss=LossSpec(taus=taus, epsilons=eps),
                                      c0=c0, kernel=kspec))
                worst_kkt = max(worst_kkt, m.diagnostics["kkt_max_residual"])
                worst_gap = max(worst_gap, m.diagnostics["duality_gap_rel"])
                n_runs += 1
    dt = time.perf_counter() - t0
    ok = worst_kkt <= 1e-6 and worst_gap <= 1e-5
    _report(capsys, 3, ok,
            f"{n_runs} replay trainings ({len(CERT_LINEAR)} linear + "
            f"{len(CERT_RBF)} rbf datasets x 4 families): worst KKT "
            f"residual {worst_kkt:.2e} (tol 1e-6), worst relative duality "
            f"gap {worst_gap:.2e} (tol 1e-5), {dt:.1f} s")
    assert ok


def lattice_min(X, y, C, taus, eps, lo=-5.0, hi=5.0, step=0.01, strip=101):
    """Exact minimum of the primal objective over the (w1, w2, b) lattice.

    For each (w1, w2) plane point the objective is convex piecewise
    linear in b, so its lattice minimum over b is attained either at a
    boundary value or at a floor/ceil lattice neighbour of a kink
    (a pairwise intersection of the per-point active pieces).  Scanning
    those candidate b planes reproduces the full dense-grid minimum at
    a tiny fraction of the cost.
    """
    grid = lo + step * np.arange(int(round((hi - lo) / step)) + 1)
    n_b = len(grid)
    slopes = np.concatenate([[1.0], -np.asarray(taus)])
    icpts = np.concatenate([[0.0], np.asarray(eps)])
    best = np.inf
    for s0 in range(0, len(grid), strip):
        W1 = grid[s0:s0 + strip][:, None]
        W2 = grid[None, :]
        quad = 0.5 * (W1 ** 2 + W2 ** 2)
        P, Q = [], []
        for i in range(len(y)):
            base = 1.0 - y[i] * (X[i, 0] * W1 + X[i, 1] * W2)
            P.append([C[i] * (sl * base + ic)
                      for sl, ic in zip(slopes, icpts)])
            Q.append([C[i] * (-sl * y[i]) for sl in slopes])
        cands = [np.full_like(quad, lo), np.full_like(quad, hi)]
        for i in range(len(y)):
            for a in range(len(slopes)):
                for b_ in range(a + 1, len(slopes)):
                    dq = Q[i][b_] - Q[i][a]
                    if abs(dq) < 1e-12:
                        continue
                    kink = np.clip((P[i][a] - P[i][b_]) / dq, lo, hi)
                    j = np.clip(np.floor((kink - lo) / step), 0, n_b - 1)
                    cands.append(lo + step * j)
                    cands.append(lo + step * np.minimum(j + 1, n_b - 1))
        for b_plane in cands:
            F = quad.copy()
            for i in range(len(y)):
                F += np.maximum.reduce([Pi + Qi * b_plane
                                        for Pi, Qi in zip(P[i], Q[i])])
            best = min(best, float(F.min()))
    return best


def test_criterion_04_brute_force_primal_oracle(capsys):
    """Dual-derived primal objective vs dense lattice search on 2-D toys."""
    rng = np.random.default_rng(77)
    t0 = time.perf_counter()
    worst_diff = worst_wb = 0.0
    for _ in range(20):
        l = int(rng.integers(2, 5))
        k = int(rng.choice([2, 3]))
        X = rng.uniform(-1.5, 1.5, (l, 2))
        y = np.array([1.0, -1.0] + [float(rng.choice([-1.0, 1.0]))
                                    for _ in range(l - 2)])[:l]
        c0 = float(rng.uniform(0.3, 0.8))
        if k == 2:
            taus = (float(rng.uniform(0.0, 0.9)),)
        else:
            # keep one slope in (-1, 0] so the loss stays bounded below
            taus = (float(rng.uniform(-0.9, 0.9)),
                    float(rng.uniform(0.25, 0.9)))
        eps = tuple(float(v) for v in rng.uniform(-0.3, 0.9, k - 1))
        m = train(X, y, TrainParams(loss=LossSpec(taus=taus, epsilons=eps),
                                    c0=c0, balance_classes=False),
                  normalize=False)
        w = m.beta @ m.support_x
        worst_wb = max(worst_wb, float(np.abs(w).max()), abs(m.bias))
        lat = lattice_min(X, y, np.full(l, c0), taus, eps)
        worst_diff = max(worst_diff,
                         abs(m.diagnostics["primal_objective"] - lat))
    dt = time.perf_counter() - t0
    # worst_wb guards that the optimum sits inside the searched cube
    ok = worst_diff <= 1e-2 and worst_wb <= 4.9 and dt < 60.0
    _report(capsys, 4, ok,
            f"20 random instances (l<=4, n=2, k in {{2,3}}): max "
            f"|dual-derived primal - lattice min| {worst_diff:.2e} "
            f"(tol 1e-2), max |w|,|b| {worst_wb:.2f} (cube 5.0), "
            f"{dt:.1f} s (budget 60 s)")
    assert ok


def test_criterion_05_monk_replication_linear(capsys):
    """Replay-preset accuracies on regenerated Monks vs pinned anchors."""
    import tempfile

    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        data_dir = Path(tmp) / "corpus"
        datasets.write_corpus(data_dir, include=("monk1", "monk3"))
        out = benchmark_run(data_dir / "manifest.csv", Path(tmp) / "out",
                            replay=BENCH_DIR / "replay_linear.csv",
                            include=("monk1", "monk3"), timing=False)
        acc = {}
        with open(out["consolidated"], encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                if row["accuracy"]:
                    acc[(row["dataset"], row["family"])] = \
                        float(row["accuracy"])
    anchors = ((("monk3", "hinge"), 82.639),
               (("monk3", "3pl"), 88.889),
               (("monk1", "3pl"), 70.139))
    deltas = {key: abs(acc[key] - target) for key, target in anchors}
    dt = time.perf_counter() - t0
    ok = all(d <= 2.0 for d in deltas.values()) and dt < 30.0
    parts = ", ".join(f"{k[0]} {k[1]} {acc[k]:.3f} (|d| {deltas[k]:.3f})"
                      for k, _ in anchors)
    _report(capsys, 5, ok, f"{parts}; tol 2pp, {dt:.1f} s (budget 30 s)")
    assert ok


def test_criterion_06_monk3_rbf_both_forms(capsys):
    """Monk 3 RBF replay point under both exponent forms, anchor 96.53."""
    t0 = time.perf_counter()
    trX, try01, teX, tey01 = datasets.make_monk(3)
    ytr, yte = try01 * 2.0 - 1.0, tey01 * 2.0 - 1.0
    spec = LossSpec(taus=(0.2, -1.0), epsilons=(0.5, -5.0))
    accs = {}
    for form in RBF_FORMS:
        m = train(trX, ytr,
                  TrainParams(loss=spec, c0=16.0,
                              kernel=KernelSpec(kind="rbf", q=4.0,
                                                rbf_form=form)))
        accs[form] = evaluate(m, teX, yte)
    deltas = {f: abs(a - 96.53) for f, a in accs.items()}
    better = min(deltas, key=deltas.get)
    dt = time.perf_counter() - t0
    ok = deltas[better] <= 2.0 and dt < 60.0
    parts = ", ".join(f"{f} {accs[f]:.3f} (|d| {deltas[f]:.3f})"
                      for f in RBF_FORMS)
    _report(capsys, 6, ok,
            f"monk3 rbf q=4 c0=16 3-piece replay: {parts}; "
            f"better form: {better}; tol 2pp, {dt:.1f} s (budget 60 s)")
    assert ok


def test_criterion_07_nested_family_dominance(capsys, standin):
    """Best held-out accuracy must be monotone along the nested families."""
    grids = GridSpec(
        tau_grid=tuple(round(-0.8 + 0.4 * i, 10) for i in range(5)),
        eps_grid=tuple(float(v) for v in range(-5, 6)),
    )
    t0 = time.perf_counter()
    details, ok = [], True
    for name in ("haberman", "heart-statlog"):
        rep = staged_search(standin(name), grids=grids,
                            criterion="holdout")
        best = {f: rep.best_accuracy(f) for f in modelsel.FAMILIES}
        chain = (best["3pl"] >= best["2pl"] >= best["pinball"]
                 >= best["hinge"])
        failed = sum(1 for r in rep.records if r.error is not None)
        ok = ok and chain and failed == 0
        details.append(
            f"{name} hinge {best['hinge']:.2f} <= pin {best['pinball']:.2f}"
            f" <= 2pl {best['2pl']:.2f} <= 3pl {best['3pl']:.2f}"
            f" ({'monotone' if chain else 'BROKEN'}, {failed} failed cells)")
    dt = time.perf_counter() - t0
    ok = ok and dt < 600.0
    _report(capsys, 7, ok,
            "; ".join(details) + f"; {dt:.0f} s (budget 600 s)")
    assert ok


def test_criterion_08_loss_property_battery(capsys):
    """Random-spec analytic properties plus the named special cases."""
    rng = np.random.default_rng(5)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(200):
        m = int(rng.integers(1, 4))
        spec = LossSpec(taus=tuple(rng.uniform(-1.0, 1.0, m)),
                        epsilons=tuple(rng.uniform(-1.0, 1.0, m)))
        rep = loss.check_properties(spec)
        us = rng.uniform(-4.0, 4.0, 12)
        vals = loss.eval_loss(spec, us)
        mids = loss.eval_loss(spec, (us[:-1] + us[1:]) / 2.0)
        assert (mids <= (vals[:-1] + vals[1:]) / 2.0 + 1e-9).all()
        gaps = np.abs(np.diff(vals))
        assert (gaps <= rep.lipschitz_constant * np.abs(np.diff(us))
                + 1e-9).all()
        for u in (*us[:6], 1.0):
            lo, hi = loss.eval_subgradient(spec, float(u))
            assert rep.influence_lower - 1e-12 <= lo <= hi \
                <= rep.influence_upper + 1e-12
        rebuilt = loss.fit_from_pieces(loss.pieces(spec))
        assert loss.canonical(rebuilt) == loss.canonical(spec)
        checked += 1

    named_ok = True
    for spec, interval in ((loss.hinge(), (0.0, 1.0)),
                           (loss.pinball(0.5), (-0.5, 1.0))):
        rep = loss.check_properties(spec)
        named_ok = named_ok and (
            rep.lipschitz_constant == 1.0
            and rep.derivative_condition_holds
            and rep.nonnegativity_condition_holds
            and (rep.influence_lower, rep.influence_upper) == interval)
    dt = time.perf_counter() - t0
    ok = checked == 200 and named_ok and dt < 5.0
    _report(capsys, 8, ok,
            f"{checked}/200 random specs pass convexity, Lipschitz, "
            f"influence-interval and piece round-trip; hinge and "
            f"pinball(0.5) pass all four analytic conditions: {named_ok}; "
            f"{dt:.1f} s (budget 5 s)")
    assert ok


def test_criterion_09_outlier_robustness(capsys):
    """A consistent-label point pushed to distance 100 must barely matter.

    The dual simplex caps the relocated point's combined coefficient at
    C * max(1, |tau_m|) regardless of where it lands; predictions stay
    put because a far-out point on its own label's side earns a zero
    coefficient outright.
    """
    probe = np.stack(np.meshgrid(np.linspace(-4, 4, 20),
                                 np.linspace(-4, 4, 20)), -1).reshape(-1, 2)
    params = TrainParams(loss=loss.hinge(), c0=1.0, balance_classes=False)
    cap = params.c0 * max(1.0, max(abs(t) for t in params.loss.taus))
    t0 = time.perf_counter()
    worst_flip = worst_s = 0.0
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        X = rng.normal(size=(50, 2))
        y = np.concatenate([np.ones(25), -np.ones(25)])
        X[:25, 0] += 2.0
        X[25:, 0] -= 2.0
        clean = train(X, y, params, normalize=False)
        w = clean.beta @ clean.support_x
        j = int(rng.integers(50))
        d = rng.normal(size=2)
        d /= np.linalg.norm(d)
        if y[j] * (w @ d) < 0:
            d = -d       # keep the outlier on its own label's side
        dirty_X = X.copy()
        dirty_X[j] = 100.0 * d
        dirty = train(dirty_X, y, params, normalize=False)
        flips = float(np.mean(clean.predict(probe) != dirty.predict(probe)))
        hit = np.where((dirty.support_x == dirty_X[j]).all(axis=1))[0]
        s = abs(dirty.beta[hit[0]]) if len(hit) else 0.0
        worst_flip = max(worst_flip, flips)
        worst_s = max(worst_s, s)
    dt = time.perf_counter() - t0
    ok = worst_flip <= 0.05 and worst_s <= cap + 1e-12
    _report(capsys, 9, ok,
            f"20 trials, 50-point 2-D Gaussian toy, one point moved to "
            f"distance 100: worst probe flip fraction {worst_flip:.4f} "
            f"(tol 0.05), worst outlier |s| {worst_s:.3g} "
            f"(cap {cap:.3g}), {dt:.1f} s")
    assert ok


def test_criterion_10_persistence_round_trip(capsys, tmp_path):
    """save -> load -> predict must be prediction-identical."""
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    identical = 0
    for i in range(10):
        n = int(rng.integers(2, 5))
        X = rng.normal(size=(30, n))
        y = np.array([1.0, -1.0] + [float(rng.choice([-1.0, 1.0]))
                                    for _ in range(28)])
        m_extra = int(rng.integers(1, 3))
        taus = tuple(rng.uniform(-0.9, 0.9, m_extra - 1)) \
            + (float(rng.uniform(0.25, 0.9)),)
        eps = tuple(float(v) for v in rng.uniform(-0.3, 0.9, m_extra))
        kern = (KernelSpec() if i % 2 == 0 else
                KernelSpec(kind="rbf", q=float(2.0 ** rng.integers(-2, 3))))
        params = TrainParams(loss=LossSpec(taus=taus, epsilons=eps),
                             c0=float(rng.uniform(0.3, 1.5)), kernel=kern)
        model = train(X, y, params)
        path = tmp_path / f"model_{i}.json"
        save_model(model, path)
        loaded = load_model(path)
        Xq = rng.normal(size=(50, n))
        if np.array_equal(loaded.predict(Xq), model.predict(Xq)):
            identical += 1
    dt = time.perf_counter() - t0
    ok = identical == 10
    _report(capsys, 10, ok,
            f"{identical}/10 random models (linear and rbf, normalized "
            f"inputs) predict identically after a save/load round trip; "
            f"{dt:.1f} s")
    assert ok
