"""Built-in sanity suites behind the `selftest` subcommand.

These duplicate a slice of the test suite with naive re-implementations,
so a deployed copy can vouch for itself without pytest installed. The
public naive_* references are the oracles the test suite imports too.
"""

import math

import numpy as np

from . import mlp
from .aggregation import atm, fang_filter
from .attacks import (
    benign_angle_budget,
    greedy_mask_select,
    mask_budget,
    optimize_alpha,
    usable_references,
)
from .theory import AngleSample, TruncatedGaussian, deviation_bound, lemma_order_stats_check, monte_carlo_deviation
from .vectors import angle_between, scaled_add


def _check_angles():
    rng = np.random.default_rng(7)
    for _ in range(200):
        u = rng.normal(size=12)
        v = rng.normal(size=12)
        a = angle_between(u, v)
        assert abs(a - angle_between(v, u)) < 1e-12, "asymmetric angle"
        assert abs(a - angle_between(3.7 * u, v)) < 1e-9, "not scale invariant"
        assert 0 <= a <= math.pi, "angle out of range"
        # arccos near -1 turns a 1-ulp cosine error into ~2e-8 radians
        assert abs(angle_between(u, -u) - math.pi) < 1e-7, "antiparallel != pi"


def naive_atm_kept(G, b):
    """Independent reference: double-loop mean angles, explicit sort."""
    n = len(G)
    means = []
    for i in range(n):
        total = 0.0
        for j in range(n):
            if i != j:
                total += angle_between(G[i], G[j])
        means.append(total / (n - 1))
    order = sorted(range(n), key=lambda i: (means[i], i))
    return tuple(sorted(order[: n - 2 * b]))


def _naive_objective(g, refs):
    return max(angle_between(g, r) for r in refs)


def naive_greedy_mask_select(
    mask_features, mask_labels, mask_fraction, params, g_attack, alpha_fixed, benign_grads
):
    """Per-candidate reference for attacks.greedy_mask_select: one
    mlp.gradient and one angle_between per (candidate, reference) pair.
    Returns (selected indices, per-step feasibility)."""
    X = np.asarray(mask_features, dtype=np.float64)
    y = np.asarray(mask_labels, dtype=np.int64)
    refs = usable_references(benign_grads)
    angle_budget = benign_angle_budget(refs)
    selected, feasible = [], []
    for _ in range(mask_budget(mask_fraction, X.shape[0])):
        candidates = [k for k in range(X.shape[0]) if k not in selected]
        objectives = np.empty(len(candidates))
        for ci, k in enumerate(candidates):
            trial = selected + [k]
            g_mask = mlp.gradient(params, X[trial], y[trial])
            g_mal = scaled_add(alpha_fixed, np.asarray(g_attack), g_mask)
            objectives[ci] = _naive_objective(g_mal, refs)
        feas = objectives <= angle_budget
        if feas.any():
            pick = int(np.argmax(np.where(feas, objectives, -np.inf)))
        else:
            pick = int(np.argmin(objectives))
        selected.append(candidates[pick])
        feasible.append(bool(feas.any()))
    return tuple(selected), tuple(feasible)


def naive_optimize_alpha(g_attack, g_mask, benign_grads, alpha_grid):
    """Per-point reference for attacks.optimize_alpha."""
    refs = usable_references(benign_grads)
    angle_budget = benign_angle_budget(refs)
    best_alpha, best_obj, feasible = 0.0, -np.inf, False
    for alpha in alpha_grid:
        obj = _naive_objective(scaled_add(alpha, g_attack, g_mask), refs)
        if obj <= angle_budget and obj > best_obj:
            best_alpha, best_obj, feasible = float(alpha), obj, True
    return best_alpha, feasible


def _check_atm():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(3, 8))
        b = int(rng.integers(0, (n - 1) // 2 + 1))
        G = rng.normal(size=(n, 6))
        kept = atm(G, b).kept_indices
        assert kept == naive_atm_kept(G, b), "trim selection mismatch"


def naive_fang_kept(G, params, X, y, mode, lr, remove_count=1):
    """Per-candidate reference for aggregation.fang_filter: builds every
    leave-one-out model (mean of the other rows, one descent step) and
    scores it with mlp.predict_batch or mlp.loss. Returns (kept, removed)."""
    kept = list(range(len(G)))
    removed = []
    for _ in range(min(remove_count, len(G) - 1)):
        scores = []
        for i in kept:
            rest = [j for j in kept if j != i]
            model = mlp.apply_update(params, np.asarray(G)[rest].mean(axis=0), lr)
            if mode == "err":
                scores.append(float(np.mean(mlp.predict_batch(model, X) != y)))
            else:
                scores.append(mlp.loss(model, X, y))
        worst = kept[int(np.argmin(scores))]
        kept.remove(worst)
        removed.append(worst)
    return tuple(kept), tuple(removed)


def _check_fang():
    rng = np.random.default_rng(17)
    for trial in range(40):
        shapes = ((5, 4), (4, 3)) if trial % 4 else ((5, 4), (4, 4), (4, 3))
        params = mlp.init_params(shapes, seed=trial)
        params = mlp.ModelParams(
            flat=params.flat + 0.3 * rng.normal(size=params.dim), layer_shapes=shapes
        )
        n = int(rng.integers(2, 9))
        G = rng.normal(size=(n, params.dim))
        if trial % 3 == 0:
            G[rng.integers(1, n, size=n // 2)] = G[0]  # duplicated rows: exact ties
        if trial % 5 == 0:
            G = np.round(4 * G)  # integer rows: tied error rates
        X = rng.normal(size=(12, 5))
        y = rng.integers(0, 3, size=12)
        mode = ("lfr", "err")[trial % 2]
        remove = int(rng.integers(0, n))
        out = fang_filter(G, params, X, y, mode, 0.5, remove)
        kept, removed = naive_fang_kept(G, params, X, y, mode, 0.5, remove)
        assert (out.kept_indices, out.diagnostics["removed"]) == (kept, removed), "fang mismatch"


def _check_gradient():
    rng = np.random.default_rng(3)
    for trial in range(3):
        params = mlp.init_params(((4, 6), (6, 3)), seed=trial)
        params = mlp.ModelParams(
            flat=params.flat + 0.05 * rng.normal(size=params.dim),
            layer_shapes=params.layer_shapes,
        )
        X = rng.normal(size=(5, 4))
        y = rng.integers(0, 3, size=5)
        g = mlp.gradient(params, X, y)
        fd = np.empty_like(g)
        for i in range(params.dim):
            h = 1e-5 * (1.0 + abs(params.flat[i]))
            up = params.flat.copy()
            up[i] += h
            dn = params.flat.copy()
            dn[i] -= h
            fd[i] = (
                mlp.loss(mlp.ModelParams(up, params.layer_shapes), X, y)
                - mlp.loss(mlp.ModelParams(dn, params.layer_shapes), X, y)
            ) / (2 * h)
        rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel <= 1e-4, f"finite differences disagree (rel={rel:.2e})"


def _check_crafting():
    rng = np.random.default_rng(13)
    for trial in range(10):
        params = mlp.init_params(((8, 6), (6, 3)), seed=trial)
        params = mlp.ModelParams(
            flat=params.flat + 0.4 * rng.normal(size=params.dim),
            layer_shapes=params.layer_shapes,
        )
        refs = np.stack(
            [mlp.gradient(params, rng.normal(size=(6, 8)), rng.integers(0, 3, size=6)) for _ in range(3)]
        )
        g_attack = mlp.gradient(params, rng.normal(size=(10, 8)), rng.integers(0, 3, size=10))
        X = rng.normal(size=(8, 8))
        y = rng.integers(0, 3, size=8)
        selected, trace = greedy_mask_select(X, y, 0.5, params, g_attack, 1.0, refs)
        expected = naive_greedy_mask_select(X, y, 0.5, params, g_attack, 1.0, refs)
        assert (selected, tuple(s.feasible for s in trace)) == expected, "greedy mask mismatch"
        for size, step in enumerate(trace, start=1):
            idx = list(selected[:size])
            g = scaled_add(1.0, g_attack, mlp.gradient(params, X[idx], y[idx]))
            assert abs(step.objective - _naive_objective(g, refs)) < 1e-9, "greedy objective drift"
        g_mask = mlp.gradient(params, X[list(selected)], y[list(selected)])
        grid = tuple(np.geomspace(0.01, 100.0, 25))
        got = optimize_alpha(g_attack, g_mask, refs, grid)
        assert got == naive_optimize_alpha(g_attack, g_mask, refs, grid), "alpha mismatch"


def _check_lemma():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        n = int(rng.integers(6, 31))
        b_hi = n // 2 - 1
        if b_hi < 1:
            continue
        b = int(rng.integers(1, b_hi + 1))
        m = int(rng.integers(0, b))
        theta = np.sort(rng.normal(size=n))
        mask = np.zeros(n, dtype=bool)
        mask[rng.choice(n, size=m, replace=False)] = True
        ok = lemma_order_stats_check(AngleSample(theta, mask), b)
        assert ok, f"order-statistics inequality failed (n={n} m={m} b={b})"


def _check_bound():
    dist = TruncatedGaussian(mu=math.pi / 2, sigma=0.3)
    for m, b in ((0, 1), (2, 3)):
        emp = monte_carlo_deviation(dist, 20, m, b, "extreme_high", 500, seed=0)
        bound = deviation_bound(20, m, b, dist.var)
        assert emp <= bound, f"empirical {emp:.4g} exceeds bound {bound:.4g}"


SUITES = (
    ("angles", _check_angles),
    ("angular-trim", _check_atm),
    ("fang", _check_fang),
    ("gradient-fd", _check_gradient),
    ("crafting", _check_crafting),
    ("order-stats", _check_lemma),
    ("deviation-bound", _check_bound),
)
