"""Built-in sanity suites behind the `selftest` subcommand.

These duplicate a slice of the test suite with naive re-implementations,
so a deployed copy can vouch for itself without pytest installed. The
public naive_* references are the oracles the test suite imports too.
"""

import math

import numpy as np

from . import mlp
from .aggregation import atm, fang_filter, multi_krum
from .attacks import greedy_mask_select, mask_budget, optimize_alpha, reference_geometry
from .rngstream import derive_seed, keyed_words, sorted_choices
from .theory import AngleSample, TruncatedGaussian, deviation_bound, lemma_order_stats_check, monte_carlo_deviation
from .vectors import angle_between, pairwise_sq_distances


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
    mask_features, mask_labels, mask_fraction, params, g_attack, benign_grads
):
    """Per-candidate reference for attacks.greedy_mask_select: one
    mlp.gradient and one angle_between per (candidate, reference) pair.
    Returns (selected indices, per-step feasibility)."""
    X = np.asarray(mask_features, dtype=np.float64)
    y = np.asarray(mask_labels, dtype=np.int64)
    geo = reference_geometry(benign_grads)
    refs, angle_budget = geo.refs, geo.budget
    selected, feasible = [], []
    for _ in range(mask_budget(mask_fraction, X.shape[0])):
        candidates = [k for k in range(X.shape[0]) if k not in selected]
        objectives = np.empty(len(candidates))
        for ci, k in enumerate(candidates):
            trial = selected + [k]
            g_mask = mlp.gradient(params, X[trial], y[trial])
            objectives[ci] = _naive_objective(g_attack + g_mask, refs)
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
    geo = reference_geometry(benign_grads)
    refs, angle_budget = geo.refs, geo.budget
    best_alpha, best_obj, feasible = 0.0, -np.inf, False
    for alpha in alpha_grid:
        obj = _naive_objective(alpha * g_attack + g_mask, refs)
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


def naive_krum_kept(G, f, count):
    """Per-pick reference for aggregation.multi_krum: every pick sorts each
    remaining row's distances (picked rows' columns and the diagonal at
    inf) and sums its n-f-1 nearest, capped at the other remaining rows.
    Returns the selection order."""
    G = np.asarray(G, dtype=np.float64)
    n = G.shape[0]
    d2 = pairwise_sq_distances(G)
    np.fill_diagonal(d2, np.inf)
    live = np.ones(n, dtype=bool)
    chosen = []
    while len(chosen) < count:
        neigh = min(n - f - 1, n - len(chosen) - 1)
        rows = np.flatnonzero(live)
        scores = np.sort(d2[rows], axis=1)[:, :neigh].sum(axis=1)
        best = int(rows[np.argmin(scores)])
        chosen.append(best)
        live[best] = False
        d2[:, best] = np.inf
    return tuple(chosen)


def krum_instance(rng, trial):
    """A random (G, f, count) for multi_krum, cycling through exact
    distance ties, duplicated, integer-valued, all-identical, overflowing
    and near-tied rows, f = 0, count = n and count <= f."""
    n = int(rng.integers(2, 41))
    f = int(rng.integers(0, n - 1))
    count = int(rng.integers(1, n + 1))
    G = rng.normal(size=(n, int(rng.integers(1, 9))))
    kind = trial % 9
    if kind == 1:  # duplicated rows: exact ties
        G[rng.integers(0, n, size=n // 2)] = G[rng.integers(0, n, size=n // 2)]
    elif kind == 2:  # integer rows: exact distance ties
        G = rng.integers(-2, 3, size=G.shape).astype(np.float64)
    elif kind == 3:  # every row the same: every score 0
        G[:] = G[0]
    elif kind == 4:  # every squared distance overflows to inf
        G *= 1e160
    elif kind == 5:  # some distances overflow, the rest stay finite
        G[rng.integers(0, n, size=max(1, n // 4))] *= 1e160
    elif kind == 6:
        f = 0
    elif kind == 7:
        count = n if trial % 18 == 7 else int(rng.integers(1, f + 2))
    elif kind == 8:  # a regular polygon with one vertex nudged: near-ties
        angle = 2 * np.pi * np.arange(n) / n
        G = 2.0 * np.stack([np.cos(angle), np.sin(angle)], axis=1)
        G[rng.integers(0, n), 1] += 1e-11
    return G, f, count


def _check_krum():
    rng = np.random.default_rng(19)
    with np.errstate(over="ignore"):
        for trial in range(200):
            G, f, count = krum_instance(rng, trial)
            got = multi_krum(G, f, count).kept_indices
            assert got == naive_krum_kept(G, f, count), "krum selection mismatch"


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


def _check_gradients():
    """Desk-shaped stacked backprop: a round's 7 or 8 client batches of 6,
    and a batch count of 1; each row is bitwise its batch's gradient."""
    rng = np.random.default_rng(11)
    for trial in range(12):
        params = mlp.init_params(((64, 32), (32, 3)), seed=trial)
        params = mlp.ModelParams(
            flat=params.flat + (0.1, 3.0)[trial % 2] * rng.normal(size=params.dim),
            layer_shapes=params.layer_shapes,
        )
        K = (7, 8, 1)[trial % 3]
        Xs = rng.normal(size=(K, 6, 64))
        ys = rng.integers(0, 3, size=(K, 6))
        G = mlp.gradients(params, Xs, ys)
        for k in range(K):
            assert np.array_equal(G[k], mlp.gradient(params, Xs[k], ys[k])), "stacked row drift"


# (layer shapes, parameter noise, mask pool, mask fraction, references,
# trials): a small net, then the desk task the benchmark crafts on
CRAFTING_SHAPES = (
    (((8, 6), (6, 3)), 0.4, 8, 0.5, 3, 10),
    (((64, 32), (32, 3)), 0.1, 16, 0.3, 7, 5),
)


def _check_crafting():
    rng = np.random.default_rng(13)
    grid = tuple(np.geomspace(0.01, 100.0, 25))
    for shapes, noise, n_mask, fraction, n_refs, trials in CRAFTING_SHAPES:
        d_in, classes = shapes[0][0], shapes[-1][1]
        for trial in range(trials):
            params = mlp.init_params(shapes, seed=trial)
            params = mlp.ModelParams(
                flat=params.flat + noise * rng.normal(size=params.dim),
                layer_shapes=params.layer_shapes,
            )

            def batch_gradient(n):
                return mlp.gradient(params, rng.normal(size=(n, d_in)), rng.integers(0, classes, size=n))

            refs = np.stack([batch_gradient(6) for _ in range(n_refs)])
            g_attack = batch_gradient(10)
            X = rng.normal(size=(n_mask, d_in))
            y = rng.integers(0, classes, size=n_mask)
            geo = reference_geometry(refs)
            selected, trace = greedy_mask_select(geo, X, y, fraction, params, g_attack)
            expected = naive_greedy_mask_select(X, y, fraction, params, g_attack, refs)
            assert (selected, tuple(s.feasible for s in trace)) == expected, "greedy mask mismatch"
            for size, step in enumerate(trace, start=1):
                idx = list(selected[:size])
                g = g_attack + mlp.gradient(params, X[idx], y[idx])
                assert abs(step.objective - _naive_objective(g, refs)) < 1e-9, "greedy objective drift"
            g_mask = mlp.gradient(params, X[list(selected)], y[list(selected)])
            got = optimize_alpha(geo, g_attack, g_mask, grid)
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


def _check_draws():
    """The vectorised draw kernel against each stream's own numpy Generator,
    as a choice and as the one-element choice that stands for
    Generator.integers, so a numpy whose Generator draws differently fails
    here instead of silently moving every output."""
    rng = np.random.default_rng(11)
    seeds = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64] + rng.integers(0, 2**63, size=5).tolist()
    keys = [(seed, t, k) for seed in seeds for t, k in rng.integers(0, 1000, size=(30, 2)).tolist()]
    words = [keyed_words(seed, "draws", [(t, k)])[0] for seed, t, k in keys]

    def stream(seed, t, k):  # numpy's own seeding of the same stream
        return np.random.default_rng([seed, derive_seed(seed, "draws", t, k)])

    for pop, size in ((18, 6), (10, 8), (7, 7), (50, 40), (3000, 1), (10000, 200)):
        got = sorted_choices(words, [pop] * len(words), size)
        for key, row in zip(keys, got):
            want = np.sort(stream(*key).choice(pop, size, replace=False))
            assert np.array_equal(row, want), f"choice({pop}, {size}) differs from numpy's"
    highs = [1, 6, 3 * 2**30 + 1, 2**32 - 1] + rng.integers(1, 2**32, size=len(keys) - 4).tolist()
    for key, high, value in zip(keys, highs, sorted_choices(words, highs, 1)[:, 0]):
        assert value == stream(*key).integers(0, high), f"integers(0, {high}) differs from numpy's"


SUITES = (
    ("angles", _check_angles),
    ("angular-trim", _check_atm),
    ("multi-krum", _check_krum),
    ("fang", _check_fang),
    ("gradient-fd", _check_gradient),
    ("gradients", _check_gradients),
    ("crafting", _check_crafting),
    ("order-stats", _check_lemma),
    ("deviation-bound", _check_bound),
    ("draws", _check_draws),
)
