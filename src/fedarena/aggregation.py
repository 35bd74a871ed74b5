"""Server-side aggregation rules and gradient filters.

`apply_rule` is the boundary: it checks the client gradients once, into a
finite (n, d) float64 matrix (`vectors._as_matrix`), and dispatches the
configured kind. The engine screens each update once, as it arrives, and
hands the rows over as a `_Screened` view, which is not checked again.
Every rule takes that checked matrix and returns an AggregationOutcome:
the aggregate, which client indices survived any filtering, and
rule-specific diagnostics. dp and topk are row transforms (`dp_noise`,
`topk_rows`) that `apply_rule` runs before their inner kind.
Rules are pure given their inputs (noise injection takes an explicit
seed).
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import mlp
from .errors import (
    DimensionMismatch,
    EmptyInput,
    EmptyValidationSet,
    InvalidConfig,
    InvalidK,
    InvalidKrumParams,
    TrimTooLarge,
    WeightMismatch,
)
from .rngstream import substream
from .vectors import _as_matrix, pairwise_angles, pairwise_sq_distances


@dataclass(frozen=True)
class AggregationOutcome:
    aggregate: np.ndarray
    kept_indices: tuple[int, ...]
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class AggregationRule:
    """Config for one rule; dp/topk hand their rows to the `inner` kind."""

    kind: str = "fedavg"  # fedavg|median|trimmed_mean|atm|multi_krum|dp|topk|fang
    trim_b: int = 1
    dp_sigma: float = 0.05
    top_k: int = 0  # 0 means keep every dimension
    krum_f: int = 1
    krum_count: int = 0  # 0 means n - krum_f at call time
    fang_mode: str = "lfr"  # err|lfr
    fang_remove: int = 1
    inner: str = "fedavg"  # run on these same knobs; not dp|topk itself


class _Screened(np.ndarray):
    """A view of rows already screened into a finite (n, d) float64 matrix:
    the engine screens each update once (`UpdateBuffer.put` as it arrives,
    `_as_matrix` on a sync round's stack) and marks the rows it aggregates
    with `view(_Screened)`. `apply_rule` takes them as a plain view at once,
    so no array derived from them carries the mark."""


KINDS = ("fedavg", "median", "trimmed_mean", "atm", "multi_krum", "dp", "topk", "fang")


# fang's batched leave-one-out scores differ from per-candidate ones only by
# float reordering (about 1e-15 relative on desk-shaped instances); losses
# this close (relative) to the best, and predictions decided by a top-2
# logit margin this small, are recomputed per candidate.
FANG_TIE_TOL = 1e-9

# multi_krum's running scores differ from sorted sums by float reordering:
# a row's error is below KRUM_TIE_TOL times its first sorted sum, so rows
# whose bounds reach the lowest are rescored exactly before the argmin.
KRUM_TIE_TOL = 1e-9


def fedavg(G, weights=None) -> AggregationOutcome:
    """Weighted mean of the checked gradients (uniform when weights is None).

    Equal weights fall through to the same column-mean computation the
    trimming rules use, so rule equivalences hold bit-for-bit.
    """
    n = G.shape[0]
    if n == 0:
        raise EmptyInput("no gradients to aggregate")
    if weights is None:
        return AggregationOutcome(aggregate=G.mean(axis=0), kept_indices=tuple(range(n)))
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise WeightMismatch(f"weights shaped {w.shape} for {n} gradients")
    if np.any(w < 0) or w.sum() <= 0:
        raise WeightMismatch("weights must be non-negative with positive sum")
    if np.all(w == w[0]):
        return AggregationOutcome(aggregate=G.mean(axis=0), kept_indices=tuple(range(n)))
    w = w / w.sum()
    return AggregationOutcome(aggregate=(w[:, None] * G).sum(axis=0), kept_indices=tuple(range(n)))


def coordinate_median(G) -> AggregationOutcome:
    """Element-wise median of the checked gradients; even counts average
    the two central values, (a + b) / 2, the float np.median makes. One
    sort of the columns replaces np.median's partition."""
    n = G.shape[0]
    if n == 0:
        raise EmptyInput("no gradients to aggregate")
    S = np.sort(G, axis=0)
    mid = S[n // 2] if n % 2 else (S[n // 2 - 1] + S[n // 2]) / 2
    return AggregationOutcome(aggregate=mid, kept_indices=tuple(range(n)))


def trimmed_mean(G, trim_b: int) -> AggregationOutcome:
    """Per dimension of the checked gradients, drop the b largest and b
    smallest values, then average."""
    n = G.shape[0]
    if trim_b < 0 or 2 * trim_b >= n:
        raise TrimTooLarge(f"trim {trim_b} per side infeasible for {n} gradients")
    if trim_b == 0:
        core = G  # same float path as the unweighted mean
    else:
        core = np.sort(G, axis=0)[trim_b : n - trim_b]
    return AggregationOutcome(
        aggregate=core.mean(axis=0),
        kept_indices=tuple(range(n)),
        diagnostics={"trim_b": trim_b},
    )


def mean_angles(grads, include_self: bool = False, angles=None) -> np.ndarray:
    """Per-gradient mean angle to the others.

    The self-angle is zero, so including it and dividing by n instead of
    n-1 rescales every score by the same factor and cannot change the
    ranking; both conventions are exposed so that equivalence is testable.
    A gradient with norm <= NORM_FLOOR sits at angle pi to every other one
    (see `pairwise_angles`), so it scores pi, the most deviant score, and
    adds the same pi/(n-1) to every other score, which leaves their ranking
    as it was.

    `angles` is the (n, n) angle block of `grads` when the caller keeps
    one (async runs update it one row per arrival); it must equal
    `pairwise_angles(grads)` and is not modified.
    """
    if angles is None:
        A = pairwise_angles(grads)
    else:
        A = np.asarray(angles, dtype=np.float64)
        if A.shape != (len(grads), len(grads)):
            raise DimensionMismatch(f"angle block shaped {A.shape} for {len(grads)} gradients")
    n = A.shape[0]
    if include_self:
        return A.sum(axis=1) / n
    return A.sum(axis=1) / (n - 1)


def atm(G, trim_b: int, include_self: bool = False, angles=None) -> AggregationOutcome:
    """Angular trimmed-mean: drop the 2b checked gradients with the largest
    mean angle to the rest, average the survivors.

    Ties in the mean angle keep the lower client index. A zero-norm
    gradient ranks as most deviant (see `mean_angles`, which reads the
    `angles` block when the caller keeps one).
    """
    n = G.shape[0]
    if n < 2:
        raise EmptyInput(f"angular trimming needs at least 2 gradients, got {n}")
    if trim_b < 0 or 2 * trim_b >= n:
        raise TrimTooLarge(f"2*{trim_b} >= {n} gradients")
    scores = mean_angles(G, include_self=include_self, angles=angles)
    order = np.lexsort((np.arange(n), scores))  # ascending score, index breaks ties
    kept = np.sort(order[: n - 2 * trim_b])
    threshold = float(scores[order[n - 2 * trim_b]]) if trim_b > 0 else None
    return AggregationOutcome(
        aggregate=G[kept].mean(axis=0),
        kept_indices=tuple(int(k) for k in kept),
        diagnostics={"mean_angles": scores, "trim_threshold": threshold},
    )


def multi_krum(G, num_malicious: int, count: int, sq_dists=None) -> AggregationOutcome:
    """Iteratively pick the checked gradient whose n-f-1 nearest (remaining)
    neighbours are closest in squared distance, until `count` are chosen;
    the aggregate is their mean.

    `sq_dists` is the (n, n) squared-distance block of `G` when the caller
    keeps one (async runs update it one row per arrival); it must equal
    `pairwise_sq_distances(G)` and is not modified.

    A row's score is the sum of its `neigh` smallest distances to the
    remaining rows, sorted ascending (`_krum_scores`); ties keep the lowest
    id. Picks are made on a copy of the block in which the diagonal and the
    picked rows' columns are inf. From the pick on which every remaining
    neighbour counts (the (f+1)-th), each remaining row's score is its
    sorted sum at that pick less the distances to the rows picked since,
    one subtraction per pick. That running score rounds differently, by
    less than KRUM_TIE_TOL times the row's first sorted sum; every row whose
    score within that bound can reach the lowest is rescored as a sorted
    sum before the argmin, and until every score is finite each pick is
    scored whole. So each pick is the one the per-pick sort
    (`selftest.naive_krum_kept`) makes.
    """
    n = G.shape[0]
    f = int(num_malicious)
    if n - f - 1 < 1:
        raise InvalidKrumParams(f"n-f-1 = {n - f - 1} < 1")
    if not 1 <= count <= n:
        raise InvalidKrumParams(f"count {count} outside [1, {n}]")
    if sq_dists is None:
        d2 = pairwise_sq_distances(G)
    else:
        d2 = np.array(sq_dists, dtype=np.float64)
        if d2.shape != (n, n):
            raise DimensionMismatch(f"distance block shaped {d2.shape} for {n} gradients")
    np.fill_diagonal(d2, np.inf)  # sorts last, so never its own neighbour
    live = np.ones(n, dtype=bool)
    chosen: list[int] = []
    running = slack = None  # per row; a picked row's running score is inf
    while len(chosen) < count:
        neigh = min(n - f - 1, n - len(chosen) - 1)
        if running is None:
            rows = np.flatnonzero(live)
            scores = _krum_scores(d2, rows, neigh)
            best = int(rows[np.argmin(scores)])
            if neigh == rows.size - 1 and np.isfinite(scores).all():
                running, slack = np.full(n, np.inf), np.zeros(n)
                running[rows] = scores
                slack[rows] = KRUM_TIE_TOL * scores
        else:
            # every row whose sorted sum can be the lowest is near; a lone
            # near row is the argmin
            near = (running - slack <= (running + slack).min()).nonzero()[0]
            best = int(near[np.argmin(_krum_scores(d2, near, neigh))] if near.size > 1 else near[0])
        chosen.append(best)
        live[best] = False
        if running is not None:
            np.subtract(running, d2[:, best], out=running, where=live)
            running[best] = np.inf
        d2[:, best] = np.inf
    kept = sorted(chosen)
    return AggregationOutcome(
        aggregate=G[kept].mean(axis=0),
        kept_indices=tuple(chosen),
        diagnostics={"selection_order": tuple(chosen)},
    )


def _krum_scores(d2, rows, neigh: int) -> np.ndarray:
    """The Krum score of each of `rows`: its `neigh` smallest entries of
    `d2`, sorted ascending and summed."""
    return np.sort(d2[rows], axis=1)[:, :neigh].sum(axis=1)


def dp_noise(G, noise_std: float, seed: int) -> np.ndarray:
    """The checked gradients plus iid Gaussian noise on every coordinate,
    checked again: a finite row plus noise can overflow."""
    if noise_std < 0:
        raise InvalidConfig(f"noise std {noise_std} is negative")
    if noise_std == 0:
        return G
    return _as_matrix(G + substream(seed, "dp_noise").normal(0.0, noise_std, size=G.shape))


def topk_rows(G, k: int) -> np.ndarray:
    """Each checked gradient with its k largest-magnitude coordinates kept
    (ties keep the lower dimension index) and the rest zeroed."""
    d = G.shape[1]
    if not 1 <= k <= d:
        raise InvalidK(f"k {k} outside [1, {d}]")
    keep = np.argsort(-np.abs(G), axis=1, kind="stable")[:, :k]
    sparse = np.zeros_like(G)
    np.put_along_axis(sparse, keep, np.take_along_axis(G, keep, axis=1), axis=1)
    return sparse


def fang_filter(
    G,
    params: mlp.ModelParams,
    val_features,
    val_labels,
    mode: str,
    lr: float,
    remove_count: int = 1,
    val_products=None,
) -> AggregationOutcome:
    """Leave-one-out validation filter (Fang et al. ERR/LFR): repeatedly
    drop the checked gradient whose removal gives the best validation
    score (error rate under err, mean loss under lfr; the first position
    on ties), then average the survivors.

    A pass scores its k candidates in one batch. Candidate i steps the
    model by the mean of the other rows, (S - g_i)/(k-1), S the sum of the
    rows held. The first layer is linear in that step, so the candidate's
    first-layer pre-activation on the validation examples X is
    X@W1 + b1_i - lr/(k-1) * (XS - XG_i), where XG_i = X @ W1-block(g_i)
    is the row's (v, h) block (`mlp.input_products`) and XS the sum of the
    held blocks. Only the later parameters (b1 onward) are formed per
    candidate, and every layer after the first is one stacked matmul.
    `val_products` is the (n, v, h) stack of the blocks when the caller
    keeps them (async runs store one per arrival); it must equal the stack
    this function would compute.

    Batched scores round differently from stepping each candidate model
    (by about 1e-15 relative). So under lfr every candidate whose loss is
    within FANG_TIE_TOL (relative) of the best, and under err every
    candidate with a validation example whose top-2 logit margin is within
    FANG_TIE_TOL, is rescored on the per-candidate path before the argmin;
    a pass with a non-finite loss is rescored whole. Each removal is then
    the one the per-candidate loop (`selftest.naive_fang_kept`) makes.

    diagnostics: `removed`, the positions dropped in removal order, and
    `scores`, the last pass's score per candidate (the positions held
    before its removal, ascending; empty when nothing is removed).
    """
    n = G.shape[0]
    if n < 2:
        raise EmptyInput(f"leave-one-out filtering needs at least 2 gradients, got {n}")
    X = np.asarray(val_features, dtype=np.float64)
    y = np.asarray(val_labels, dtype=np.int64)
    if X.shape[0] == 0:
        raise EmptyValidationSet("validation set is empty")
    if mode not in ("err", "lfr"):
        raise InvalidConfig(f"unknown fang mode {mode!r}")
    shapes = params.layer_shapes
    if G.shape[1] != params.dim:
        raise DimensionMismatch(f"gradients of length {G.shape[1]} for a model of {params.dim}")
    if X.ndim != 2 or X.shape[1] != params.input_dim or y.shape != (X.shape[0],):
        raise DimensionMismatch(f"validation shapes {X.shape}/{y.shape} incompatible with model")
    if val_products is None:
        P = np.stack([mlp.input_products(X, g, shapes) for g in G])
    else:
        P = np.asarray(val_products, dtype=np.float64)
        if P.shape != (n, X.shape[0], shapes[0][1]):
            raise DimensionMismatch(f"product block shaped {P.shape} for {n} gradients")
    first = shapes[0][0] * shapes[0][1]
    XW1 = X @ params.flat[:first].reshape(shapes[0])

    kept = np.arange(n)
    removed: list[int] = []
    scores = np.empty(0)
    for _ in range(min(remove_count, n - 1)):
        held = P if kept.size == n else P[kept]
        logits = _loo_logits(params, XW1, held, G[kept, first:], lr)
        scores = _scores(logits, y, mode)
        if mode == "err":
            recheck = ~_clear_margins(logits)
        elif np.isfinite(scores).all():
            best = scores.min()
            recheck = scores <= best + FANG_TIE_TOL * max(1.0, abs(best))
        else:
            recheck = np.ones(kept.size, dtype=bool)
        for i in np.flatnonzero(recheck):
            step = G[np.delete(kept, i)].mean(axis=0)
            scores[i] = _candidate_score(mlp.apply_update(params, step, lr), X, y, mode)
        pick = int(np.argmin(scores))
        removed.append(int(kept[pick]))
        kept = np.delete(kept, pick)
    return AggregationOutcome(
        aggregate=G[kept].mean(axis=0),
        kept_indices=tuple(int(k) for k in kept),
        diagnostics={"mode": mode, "removed": tuple(removed), "scores": scores},
    )


def _loo_logits(params: mlp.ModelParams, XW1, P, T, lr: float) -> np.ndarray:
    """(k, c, v) class-major validation logits of the k leave-one-out
    models, from the held rows' first-layer products P (k, v, h) and
    parameter tails T (k, d - d_in*h): candidate i steps by lr times the
    mean of the other rows."""
    k = P.shape[0]
    c = lr / (k - 1)
    shapes = params.layer_shapes
    tails = params.flat[shapes[0][0] * shapes[0][1] :] - c * (T.sum(axis=0) - T)
    a = P * c
    a += XW1 - c * P.sum(axis=0)
    offset = 0
    for li, (fi, fo) in enumerate(shapes):
        if li > 0:
            a = a @ tails[:, offset : offset + fi * fo].reshape(k, fi, fo)
            offset += fi * fo
        a += tails[:, None, offset : offset + fo]
        offset += fo
        if li < len(shapes) - 1:
            np.maximum(a, 0.0, out=a)
    return np.ascontiguousarray(a.transpose(0, 2, 1))


def _scores(logits, y, mode: str) -> np.ndarray:
    """Per-candidate error rate (err) or mean cross-entropy (lfr) from
    class-major logits."""
    if mode == "err":
        return np.mean(logits.argmax(axis=1) != y, axis=1)
    zmax = logits.max(axis=1)
    lse = zmax + np.log(np.exp(logits - zmax[:, None, :]).sum(axis=1))
    return np.mean(lse - logits[:, y, np.arange(y.shape[0])], axis=1)


def _clear_margins(logits) -> np.ndarray:
    """Per candidate: whether every example's top logit is finite and beats
    the runner-up by more than FANG_TIE_TOL (relative), so no rounding can
    change its predictions."""
    if logits.shape[1] < 2:
        return np.isfinite(logits).all(axis=(1, 2))
    top2 = np.partition(logits, -2, axis=1)[:, -2:]
    top = top2[:, 1]
    clear = (top - top2[:, 0] > FANG_TIE_TOL * np.maximum(1.0, np.abs(top))) & np.isfinite(top)
    return clear.all(axis=1)


def _candidate_score(model: mlp.ModelParams, X, y, mode: str) -> float:
    if mode == "err":
        return float(np.mean(mlp.predict_batch(model, X) != y))
    return mlp.loss(model, X, y)


def apply_rule(
    rule: AggregationRule,
    grads,
    weights=None,
    *,
    seed: int = 0,
    params: Optional[mlp.ModelParams] = None,
    val_features=None,
    val_labels=None,
    lr: float = 0.01,
    block=None,
) -> AggregationOutcome:
    """Check `grads` once and run the configured rule on them; rows the
    engine has screened come as a `_Screened` view and are taken as they
    are, while any other caller's rows are checked (`_as_matrix`). Weights
    reach fedavg only. dp and topk transform the rows (`dp_noise`,
    `topk_rows`), then run their `inner` kind on the same knobs. `block` is
    the block of `grads` a caller keeps for the kind: the pairwise angles a
    top-level atm reads (its `angles`), the squared distances a top-level
    multi_krum reads (its `sq_dists`), or the first-layer products a
    top-level fang reads (its `val_products`); a dp/topk transform changes
    the rows, so its inner rule recomputes it."""
    G = grads.view(np.ndarray) if isinstance(grads, _Screened) else _as_matrix(grads)
    kind = rule.kind
    if kind in ("dp", "topk"):
        if rule.inner in ("dp", "topk"):
            raise InvalidConfig(f"{kind} cannot wrap {rule.inner!r}")
        if kind == "dp":
            G = dp_noise(G, rule.dp_sigma, seed)
        else:
            G = topk_rows(G, rule.top_k if rule.top_k > 0 else G.shape[1])
        kind, block = rule.inner, None
    if kind == "fedavg":
        return fedavg(G, weights)
    if kind == "median":
        return coordinate_median(G)
    if kind == "trimmed_mean":
        return trimmed_mean(G, rule.trim_b)
    if kind == "atm":
        return atm(G, rule.trim_b, angles=block)
    if kind == "multi_krum":
        count = rule.krum_count if rule.krum_count > 0 else G.shape[0] - rule.krum_f
        return multi_krum(G, rule.krum_f, count, block)
    if kind == "fang":
        if params is None:
            raise InvalidConfig("fang rule needs the current model")
        return fang_filter(
            G, params, val_features, val_labels, rule.fang_mode, lr, rule.fang_remove, block
        )
    raise InvalidConfig(f"unknown aggregation kind {kind!r}")
