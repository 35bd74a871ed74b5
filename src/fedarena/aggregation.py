"""Server-side aggregation rules and gradient filters.

Every rule consumes a stack of client gradients (n, d) and returns an
AggregationOutcome: the aggregate, which client indices survived any
filtering, and rule-specific diagnostics. Rules are pure given their
inputs (noise injection takes an explicit seed).
"""

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Optional

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


KINDS = ("fedavg", "median", "trimmed_mean", "atm", "multi_krum", "dp", "topk", "fang")


# fang's batched leave-one-out scores differ from per-candidate ones only by
# float reordering (about 1e-15 relative on desk-shaped instances); losses
# this close (relative) to the best, and predictions decided by a top-2
# logit margin this small, are recomputed per candidate.
FANG_TIE_TOL = 1e-9


def fedavg(grads, weights=None) -> AggregationOutcome:
    """Weighted mean of the gradients (uniform when weights is None).

    Equal weights fall through to the same column-mean computation the
    trimming rules use, so rule equivalences hold bit-for-bit.
    """
    G = _as_matrix(grads)
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


def coordinate_median(grads) -> AggregationOutcome:
    """Element-wise median; even counts average the two central values."""
    G = _as_matrix(grads)
    if G.shape[0] == 0:
        raise EmptyInput("no gradients to aggregate")
    return AggregationOutcome(
        aggregate=np.median(G, axis=0), kept_indices=tuple(range(G.shape[0]))
    )


def trimmed_mean(grads, trim_b: int) -> AggregationOutcome:
    """Per dimension, drop the b largest and b smallest values, then average."""
    G = _as_matrix(grads)
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


def mean_angles(grads, include_self: bool = False) -> np.ndarray:
    """Per-gradient mean angle to the others.

    The self-angle is zero, so including it and dividing by n instead of
    n-1 rescales every score by the same factor and cannot change the
    ranking; both conventions are exposed so that equivalence is testable.
    A gradient with norm <= NORM_FLOOR sits at angle pi to every other one,
    so it scores pi, the most deviant score, and adds the same pi/(n-1) to
    every other score, which leaves their ranking as it was.
    """
    A = pairwise_angles(grads, degenerate_far=True)
    n = A.shape[0]
    if include_self:
        return A.sum(axis=1) / n
    return A.sum(axis=1) / (n - 1)


def atm(grads, trim_b: int, include_self: bool = False) -> AggregationOutcome:
    """Angular trimmed-mean: drop the 2b gradients with the largest mean
    angle to the rest, average the survivors.

    Ties in the mean angle keep the lower client index. A zero-norm
    gradient ranks as most deviant (see `mean_angles`).
    """
    G = _as_matrix(grads)
    n = G.shape[0]
    if n < 2:
        raise EmptyInput(f"angular trimming needs at least 2 gradients, got {n}")
    if trim_b < 0 or 2 * trim_b >= n:
        raise TrimTooLarge(f"2*{trim_b} >= {n} gradients")
    scores = mean_angles(G, include_self=include_self)
    order = np.lexsort((np.arange(n), scores))  # ascending score, index breaks ties
    kept = np.sort(order[: n - 2 * trim_b])
    threshold = float(scores[order[n - 2 * trim_b]]) if trim_b > 0 else None
    return AggregationOutcome(
        aggregate=G[kept].mean(axis=0),
        kept_indices=tuple(int(k) for k in kept),
        diagnostics={"mean_angles": scores, "trim_threshold": threshold},
    )


def multi_krum(grads, num_malicious: int, count: int, sq_dists=None) -> AggregationOutcome:
    """Iteratively pick the gradient whose n-f-1 nearest (remaining)
    neighbours are closest in squared distance, until `count` are chosen;
    the aggregate is their mean.

    `sq_dists` is the (n, n) squared-distance block of `grads` when the
    caller keeps one (async runs update it one row per arrival); it must
    equal `pairwise_sq_distances(grads)` and is not modified.
    """
    G = _as_matrix(grads)
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
    remaining = list(range(n))
    chosen: list[int] = []
    while len(chosen) < count:
        neigh = min(n - f - 1, len(remaining) - 1)
        scores = np.sort(d2[np.ix_(remaining, remaining)], axis=1)[:, :neigh].sum(axis=1)
        best = remaining[int(np.argmin(scores))]
        chosen.append(best)
        remaining.remove(best)
    kept = sorted(chosen)
    return AggregationOutcome(
        aggregate=G[kept].mean(axis=0),
        kept_indices=tuple(chosen),
        diagnostics={"selection_order": tuple(chosen)},
    )


def dp_wrap(grads, noise_std: float, inner: Callable, seed: int) -> AggregationOutcome:
    """Add iid Gaussian noise to every gradient coordinate, then aggregate."""
    if noise_std < 0:
        raise InvalidConfig(f"noise std {noise_std} is negative")
    G = _as_matrix(grads)
    if noise_std > 0:
        G = G + substream(seed, "dp_noise").normal(0.0, noise_std, size=G.shape)
    return inner(G)


def topk_wrap(grads, k: int, inner: Callable) -> AggregationOutcome:
    """Keep each gradient's k largest-magnitude coordinates (ties keep the
    lower dimension index), zero the rest, then aggregate."""
    G = _as_matrix(grads)
    d = G.shape[1]
    if not 1 <= k <= d:
        raise InvalidK(f"k {k} outside [1, {d}]")
    keep = np.argsort(-np.abs(G), axis=1, kind="stable")[:, :k]
    sparse = np.zeros_like(G)
    np.put_along_axis(sparse, keep, np.take_along_axis(G, keep, axis=1), axis=1)
    return inner(sparse)


def fang_filter(
    grads,
    params: mlp.ModelParams,
    val_features,
    val_labels,
    mode: str,
    lr: float,
    remove_count: int = 1,
    val_products=None,
) -> AggregationOutcome:
    """Leave-one-out validation filter (Fang et al. ERR/LFR): repeatedly
    drop the gradient whose removal gives the best validation score (error
    rate under err, mean loss under lfr; the first position on ties), then
    average the survivors.

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
    G = _as_matrix(grads)
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
    sq_dists=None,
    val_products=None,
) -> AggregationOutcome:
    """Dispatch a configured rule. Weights reach fedavg only; dp and topk
    run their `inner` kind on their own knobs. `sq_dists`, the squared
    distances of `grads` (see `multi_krum`), reaches a top-level multi_krum
    only, and `val_products`, the first-layer products of `grads` (see
    `fang_filter`), a top-level fang only: dp and topk change the gradients
    before their inner rule runs."""
    G = _as_matrix(grads)
    n, d = G.shape
    kind = rule.kind
    if kind == "fedavg":
        return fedavg(G, weights)
    if kind == "median":
        return coordinate_median(G)
    if kind == "trimmed_mean":
        return trimmed_mean(G, rule.trim_b)
    if kind == "atm":
        return atm(G, rule.trim_b)
    if kind == "multi_krum":
        count = rule.krum_count if rule.krum_count > 0 else n - rule.krum_f
        return multi_krum(G, rule.krum_f, count, sq_dists)
    if kind in ("dp", "topk"):
        if rule.inner in ("dp", "topk"):
            raise InvalidConfig(f"{kind} cannot wrap {rule.inner!r}")
        inner = partial(
            apply_rule,
            replace(rule, kind=rule.inner),
            weights=weights,
            seed=seed,
            params=params,
            val_features=val_features,
            val_labels=val_labels,
            lr=lr,
        )
        if kind == "dp":
            return dp_wrap(G, rule.dp_sigma, inner, seed)
        k = rule.top_k if rule.top_k > 0 else d
        return topk_wrap(G, k, inner)
    if kind == "fang":
        if params is None:
            raise InvalidConfig("fang rule needs the current model")
        return fang_filter(
            G, params, val_features, val_labels, rule.fang_mode, lr, rule.fang_remove, val_products
        )
    raise InvalidConfig(f"unknown aggregation kind {kind!r}")
