"""Attacker behaviours: passive inference, gradient ascent, masked-gradient
crafting, and the angle-constrained poisoning pipeline.

The main pipeline flips the target samples' labels, builds the resulting
attack gradient, greedily picks mask samples whose combined gradient lets
the blend sit as far from the benign references as the benign spread
allows, then tunes the attack-gradient scale over a grid under the same
constraint. A crafted update is "feasible" when its largest angle to any
benign reference stays within the largest benign pairwise angle.
References with norm at or below NORM_FLOOR carry no direction and are
skipped.

The search is batched. The gradient of a mean loss is the mean of the
per-example gradients, so the mask pool's per-example gradients come from
one backprop per craft, and each greedy candidate's blend is
alpha * g_attack + (sum of selected rows + candidate row) / m. All of a
step's candidates, or the whole alpha grid, are scored by one
(candidates x d) @ (d x refs) product against unit references. Objectives
within TIE_TOL of the budget or of a rival are recomputed with
mlp.gradient and angle_between, so every decision (mask indices, step
feasibility, chosen alpha) is the one the per-pair computation makes.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import mlp
from .errors import (
    DegenerateGradient,
    EmptyBatch,
    EmptyMaskBudget,
    SingleClassDataset,
    TooFewReferences,
)
from .rngstream import substream
from .vectors import (
    NORM_FLOOR,
    _as_matrix,
    angle_between,
    as_vector,
    pairwise_angles,
    scaled_add,
)

ADAPTIVE_MAX_ITERS = 50
AGREVADER_MAX_HALVINGS = 20
# Batched objectives differ from per-pair angle_between values only by
# float reordering (below 1e-15 rad on desk-shaped instances). Objectives
# this close (radians) to the budget or to a rival are recomputed per pair.
TIE_TOL = 1e-9


@dataclass(frozen=True)
class AttackStrategy:
    """Which attacker runs and with what knobs."""

    kind: str = "none"  # none|passive|gradient_ascent|agrevader|fedpoisonmia|adaptive
    mask_fraction: float = 0.1  # share of the mask pool actually used
    alpha_grid: tuple[float, ...] = tuple(np.geomspace(0.01, 100.0, 25))
    knowledge: str = "full"  # full|partial
    ga_scale: float = 1.0


KINDS = ("none", "passive", "gradient_ascent", "agrevader", "fedpoisonmia", "adaptive")


@dataclass(frozen=True)
class AttackerContext:
    """Everything the poisoning attacker holds: targets, mask pool, knobs."""

    attack_features: np.ndarray
    attack_labels: np.ndarray
    mask_features: np.ndarray
    mask_labels: np.ndarray
    num_classes: int
    mask_fraction: float
    alpha_grid: tuple[float, ...]
    knowledge: str
    flip_seed: int


@dataclass(frozen=True)
class CraftResult:
    g_malicious: np.ndarray
    chosen_alpha: float
    selected_mask_indices: tuple[int, ...]
    feasible: bool
    objective_value: float  # max angle to a benign reference, radians


@dataclass(frozen=True)
class GreedyStep:
    chosen_index: int
    objective: float
    feasible: bool


def mask_budget(mask_fraction: float, pool_size: int) -> int:
    """floor(fraction * pool), nudged so 0.1 * 30 style products stay exact."""
    return math.floor(mask_fraction * pool_size + 1e-9)


def flip_labels(labels, num_classes: int, seed: int) -> np.ndarray:
    """Replace every label by a uniformly random different one."""
    if num_classes < 2:
        raise SingleClassDataset("label flipping needs at least 2 classes")
    y = np.asarray(labels, dtype=np.int64)
    offsets = substream(seed, "flip").integers(1, num_classes, size=y.shape[0])
    return (y + offsets) % num_classes


def attack_gradient(params: mlp.ModelParams, features, flipped_labels) -> np.ndarray:
    """Gradient on the flipped-label target set."""
    return mlp.gradient(params, features, flipped_labels)


def usable_references(benign_grads) -> np.ndarray:
    """Stack the references and drop those too short to carry a direction.

    A benign gradient can underflow to norm ~1e-83 on a well-fit shard;
    the attacker skips it rather than failing on its undefined angle.
    """
    G = _as_matrix(benign_grads)
    G = G[np.linalg.norm(G, axis=1) > NORM_FLOOR]
    if G.shape[0] < 2:
        raise TooFewReferences(f"need at least 2 usable references, got {G.shape[0]}")
    return G


def benign_angle_budget(benign_grads) -> float:
    """Largest pairwise angle among the usable benign references."""
    return float(pairwise_angles(usable_references(benign_grads)).max())


def _max_angle_to_refs(g, refs) -> float:
    return max(angle_between(g, r) for r in refs)


def _max_angles(blends, refs) -> np.ndarray:
    """Largest angle from each row of `blends` to any reference.

    One (rows x d) @ (d x refs) product against unit references, with
    angle_between's checks made once for the whole batch.
    """
    if not np.all(np.isfinite(blends)):
        raise DegenerateGradient("blend contains NaN or Inf entries")
    norms = np.linalg.norm(blends, axis=1)
    bad = np.flatnonzero(norms <= NORM_FLOOR)
    if bad.size:
        raise DegenerateGradient(f"blend norm {norms[bad[0]]:.3e} below floor {NORM_FLOOR}")
    unit_refs = refs / np.linalg.norm(refs, axis=1)[:, None]
    cos = (blends @ unit_refs.T).min(axis=1) / norms
    return np.arccos(np.clip(cos, -1.0, 1.0))


def _recompute(objectives, which, exact) -> None:
    """Overwrite the batched objectives flagged in `which` by exact(i)."""
    for i in np.flatnonzero(which):
        objectives[i] = exact(int(i))


def _best_feasible(objectives, angle_budget: float, exact):
    """Index of the largest objective within the budget (first on ties), or None.

    Objectives within TIE_TOL of the budget, or of each other at the top,
    are first replaced by exact(i), their per-pair value.
    """
    _recompute(objectives, np.abs(objectives - angle_budget) <= TIE_TOL, exact)
    feasible = objectives <= angle_budget
    if not feasible.any():
        return None
    top = feasible & (objectives >= objectives[feasible].max() - TIE_TOL)
    if np.count_nonzero(top) > 1:
        _recompute(objectives, top, exact)
    return int(np.argmax(np.where(feasible, objectives, -np.inf)))


def greedy_mask_select(
    mask_features,
    mask_labels,
    mask_fraction: float,
    params: mlp.ModelParams,
    g_attack,
    alpha_fixed: float,
    benign_grads,
) -> tuple[tuple[int, ...], tuple[GreedyStep, ...]]:
    """Grow the mask subset one sample at a time.

    Each step adds the candidate maximising the blend's largest angle to a
    benign reference among candidates that keep it within the benign
    budget. If no candidate is feasible the step falls back to the one
    minimising that angle (marked infeasible in the trace) so the budget
    cardinality is always reached.
    """
    X = np.asarray(mask_features, dtype=np.float64)
    y = np.asarray(mask_labels, dtype=np.int64)
    budget = mask_budget(mask_fraction, X.shape[0])
    if budget < 1:
        raise EmptyMaskBudget(
            f"mask_fraction {mask_fraction} of {X.shape[0]} samples selects nothing"
        )
    refs = usable_references(benign_grads)
    angle_budget = benign_angle_budget(refs)
    g_attack = as_vector(g_attack)
    base = float(alpha_fixed) * g_attack
    P = mlp.per_example_gradients(params, X, y)
    picked_sum = np.zeros(P.shape[1])

    selected: list[int] = []
    trace: list[GreedyStep] = []
    for _ in range(budget):
        candidates = np.setdiff1d(np.arange(X.shape[0]), selected)
        m = len(selected) + 1
        objectives = _max_angles(base + (picked_sum + P[candidates]) / m, refs)

        def exact(ci):
            trial = selected + [int(candidates[ci])]
            g_mask = mlp.gradient(params, X[trial], y[trial])
            return _max_angle_to_refs(scaled_add(alpha_fixed, g_attack, g_mask), refs)

        pick = _best_feasible(objectives, angle_budget, exact)
        step_ok = pick is not None
        if not step_ok:
            low = objectives <= objectives.min() + TIE_TOL
            if np.count_nonzero(low) > 1:
                _recompute(objectives, low, exact)
            pick = int(np.argmin(objectives))
        chosen = int(candidates[pick])
        selected.append(chosen)
        picked_sum += P[chosen]
        trace.append(
            GreedyStep(
                chosen_index=chosen,
                objective=float(objectives[pick]),
                feasible=step_ok,
            )
        )
    return tuple(selected), tuple(trace)


def optimize_alpha(
    g_attack, g_mask, benign_grads, alpha_grid
) -> tuple[float, bool]:
    """Grid-search the attack-gradient scale.

    Returns the feasible grid point with the largest max-angle objective
    (lowest scale on ties), or (0, False) when no point satisfies the
    benign-spread constraint.
    """
    refs = usable_references(benign_grads)
    angle_budget = benign_angle_budget(refs)
    g_attack = as_vector(g_attack)
    g_mask = as_vector(g_mask)
    alphas = np.asarray(alpha_grid, dtype=np.float64)
    objectives = _max_angles(alphas[:, None] * g_attack + g_mask, refs)

    def exact(i):
        return _max_angle_to_refs(scaled_add(alphas[i], g_attack, g_mask), refs)

    pick = _best_feasible(objectives, angle_budget, exact)
    if pick is None:
        return 0.0, False
    return float(alphas[pick]), True


def craft_fedpoisonmia(
    ctx: AttackerContext, params: mlp.ModelParams, benign_grads
) -> CraftResult:
    """Full pipeline: flip labels, build the attack gradient, greedily pick
    mask samples (scale fixed at 1), then tune the scale on the grid.
    """
    refs = usable_references(benign_grads)
    flipped = flip_labels(ctx.attack_labels, ctx.num_classes, ctx.flip_seed)
    g_attack = attack_gradient(params, ctx.attack_features, flipped)
    selected, _trace = greedy_mask_select(
        ctx.mask_features,
        ctx.mask_labels,
        ctx.mask_fraction,
        params,
        g_attack,
        1.0,
        refs,
    )
    idx = list(selected)
    g_mask = mlp.gradient(params, ctx.mask_features[idx], ctx.mask_labels[idx])
    alpha, feasible = optimize_alpha(g_attack, g_mask, refs, ctx.alpha_grid)
    g_mal = scaled_add(alpha, g_attack, g_mask)
    objective = _max_angle_to_refs(g_mal, refs)
    return CraftResult(
        g_malicious=g_mal,
        chosen_alpha=alpha,
        selected_mask_indices=selected,
        feasible=feasible,
        objective_value=objective,
    )


def craft_gradient_ascent(
    params: mlp.ModelParams, features, labels, scale: float
) -> np.ndarray:
    """Ascent step on the target samples: the negated descent gradient."""
    X = np.asarray(features, dtype=np.float64)
    if X.shape[0] == 0:
        raise EmptyBatch("target set is empty")
    return -float(scale) * mlp.gradient(params, X, labels)


def craft_agrevader(
    params: mlp.ModelParams,
    flipped_features,
    flipped_labels,
    mask_features,
    mask_labels,
    benign_grads,
) -> np.ndarray:
    """Blend the flipped-label gradient with the full-pool mask gradient,
    halving the attack share until the blend lands within the benign
    cluster's Euclidean diameter (or give up and send the mask alone).
    """
    refs = _as_matrix(benign_grads)
    g_attack = mlp.gradient(params, flipped_features, flipped_labels)
    g_mask = mlp.gradient(params, mask_features, mask_labels)
    # benign diameter, one row of squared distances at a time: O(r*d) memory
    sq_diameter = 0.0
    for i in range(refs.shape[0]):
        D = refs - refs[i]
        sq_diameter = max(sq_diameter, float(np.einsum("jk,jk->j", D, D).max()))
    dist_budget = float(np.sqrt(sq_diameter))
    scale = 1.0
    for _ in range(AGREVADER_MAX_HALVINGS + 1):
        g = scale * g_attack + g_mask
        nearest = float(np.min(np.linalg.norm(refs - g, axis=1)))
        if nearest <= dist_budget:
            return g
        scale /= 2.0
    return g_mask


def craft_adaptive(benign_grads, g_attack, trim_b: int) -> np.ndarray:
    """Pull the attack gradient toward the benign cluster until its mean
    angle drops below the angular-trim threshold (or the iteration cap).

    Each failed check averages the attack gradient with the benign
    gradient farthest from it in angle.
    """
    refs = usable_references(benign_grads)
    g = np.asarray(g_attack, dtype=np.float64)
    if trim_b <= 0:
        return g  # nothing is ever trimmed
    n = refs.shape[0] + 1
    if 2 * trim_b >= n:
        raise TooFewReferences(f"2*{trim_b} >= {n} total gradients")
    for _ in range(ADAPTIVE_MAX_ITERS):
        stack = np.vstack([refs, g])
        A = pairwise_angles(stack)
        means = A.sum(axis=1) / (n - 1)
        threshold = np.sort(means)[::-1][2 * trim_b - 1]
        if means[-1] < threshold:
            break
        to_attack = A[-1, :-1]
        farthest = int(np.argmax(to_attack))
        g = 0.5 * (g + refs[farthest])
    return g


def passive_infer(params: mlp.ModelParams, features, labels) -> np.ndarray:
    """Member flag per sample: correctly predicted means member."""
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    return mlp.predict_batch(params, X) == y
