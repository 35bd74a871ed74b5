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

The search is scored in dot-product space. Each craft builds one
reference geometry: the usable references, their unit rows U and the
benign budget. The gradient of a mean loss is the mean of the per-example
gradients P, and a greedy candidate's blend is
alpha * g_attack + (sum of selected rows + candidate row) / m, so its dots
with U and its squared norm follow from P @ [U; alpha * g_attack].T and
P @ P.T, which one backprop per craft yields without forming P
(mlp.per_example_products), plus running sums over the selected rows. An
alpha-grid blend's dots and squared norm follow likewise from U @ g_attack,
U @ g_mask and the three dot products of the two gradients. No array of
the model's width is formed per candidate. A row whose expansion is
non-finite, cancels (its triangle-inequality bound squared exceeds
CANCEL_RATIO times its squared norm) or lies near NORM_FLOOR is scored
per pair instead, which also raises DegenerateGradient on a degenerate
blend. Objectives within TIE_TOL of the budget or of a rival are
recomputed with mlp.gradient and angle_between, so every decision (mask
indices, step feasibility, chosen alpha) is the one the per-pair
computation makes.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import mlp
from .errors import (
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
    pairwise_sq_distances,
    scaled_add,
)

ADAPTIVE_MAX_ITERS = 50
AGREVADER_MAX_HALVINGS = 20
# Batched objectives differ from per-pair angle_between values only by
# float reordering (below 1e-15 rad on desk-shaped instances). Objectives
# this close (radians) to the budget or to a rival are recomputed per pair.
TIE_TOL = 1e-9
# A blend whose triangle-inequality norm bound, squared, exceeds this many
# times its squared norm cancels too far for the dot-product expansion.
CANCEL_RATIO = 1e3


@dataclass(frozen=True)
class AttackStrategy:
    """Which attacker runs and with what knobs."""

    kind: str = "none"  # none|passive|gradient_ascent|agrevader|fedpoisonmia|adaptive
    mask_fraction: float = 0.1  # share of the mask pool actually used
    alpha_min: float = 0.01  # alpha_grid: alpha_points geometric steps to alpha_max
    alpha_max: float = 100.0
    alpha_points: int = 25
    knowledge: str = "full"  # full|partial
    ga_scale: float = 1.0

    @property
    def alpha_grid(self) -> tuple[float, ...]:
        return tuple(map(float, np.geomspace(self.alpha_min, self.alpha_max, self.alpha_points)))


KINDS = ("none", "passive", "gradient_ascent", "agrevader", "fedpoisonmia", "adaptive")


@dataclass(frozen=True)
class AttackerContext:
    """Everything the poisoning attacker holds: targets, mask pool, knobs."""

    attack_features: np.ndarray
    attack_labels: np.ndarray
    mask_features: np.ndarray
    mask_labels: np.ndarray
    mask_fraction: float
    alpha_grid: tuple[float, ...]
    flipped_labels: np.ndarray  # flip_labels of attack_labels, drawn once


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
    When every row is usable the checked stack itself comes back, uncopied;
    callers only read it.
    """
    G = _as_matrix(benign_grads)
    usable = np.linalg.norm(G, axis=1) > NORM_FLOOR
    if not usable.all():
        G = G[usable]
    if G.shape[0] < 2:
        raise TooFewReferences(f"need at least 2 usable references, got {G.shape[0]}")
    return G


@dataclass(frozen=True)
class _Geometry:
    """What every candidate of one craft is scored against."""

    refs: np.ndarray  # the usable references
    unit: np.ndarray  # their unit rows
    budget: float  # largest pairwise angle among them


def _geometry(benign_grads) -> _Geometry:
    refs = usable_references(benign_grads)
    unit = refs / np.linalg.norm(refs, axis=1)[:, None]
    # pairwise_angles' formula, so the budget is the same float; angles are
    # >= 0, so the zeroed lower triangle never wins the max
    theta = np.arccos(np.clip(unit @ unit.T, -1.0, 1.0))
    return _Geometry(refs, unit, float(np.triu(theta, 1).max()))


def benign_angle_budget(benign_grads) -> float:
    """Largest pairwise angle among the usable benign references."""
    return _geometry(benign_grads).budget


def _max_angle_to_refs(g, refs) -> float:
    return max(angle_between(g, r) for r in refs)


def _recompute(objectives, which, exact) -> None:
    """Overwrite the batched objectives flagged in `which` by exact(i)."""
    for i in np.flatnonzero(which):
        objectives[i] = exact(int(i))


def _objectives(dots, norm2, bound, exact) -> np.ndarray:
    """Largest angle to a reference per blend, from the blend's dots with the
    unit references (rows x refs), its squared norm and a bound on its norm
    from the triangle inequality.

    Rows whose expansion is non-finite, cancels or lies near NORM_FLOOR are
    scored by exact(i) instead, which raises DegenerateGradient on a
    non-finite or zero blend.
    """
    with np.errstate(all="ignore"):
        sure = (
            np.isfinite(dots).all(axis=1)
            & np.isfinite(norm2)
            & (norm2 > (2 * NORM_FLOOR) ** 2)
            & (bound * bound <= CANCEL_RATIO * norm2)
        )
        objectives = np.arccos(np.clip(dots.min(axis=1) / np.sqrt(norm2), -1.0, 1.0))
    _recompute(objectives, ~sure, exact)
    return objectives


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
    geo = _geometry(benign_grads)
    g_attack = as_vector(g_attack)
    return _greedy(geo, mask_features, mask_labels, mask_fraction, params, g_attack, alpha_fixed)


def _greedy(
    geo: _Geometry, mask_features, mask_labels, mask_fraction, params, g_attack, alpha_fixed
):
    """greedy_mask_select against a built geometry and a checked g_attack.

    Running sums over the selected rows S give each candidate c's blend
    base + (S + P[c]) / m in dot space: its dots with U are
    bU + (sU + PU[c]) / m, and its squared norm is
    bb + 2 (sb + Pb[c]) / m + (ss + 2 sP[c] + PP[c, c]) / m**2.
    """
    X = np.asarray(mask_features, dtype=np.float64)
    y = np.asarray(mask_labels, dtype=np.int64)
    size = mask_budget(mask_fraction, X.shape[0])
    if size < 1:
        raise EmptyMaskBudget(
            f"mask_fraction {mask_fraction} of {X.shape[0]} samples selects nothing"
        )
    base = float(alpha_fixed) * g_attack
    PV, PP = mlp.per_example_products(params, X, y, np.vstack([geo.unit, base]))
    PU, Pb = PV[:, :-1], PV[:, -1]
    bU, bb = geo.unit @ base, float(base @ base)
    row_norm = np.sqrt(np.diag(PP))
    sU, sb, ss, sP, s_norm = np.zeros(PU.shape[1]), 0.0, 0.0, np.zeros(len(y)), 0.0
    remaining = np.ones(len(y), dtype=bool)

    selected: list[int] = []
    trace: list[GreedyStep] = []
    for m in range(1, size + 1):
        candidates = np.flatnonzero(remaining)

        def exact(ci):
            trial = selected + [int(candidates[ci])]
            g_mask = mlp.gradient(params, X[trial], y[trial])
            return _max_angle_to_refs(scaled_add(alpha_fixed, g_attack, g_mask), geo.refs)

        with np.errstate(all="ignore"):  # a hostile expansion is scored per pair
            dots = bU + (sU + PU[candidates]) / m
            norm2 = (
                bb
                + 2 * (sb + Pb[candidates]) / m
                + (ss + 2 * sP[candidates] + PP[candidates, candidates]) / (m * m)
            )
            bound = math.sqrt(bb) + (s_norm + row_norm[candidates]) / m
        objectives = _objectives(dots, norm2, bound, exact)
        pick = _best_feasible(objectives, geo.budget, exact)
        step_ok = pick is not None
        if not step_ok:
            low = objectives <= objectives.min() + TIE_TOL
            if np.count_nonzero(low) > 1:
                _recompute(objectives, low, exact)
            pick = int(np.argmin(objectives))
        chosen = int(candidates[pick])
        selected.append(chosen)
        remaining[chosen] = False
        sU += PU[chosen]
        sb += Pb[chosen]
        ss += 2 * sP[chosen] + PP[chosen, chosen]
        sP += PP[chosen]
        s_norm += row_norm[chosen]
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

    Returns the feasible grid point with the largest max-angle objective,
    or (0, False) when no point satisfies the benign-spread constraint.
    Near-tied objectives are compared by their per-pair angle_between
    values. The lowest scale wins only among objectives equal as floats, so
    scales that tie mathematically are decided by how each angle rounds.
    """
    geo = _geometry(benign_grads)
    return _alpha(geo, as_vector(g_attack), as_vector(g_mask), alpha_grid)


def _alpha(geo: _Geometry, g_attack, g_mask, alpha_grid) -> tuple[float, bool]:
    """optimize_alpha against a built geometry and checked gradients.

    The blend a * g_attack + g_mask has dots a * (U g_attack) + U g_mask
    and squared norm a**2 (g_attack . g_attack) + 2a (g_attack . g_mask)
    + g_mask . g_mask.
    """
    alphas = np.asarray(alpha_grid, dtype=np.float64)
    aa, am, mm = float(g_attack @ g_attack), float(g_attack @ g_mask), float(g_mask @ g_mask)

    def exact(i):
        return _max_angle_to_refs(scaled_add(alphas[i], g_attack, g_mask), geo.refs)

    with np.errstate(all="ignore"):  # a hostile expansion is scored per pair
        dots = alphas[:, None] * (geo.unit @ g_attack) + geo.unit @ g_mask
        norm2 = alphas * alphas * aa + 2 * alphas * am + mm
        bound = np.abs(alphas) * math.sqrt(aa) + math.sqrt(mm)
    objectives = _objectives(dots, norm2, bound, exact)
    pick = _best_feasible(objectives, geo.budget, exact)
    if pick is None:
        return 0.0, False
    return float(alphas[pick]), True


def craft_fedpoisonmia(
    ctx: AttackerContext, params: mlp.ModelParams, benign_grads
) -> CraftResult:
    """Full pipeline: flip labels, build the attack gradient, greedily pick
    mask samples (scale fixed at 1), then tune the scale on the grid, all
    against one reference geometry.
    """
    geo = _geometry(benign_grads)
    g_attack = attack_gradient(params, ctx.attack_features, ctx.flipped_labels)
    selected, _trace = _greedy(
        geo, ctx.mask_features, ctx.mask_labels, ctx.mask_fraction, params, g_attack, 1.0
    )
    idx = list(selected)
    g_mask = mlp.gradient(params, ctx.mask_features[idx], ctx.mask_labels[idx])
    alpha, feasible = _alpha(geo, g_attack, g_mask, ctx.alpha_grid)
    g_mal = scaled_add(alpha, g_attack, g_mask)
    objective = _max_angle_to_refs(g_mal, geo.refs)
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
    dist_budget = float(np.sqrt(pairwise_sq_distances(refs).max()))
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
