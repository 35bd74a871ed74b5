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
ReferenceGeometry with reference_geometry: the usable references, their
unit rows U and the benign budget, their largest pairwise angle. Each
step of the pipeline is one public function taking it
(greedy_mask_select, optimize_alpha), and craft_adaptive builds its
angle block from its unit rows with pairwise_angles' kernel. Every blend
is the one expression alpha * g_attack + g_mask; the greedy steps fix
alpha at 1. The gradient of a mean loss is the mean of the per-example
gradients P, so a greedy candidate's blend at step m is g_attack + (sum
of selected rows + candidate row) / m. Its angles are those of m times
it, m * g_attack + (selected sum + candidate row), whose dots with U and
squared norm follow from P @ [U; g_attack].T and P @ P.T, which one
backprop per craft yields without forming P (mlp.per_example_products),
plus running sums over the selected rows; no step divides by m or
gathers the remaining rows. An alpha-grid blend's dots and squared norm
follow likewise from U @ g_attack, U @ g_mask and the three dot products
of the two gradients. No array of the model's width is formed per
candidate.

One kernel, _choose, decides each greedy step and the alpha grid: it
screens every candidate's objective from that expansion, rescores per
pair the candidates it cannot trust or that sit near a decision, and
picks. A candidate is rescored when its expansion is non-finite, cancels
(its triangle-inequality bound squared exceeds CANCEL_RATIO times its
squared norm) or lies near NORM_FLOOR, which also raises
DegenerateGradient on a degenerate blend, and when its objective lies
within TIE_TOL of the budget or of the pick's. A rescore builds the blend
(a greedy one with mlp.gradient) and scores it with _objective, the one
exact objective, so every decision (mask indices, step feasibility,
chosen alpha) is the one the per-pair computation makes. _objective also
scores the crafted update: it screens in cosine space and calls
angle_between only for the references within TIE_TOL of the lowest
cosine, which hold the largest per-pair angle.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import mlp
from .errors import (
    DegenerateGradient,
    EmptyMaskBudget,
    SingleClassDataset,
    TooFewReferences,
)
from .rngstream import substream
from .vectors import (
    NORM_FLOOR,
    _angle_block,
    _as_matrix,
    angle_between,
    angles_to,
    pairwise_sq_distances,
    sq_distances_to,
    unit_rows,
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


@dataclass(frozen=True)
class ReferenceGeometry:
    """What every candidate of one craft is scored against."""

    refs: np.ndarray  # the usable references
    unit: np.ndarray  # their unit rows (vectors.unit_rows)
    budget: float  # their largest pairwise angle


def reference_geometry(benign_grads) -> ReferenceGeometry:
    """Stack the references and drop those too short to carry a direction;
    the budget is their largest pairwise angle, the largest
    arccos(clip(unit @ unit.T)) above the diagonal. Angles are >= 0, so the
    zeroed lower triangle never wins.

    A benign gradient can underflow to norm ~1e-83 on a well-fit shard;
    the attacker skips it rather than failing on its undefined angle.
    When every row is usable the checked stack itself is kept, uncopied;
    callers only read it. A reference whose norm overflows keeps an
    all-zero unit row.
    """
    refs = _as_matrix(benign_grads)
    unit, norms = unit_rows(refs)
    usable = norms > NORM_FLOOR
    if not usable.all():
        refs, unit = refs[usable], unit[usable]
    if refs.shape[0] < 2:
        raise TooFewReferences(f"need at least 2 usable references, got {refs.shape[0]}")
    theta = np.arccos(np.clip(unit @ unit.T, -1.0, 1.0))
    return ReferenceGeometry(refs, unit, float(np.triu(theta, 1).max()))


def _objective(geo: ReferenceGeometry, g: np.ndarray) -> float:
    """Largest angle from the finite vector g to a usable reference, bitwise
    max(angle_between(g, r) for r in geo.refs).

    The cosines U @ g / |g| err by far less than TIE_TOL, so the reference
    with the largest per-pair angle lies within TIE_TOL of the lowest
    cosine, and only those references are scored per pair. A g whose norm
    overflows or lies near NORM_FLOOR is scored against every reference,
    which raises DegenerateGradient on a degenerate g.
    """
    refs = geo.refs
    norm = math.sqrt(g @ g)
    if 2 * NORM_FLOOR < norm < math.inf:
        cos = geo.unit @ g / norm
        refs = refs[cos <= cos.min() + TIE_TOL]
    return max(angle_between(g, r) for r in refs)


def _choose(dots, norm2, bound, budget, exact, scale=1, taken=None) -> tuple[int, bool, float]:
    """(index, feasible, objective) of the blend to take: the largest
    objective within the budget, or when none is, the smallest; the first
    on ties. Call it under np.errstate(all="ignore").

    A blend's objective, its largest angle to a reference, is read from its
    dots with the unit references (rows x refs), its squared norm and a
    bound on its norm from the triangle inequality, each of the blend times
    `scale`. exact(i), blend i's per-pair value, replaces it in one pass
    wherever the expansion is non-finite, cancels or lies near NORM_FLOOR
    (raising DegenerateGradient on a non-finite or zero blend) or lies
    within TIE_TOL of the budget; then, once the pass is done, where it
    lies within TIE_TOL of the pick's, when more than one does. Rows
    flagged in `taken` score inf and are never scored per pair.
    """
    sure = (
        np.isfinite(dots).all(axis=1)
        & np.isfinite(norm2)
        & (norm2 > (2 * NORM_FLOOR * scale) ** 2)
        & (bound * bound <= CANCEL_RATIO * norm2)
    )
    objectives = np.arccos(np.clip(dots.min(axis=1) / np.sqrt(norm2), -1.0, 1.0))
    if taken is not None:
        objectives[taken] = np.inf
        sure |= taken

    def rescore(which):
        for i in np.flatnonzero(which):
            objectives[i] = exact(int(i))

    rescore(~sure | (np.abs(objectives - budget) <= TIE_TOL))
    feasible = objectives <= budget
    ok = bool(feasible.any())

    def ranked():  # higher is better
        return np.where(feasible, objectives, -np.inf) if ok else -objectives

    rank = ranked()
    near = rank >= rank.max() - TIE_TOL
    if np.count_nonzero(near) > 1:
        rescore(near)
        rank = ranked()
    pick = int(np.argmax(rank))
    return pick, ok, float(objectives[pick])


def greedy_mask_select(
    geo: ReferenceGeometry,
    mask_features,
    mask_labels,
    mask_fraction: float,
    params: mlp.ModelParams,
    g_attack: np.ndarray,
) -> tuple[tuple[int, ...], tuple[GreedyStep, ...]]:
    """Grow the mask subset one sample at a time.

    Each step adds the candidate whose blend g_attack + g_mask (g_mask the
    gradient on the selected samples and the candidate) has the largest
    angle to a benign reference among candidates that keep it within the
    benign budget. If no candidate is feasible the step falls back to the
    one minimising that angle (marked infeasible in the trace) so the
    budget cardinality is always reached.

    At step m, running sums over the selected rows S give each pool row c's
    blend g_attack + (S + P[c]) / m times m, m g_attack + S + P[c], in dot
    space (b for g_attack): its dots with U are m bU + sU + PU[c], and its
    squared norm is m**2 bb + 2m (sb + Pb[c]) + ss + 2 sP[c] + PP[c, c].
    Every pool row is scored each step; the taken ones are masked.
    """
    X = np.asarray(mask_features, dtype=np.float64)
    y = np.asarray(mask_labels, dtype=np.int64)
    size = mask_budget(mask_fraction, X.shape[0])
    if size < 1:
        raise EmptyMaskBudget(
            f"mask_fraction {mask_fraction} of {X.shape[0]} samples selects nothing"
        )
    PV, PP = mlp.per_example_products(params, X, y, np.vstack([geo.unit, g_attack]))
    PU, Pb, pp = PV[:, :-1], PV[:, -1], PP.diagonal()
    bU, bb = geo.unit @ g_attack, float(g_attack @ g_attack)
    b_norm, row_norm = math.sqrt(bb), np.sqrt(pp)
    sU, sb, ss, sP, s_norm = np.zeros(PU.shape[1]), 0.0, 0.0, np.zeros(len(y)), 0.0
    taken = np.zeros(len(y), dtype=bool)

    selected: list[int] = []
    trace: list[GreedyStep] = []

    def exact(c):
        trial = selected + [c]
        g_mask = mlp.gradient(params, X[trial], y[trial])
        return _objective(geo, g_attack + g_mask)

    with np.errstate(all="ignore"):  # a hostile expansion is scored per pair
        for m in range(1, size + 1):
            dots = (m * bU + sU) + PU
            norm2 = (m * m * bb + 2 * m * sb + ss) + (2 * (m * Pb + sP) + pp)
            bound = (m * b_norm + s_norm) + row_norm
            pick, step_ok, objective = _choose(dots, norm2, bound, geo.budget, exact, m, taken)
            selected.append(pick)
            taken[pick] = True
            sU += PU[pick]
            sb += Pb[pick]
            ss += 2 * sP[pick] + pp[pick]
            sP += PP[pick]
            s_norm += row_norm[pick]
            trace.append(GreedyStep(chosen_index=pick, objective=objective, feasible=step_ok))
    return tuple(selected), tuple(trace)


def optimize_alpha(
    geo: ReferenceGeometry, g_attack: np.ndarray, g_mask: np.ndarray, alpha_grid
) -> tuple[float, bool]:
    """Grid-search the attack-gradient scale.

    Returns the feasible grid point with the largest max-angle objective,
    or (0, False) when no point satisfies the benign-spread constraint.
    Near-tied objectives are compared by their per-pair angle_between
    values. The lowest scale wins only among objectives equal as floats, so
    scales that tie mathematically are decided by how each angle rounds.

    The blend a * g_attack + g_mask has dots a * (U g_attack) + U g_mask
    and squared norm a**2 (g_attack . g_attack) + 2a (g_attack . g_mask)
    + g_mask . g_mask.
    """
    alphas = np.asarray(alpha_grid, dtype=np.float64)
    aa, am, mm = float(g_attack @ g_attack), float(g_attack @ g_mask), float(g_mask @ g_mask)

    def exact(i):
        return _objective(geo, alphas[i] * g_attack + g_mask)

    with np.errstate(all="ignore"):  # a hostile expansion is scored per pair
        dots = alphas[:, None] * (geo.unit @ g_attack) + geo.unit @ g_mask
        norm2 = alphas * alphas * aa + 2 * alphas * am + mm
        bound = np.abs(alphas) * math.sqrt(aa) + math.sqrt(mm)
        pick, feasible, _ = _choose(dots, norm2, bound, geo.budget, exact)
    return (float(alphas[pick]), True) if feasible else (0.0, False)


def craft_fedpoisonmia(
    ctx: AttackerContext, params: mlp.ModelParams, benign_grads
) -> CraftResult:
    """Full pipeline: flip labels, build the attack gradient, greedily pick
    mask samples (scale fixed at 1), then tune the scale on the grid, all
    against one reference geometry.
    """
    geo = reference_geometry(benign_grads)
    g_attack = mlp.gradient(params, ctx.attack_features, ctx.flipped_labels)
    selected, _trace = greedy_mask_select(
        geo, ctx.mask_features, ctx.mask_labels, ctx.mask_fraction, params, g_attack
    )
    idx = list(selected)
    g_mask = mlp.gradient(params, ctx.mask_features[idx], ctx.mask_labels[idx])
    alpha, feasible = optimize_alpha(geo, g_attack, g_mask, ctx.alpha_grid)
    g_mal = alpha * g_attack + g_mask
    return CraftResult(
        g_malicious=g_mal,
        chosen_alpha=alpha,
        selected_mask_indices=selected,
        feasible=feasible,
        objective_value=_objective(geo, g_mal),
    )


def craft_gradient_ascent(
    params: mlp.ModelParams, features, labels, scale: float
) -> np.ndarray:
    """Ascent step on the target samples: the negated descent gradient."""
    return -float(scale) * mlp.gradient(params, features, labels)


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
    cluster's Euclidean diameter (or give up and send the mask alone), in
    squared distances from Krum's kernels.
    """
    refs = _as_matrix(benign_grads)
    g_attack = mlp.gradient(params, flipped_features, flipped_labels)
    g_mask = mlp.gradient(params, mask_features, mask_labels)
    sq_budget = pairwise_sq_distances(refs).max()
    scale = 1.0
    for _ in range(AGREVADER_MAX_HALVINGS + 1):
        g = scale * g_attack + g_mask
        if sq_distances_to(refs, g).min() <= sq_budget:
            return g
        scale /= 2.0
    return g_mask


def craft_adaptive(benign_grads, g_attack, trim_b: int) -> np.ndarray:
    """Pull the attack gradient toward the benign cluster until its mean
    angle drops below the angular-trim threshold (or the iteration cap).

    Each failed check averages the attack gradient with the benign
    gradient farthest from it in angle. The references' angle block is
    built once, by `pairwise_angles`' kernel on the geometry's unit rows;
    each check rewrites only the attack gradient's row and column
    (`angles_to`), so the block is bitwise
    `pairwise_angles(np.vstack([refs, g]))`. An attack gradient with norm
    <= NORM_FLOOR raises DegenerateGradient.
    """
    geo = reference_geometry(benign_grads)
    refs = geo.refs
    g = np.asarray(g_attack, dtype=np.float64)
    if trim_b <= 0:
        return g  # nothing is ever trimmed
    n = refs.shape[0] + 1
    if 2 * trim_b >= n:
        raise TooFewReferences(f"2*{trim_b} >= {n} total gradients")
    bad = np.zeros(n - 1, dtype=bool)  # every reference is usable
    A = np.pad(_angle_block(geo.unit, bad), (0, 1))  # the attack gradient's row last
    for _ in range(ADAPTIVE_MAX_ITERS):
        u, norm = unit_rows(_as_matrix(g[None]))
        if norm[0] <= NORM_FLOOR:
            raise DegenerateGradient(f"attack gradient has norm {norm[0]:.3e}")
        A[-1, :-1] = A[:-1, -1] = angles_to(geo.unit, bad, u[0], False)
        means = A.sum(axis=1) / (n - 1)
        threshold = np.sort(means)[::-1][2 * trim_b - 1]
        if means[-1] < threshold:
            break
        farthest = int(np.argmax(A[-1, :-1]))
        g = 0.5 * (g + refs[farthest])
    return g


def passive_infer(params: mlp.ModelParams, features, labels) -> np.ndarray:
    """Member flag per sample: correctly predicted means member."""
    X, y = mlp._check_batch(params, features, labels)
    return mlp.predict_batch(params, X) == y
