import itertools
import math

import numpy as np
import pytest

from conftest import gradient_like_refs, perturbed, tiny_net
from fedarena import attacks, mlp
from fedarena.aggregation import atm
from fedarena.attacks import (
    AttackerContext,
    AttackStrategy,
    craft_adaptive,
    craft_agrevader,
    craft_fedpoisonmia,
    craft_gradient_ascent,
    attack_gradient,
    benign_angle_budget,
    flip_labels,
    greedy_mask_select,
    mask_budget,
    optimize_alpha,
    passive_infer,
    usable_references,
)
from fedarena.errors import (
    DegenerateGradient,
    EmptyMaskBudget,
    FedArenaError,
    SingleClassDataset,
    TooFewReferences,
)
from fedarena.selftest import naive_greedy_mask_select, naive_optimize_alpha
from fedarena.vectors import angle_between, pairwise_angles, scaled_add


def blend_objective(params, mask_X, mask_y, subset, g_attack, alpha, refs):
    g_mask = mlp.gradient(params, mask_X[list(subset)], mask_y[list(subset)])
    g = scaled_add(alpha, g_attack, g_mask)
    return max(angle_between(g, r) for r in refs)


class TestFlipLabels:
    def test_binary_flips_everything(self):
        y = np.array([0, 1, 0, 1, 1])
        flipped = flip_labels(y, 2, seed=0)
        assert np.array_equal(flipped, 1 - y)

    def test_never_keeps_original(self, rng):
        y = rng.integers(0, 5, size=200)
        flipped = flip_labels(y, 5, seed=3)
        assert np.all(flipped != y)
        assert np.all((flipped >= 0) & (flipped < 5))

    def test_deterministic(self, rng):
        y = rng.integers(0, 4, size=50)
        assert np.array_equal(flip_labels(y, 4, seed=9), flip_labels(y, 4, seed=9))

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassDataset):
            flip_labels([0, 0], 1, seed=0)


class TestAttackGradient:
    def test_is_model_gradient(self, rng):
        params = perturbed(tiny_net(), 0.3, rng)
        X = rng.normal(size=(6, 6))
        y = rng.integers(0, 3, size=6)
        flipped = flip_labels(y, 3, seed=1)
        assert np.array_equal(
            attack_gradient(params, X, flipped), mlp.gradient(params, X, flipped)
        )

    def test_differs_from_true_label_gradient(self, rng):
        params = perturbed(tiny_net(seed=5), 0.3, rng)
        X = rng.normal(size=(8, 6))
        y = rng.integers(0, 3, size=8)
        g_true = mlp.gradient(params, X, y)
        g_att = attack_gradient(params, X, flip_labels(y, 3, seed=2))
        assert angle_between(g_true, g_att) > 0.1


class TestBenignAngleBudget:
    def test_identical_is_zero(self):
        g = np.array([1.0, 2.0])
        assert benign_angle_budget([g, g]) == pytest.approx(0.0, abs=1e-7)

    def test_known_geometry(self):
        e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        mid = (e1 + e2) / math.sqrt(2)
        assert benign_angle_budget([e1, e2, mid]) == pytest.approx(math.pi / 2)

    def test_matches_brute_force(self, rng):
        G = rng.normal(size=(6, 5))
        expected = max(
            angle_between(G[i], G[j]) for i, j in itertools.combinations(range(6), 2)
        )
        assert benign_angle_budget(G) == pytest.approx(expected, abs=1e-12)

    def test_too_few_references(self):
        with pytest.raises(TooFewReferences):
            benign_angle_budget([np.array([1.0, 0.0])])


class TestUsableReferences:
    def test_drops_degenerate_rows(self, rng):
        G = rng.normal(size=(3, 5))
        tiny = 3e-83 * rng.normal(size=5)
        out = usable_references([G[0], np.zeros(5), G[1], tiny, G[2]])
        assert np.array_equal(out, G)

    def test_budget_ignores_degenerate(self, rng):
        G = rng.normal(size=(4, 5))
        with_zero = np.vstack([G, np.zeros(5)])
        assert benign_angle_budget(with_zero) == benign_angle_budget(G)

    def test_too_few_usable(self, rng):
        with pytest.raises(TooFewReferences):
            usable_references([rng.normal(size=4), np.zeros(4)])

    def test_non_finite_still_rejected(self, rng):
        bad = rng.normal(size=4)
        bad[1] = np.nan
        with pytest.raises(DegenerateGradient):
            usable_references([rng.normal(size=4), rng.normal(size=4), bad])


class TestMaskBudget:
    def test_floor_semantics(self):
        assert mask_budget(0.1, 30) == 3
        assert mask_budget(0.3, 10) == 3
        assert mask_budget(0.25, 7) == 1
        assert mask_budget(0.05, 10) == 0


class TestGreedyMaskSelect:
    def _instance(self, rng, n_mask=6, n_refs=4):
        params = perturbed(tiny_net(seed=11), 0.4, rng)
        mask_X = rng.normal(size=(n_mask, 6))
        mask_y = rng.integers(0, 3, size=n_mask)
        att_X = rng.normal(size=(8, 6))
        att_y = rng.integers(0, 3, size=8)
        g_attack = attack_gradient(params, att_X, flip_labels(att_y, 3, seed=0))
        refs = gradient_like_refs(rng, params, n_refs)
        return params, mask_X, mask_y, g_attack, refs

    def test_budget_one_equals_exhaustive_argmax(self, rng):
        for trial in range(10):
            params, mask_X, mask_y, g_attack, refs = self._instance(rng)
            budget_angle = benign_angle_budget(refs)
            selected, trace = greedy_mask_select(
                mask_X, mask_y, 1.0 / 6.0 + 1e-12, params, g_attack, 1.0, refs
            )
            assert len(selected) == 1
            objs = [
                blend_objective(params, mask_X, mask_y, [k], g_attack, 1.0, refs)
                for k in range(6)
            ]
            feas = [k for k in range(6) if objs[k] <= budget_angle]
            if feas:
                expected = max(feas, key=lambda k: (objs[k], -k))
                assert trace[0].feasible
            else:
                expected = min(range(6), key=lambda k: (objs[k], k))
                assert not trace[0].feasible
            assert selected[0] == expected

    def test_cardinality_always_met(self, rng):
        params, mask_X, mask_y, g_attack, refs = self._instance(rng, n_mask=8)
        selected, trace = greedy_mask_select(
            mask_X, mask_y, 0.5, params, g_attack, 1.0, refs
        )
        assert len(selected) == 4
        assert len(set(selected)) == 4
        assert len(trace) == 4

    def test_identical_mask_samples_constant_trace(self, rng):
        params, _, _, g_attack, refs = self._instance(rng)
        row = rng.normal(size=6)
        mask_X = np.tile(row, (5, 1))
        mask_y = np.full(5, 1)
        selected, trace = greedy_mask_select(
            mask_X, mask_y, 0.5, params, g_attack, 1.0, refs
        )
        assert len(selected) == 2
        assert len({step.feasible for step in trace}) == 1

    def test_empty_budget_rejected(self, rng):
        params, mask_X, mask_y, g_attack, refs = self._instance(rng)
        with pytest.raises(EmptyMaskBudget):
            greedy_mask_select(mask_X, mask_y, 0.01, params, g_attack, 1.0, refs)

    def test_greedy_beats_random_subsets_on_average(self, rng):
        # constrained objective: feasible max-angle, else a sentinel below all
        def score(subset, params, mask_X, mask_y, g_attack, refs, budget_angle):
            obj = blend_objective(params, mask_X, mask_y, subset, g_attack, 1.0, refs)
            return obj if obj <= budget_angle else -1.0

        greedy_scores, random_scores = [], []
        for trial in range(25):
            params, mask_X, mask_y, g_attack, refs = self._instance(rng)
            budget_angle = benign_angle_budget(refs)
            selected, _ = greedy_mask_select(
                mask_X, mask_y, 0.5, params, g_attack, 1.0, refs
            )
            greedy_scores.append(
                score(selected, params, mask_X, mask_y, g_attack, refs, budget_angle)
            )
            subs = [rng.choice(6, size=3, replace=False) for _ in range(20)]
            random_scores.append(
                np.mean(
                    [
                        score(s, params, mask_X, mask_y, g_attack, refs, budget_angle)
                        for s in subs
                    ]
                )
            )
        assert np.mean(greedy_scores) >= np.mean(random_scores)


class TestOptimizeAlpha:
    def test_collinear_returns_lowest_alpha(self, rng):
        g = rng.normal(size=10)
        refs = np.stack([g + 0.1 * rng.normal(size=10) for _ in range(3)])
        grid = (0.5, 1.0, 2.0)
        alpha, feasible = optimize_alpha(g, g, refs, grid)
        assert feasible
        assert alpha == 0.5  # objective constant in alpha, tie -> lowest

    def test_vacuous_budget_takes_max_objective(self, rng):
        u = rng.normal(size=8)
        refs = np.stack([u, -u])  # budget = pi, nothing is infeasible
        g_attack = rng.normal(size=8)
        g_mask = rng.normal(size=8)
        grid = (0.01, 0.1, 1.0, 10.0)
        alpha, feasible = optimize_alpha(g_attack, g_mask, refs, grid)
        assert feasible
        objs = {
            a: max(angle_between(scaled_add(a, g_attack, g_mask), r) for r in refs)
            for a in grid
        }
        assert objs[alpha] == max(objs.values())

    def test_degenerate_blend_raises(self, rng):
        g = rng.normal(size=6)
        refs = rng.normal(size=(3, 6))
        with pytest.raises(DegenerateGradient):
            optimize_alpha(g, -g, refs, (0.5, 1.0))  # alpha 1 blends to zero
        g_bad = g.copy()
        g_bad[0] = np.inf
        with pytest.raises(DegenerateGradient):
            optimize_alpha(g_bad, g, refs, (0.5, 1.0))

    def test_infeasible_returns_zero(self, rng):
        refs = np.stack([np.array([1.0, 0.0]), np.array([0.999, 0.01])])
        g_attack = np.array([-1.0, 0.0])
        g_mask = np.array([-1.0, 0.05])
        alpha, feasible = optimize_alpha(g_attack, g_mask, refs, (0.5, 1.0, 2.0))
        assert not feasible
        assert alpha == 0.0

    def test_matches_fine_grid_oracle(self, rng):
        params = perturbed(tiny_net(seed=13), 0.4, rng)
        refs = gradient_like_refs(rng, params, 4)
        budget = benign_angle_budget(refs)
        g_attack = rng.normal(size=params.dim)
        g_mask = refs.mean(axis=0) + 0.05 * rng.normal(size=params.dim)
        grid = tuple(np.geomspace(0.01, 100, 25))
        alpha, feasible = optimize_alpha(g_attack, g_mask, refs, grid)
        fine = np.geomspace(0.01, 100, 250)
        fine_objs = np.array(
            [max(angle_between(scaled_add(a, g_attack, g_mask), r) for r in refs) for a in fine]
        )
        feas_fine = fine_objs[fine_objs <= budget]
        if feasible:
            assert feas_fine.size > 0
            best_fine = float(feas_fine.max())
            coarse_obj = max(
                angle_between(scaled_add(alpha, g_attack, g_mask), r) for r in refs
            )
            # the fine grid may only beat the coarse one by however much the
            # objective can move within a single coarse grid step
            worst_window = 0.0
            for lo, hi in zip(grid, grid[1:]):
                inside = fine_objs[(fine >= lo) & (fine <= hi)]
                if inside.size:
                    worst_window = max(worst_window, float(inside.max() - inside.min()))
            assert coarse_obj >= best_fine - worst_window - 1e-9


class TestBatchedDecisionEquivalence:
    """The batched crafter against the per-pair loop it replaced
    (fedarena.selftest.naive_*), on desk-shaped instances: 64 features,
    32 hidden units, 3 classes, a 16-sample mask pool, gamma 0.3 and 7
    benign references."""

    GRID = tuple(np.geomspace(0.01, 100.0, 25))

    def _instance(self, rng, seed, centers):
        def blobs(n):
            y = rng.integers(0, 3, size=n)
            return centers[y] + 0.6 * rng.normal(size=(n, 64)), y

        params = perturbed(mlp.init_params(((64, 32), (32, 3)), seed=seed), 0.1, rng)
        refs = np.stack([mlp.gradient(params, *blobs(6)) for _ in range(7)])
        att_X, att_y = blobs(20)
        g_attack = attack_gradient(params, att_X, flip_labels(att_y, 3, seed))
        mask_X, mask_y = blobs(16)
        return params, mask_X, mask_y, g_attack, refs

    def test_decisions_match_per_pair_oracle(self, rng):
        centers = rng.normal(size=(3, 64))
        step_feasibility = set()
        alpha_feasibility = set()
        for seed in range(120):
            params, mask_X, mask_y, g_attack, refs = self._instance(rng, seed, centers)
            selected, trace = greedy_mask_select(
                mask_X, mask_y, 0.3, params, g_attack, 1.0, refs
            )
            feasible = tuple(step.feasible for step in trace)
            assert (selected, feasible) == naive_greedy_mask_select(
                mask_X, mask_y, 0.3, params, g_attack, 1.0, refs
            )
            step_feasibility.update(feasible)
            g_mask = mlp.gradient(params, mask_X[list(selected)], mask_y[list(selected)])
            got = optimize_alpha(g_attack, g_mask, refs, self.GRID)
            assert got == naive_optimize_alpha(g_attack, g_mask, refs, self.GRID)
            alpha_feasibility.add(got[1])
        # both branches of each rule were exercised
        assert step_feasibility == {True, False}
        assert alpha_feasibility == {True, False}


class TestNearTies:
    """Objectives equal up to rounding: the batched and per-pair float sums
    can order them differently, so these decisions are recomputed per pair
    and must match the per-pair oracle exactly."""

    GRID = (0.5, 1.0, 2.0)

    def test_collinear_alpha_grid(self):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            g = rng.normal(size=10)
            refs = np.stack([g + 0.1 * rng.normal(size=10) for _ in range(3)])
            assert optimize_alpha(g, g, refs, self.GRID) == naive_optimize_alpha(
                g, g, refs, self.GRID
            )

    def test_blend_on_the_budget(self):
        # a blend parallel to one end of the widest benign pair sits at the
        # budget angle, so its feasibility is decided by rounding
        for seed in range(200):
            rng = np.random.default_rng(seed)
            refs = rng.normal(size=(4, 10))
            i = int(np.argmax(pairwise_angles(refs).max(axis=1)))
            g = refs[i]
            assert optimize_alpha(g, g, refs, self.GRID) == naive_optimize_alpha(
                g, g, refs, self.GRID
            )

    def test_attack_dominated_greedy_steps(self):
        # with a huge fixed scale every candidate's blend points along the
        # attack gradient and the candidates tie to within rounding
        steps = set()
        for seed in range(100):
            rng = np.random.default_rng(seed)
            params = perturbed(tiny_net(seed=seed), 0.4, rng)
            refs = gradient_like_refs(rng, params, 4)
            mask_X = rng.normal(size=(6, 6))
            mask_y = rng.integers(0, 3, size=6)
            g_attack = (-1) ** seed * refs.mean(axis=0)
            selected, trace = greedy_mask_select(
                mask_X, mask_y, 0.5, params, g_attack, 1e14, refs
            )
            feasible = tuple(step.feasible for step in trace)
            assert (selected, feasible) == naive_greedy_mask_select(
                mask_X, mask_y, 0.5, params, g_attack, 1e14, refs
            )
            steps.update(feasible)
        assert steps == {True, False}


def outcome(fn, *args):
    """fn(*args), or the type of the fedarena error it raises."""
    try:
        return fn(*args)
    except FedArenaError as exc:
        return type(exc)


class TestHostileDotSpace:
    """Blends that cancel: their dot-product expansion loses every digit, so
    the crafter scores them per pair. Each decision, or the error type
    raised, must be the per-pair oracle's."""

    GRID = (0.25, 0.5, 1.0, 2.0)

    def test_mask_gradient_opposing_attack(self, rng):
        seen = set()
        for scale in (1.0, 1e-5, 1e5):
            for delta in (0.0, 1e-15, 1e-12, 1e-8, 1e-3):
                g_attack = scale * rng.normal(size=40)
                g_mask = -(1 + delta) * g_attack
                refs = rng.normal(size=(4, 40))
                got = outcome(optimize_alpha, g_attack, g_mask, refs, self.GRID)
                assert got == outcome(naive_optimize_alpha, g_attack, g_mask, refs, self.GRID)
                seen.add(got if isinstance(got, type) else tuple)
        assert seen == {DegenerateGradient, tuple}

    def test_short_blend_without_cancellation(self, rng):
        # blends near NORM_FLOOR whose terms do not cancel
        seen = set()
        for scale in (1e-14, 3e-13, 1e-12, 3e-12):
            g_attack = scale * rng.normal(size=40)
            g_mask = scale * rng.normal(size=40)
            refs = rng.normal(size=(4, 40))
            got = outcome(optimize_alpha, g_attack, g_mask, refs, self.GRID)
            assert got == outcome(naive_optimize_alpha, g_attack, g_mask, refs, self.GRID)
            seen.add(got if isinstance(got, type) else tuple)
        assert seen == {DegenerateGradient, tuple}

    def test_diverged_model(self, rng):
        params = perturbed(tiny_net(seed=3), 0.4, rng)
        refs = gradient_like_refs(rng, params, 4)
        g_attack = rng.normal(size=params.dim)
        flat = params.flat.copy()
        flat[0] = np.nan  # every per-example product is NaN
        diverged = mlp.ModelParams(flat, params.layer_shapes)
        args = (rng.normal(size=(6, 6)), rng.integers(0, 3, size=6), 0.5, diverged, g_attack, 1.0, refs)
        assert outcome(greedy_mask_select, *args) is DegenerateGradient
        assert outcome(naive_greedy_mask_select, *args) is DegenerateGradient

    def test_near_floor_check_reads_the_unscaled_blend(self):
        # a greedy step m scores m times each blend; a blend of norm
        # 0.9 * NORM_FLOOR scored at m = 3 (scaled norm 2.7e-12, past the
        # 2 * NORM_FLOOR margin) must still go per pair, where it raises
        scaled = 2.7e-12
        dots = np.array([[0.6, -0.8]]) * scaled
        norm2, bound = np.array([scaled**2]), np.array([scaled])
        scored = []

        def exact(i):
            scored.append(i)
            return 0.0

        for scale, per_pair in ((1, []), (3, [0])):
            del scored[:]
            attacks._objectives(dots, norm2, bound, exact, scale)
            assert scored == per_pair

    @pytest.mark.parametrize("relative", [0.0, 1e-12])
    def test_mask_row_cancelling_attack(self, rng, relative):
        seen = set()
        for seed in range(20):
            params = perturbed(tiny_net(seed=seed), 0.4, rng)
            mask_X = rng.normal(size=(6, 6))
            mask_y = rng.integers(0, 3, size=6)
            j = seed % 6
            # candidate j alone blends to zero, or to 1e-12 of its norm
            g_attack = -(1 + relative) * mlp.gradient(params, mask_X[[j]], mask_y[[j]])
            refs = gradient_like_refs(rng, params, 4)
            args = (mask_X, mask_y, 0.5, params, g_attack, 1.0, refs)
            got = outcome(greedy_mask_select, *args)
            if not isinstance(got, type):
                got = (got[0], tuple(step.feasible for step in got[1]))
            assert got == outcome(naive_greedy_mask_select, *args)
            seen.add(got if isinstance(got, type) else tuple)
        assert DegenerateGradient in seen


class TestCraftFedPoisonMia:
    def _ctx(self, rng, params):
        att_X = rng.normal(size=(8, 6))
        att_y = rng.integers(0, 3, size=8)
        mask_X = rng.normal(size=(6, 6))
        mask_y = rng.integers(0, 3, size=6)
        return AttackerContext(
            attack_features=att_X,
            attack_labels=att_y,
            mask_features=mask_X,
            mask_labels=mask_y,
            mask_fraction=0.5,
            alpha_grid=tuple(np.geomspace(0.01, 100, 25)),
            flipped_labels=flip_labels(att_y, 3, seed=17),
        )

    def test_feasible_certificate(self, rng):
        hits = 0
        for trial in range(20):
            params = perturbed(tiny_net(seed=trial), 0.4, rng)
            ctx = self._ctx(rng, params)
            refs = gradient_like_refs(rng, params, 4)
            result = craft_fedpoisonmia(ctx, params, refs)
            if result.feasible:
                hits += 1
                recheck = max(angle_between(result.g_malicious, r) for r in refs)
                assert recheck <= benign_angle_budget(refs) + 1e-9
        assert hits > 0  # the certificate must actually get exercised

    def test_alpha_consistent_with_selected_mask(self, rng):
        params = perturbed(tiny_net(seed=21), 0.4, rng)
        ctx = self._ctx(rng, params)
        refs = gradient_like_refs(rng, params, 4)
        result = craft_fedpoisonmia(ctx, params, refs)
        g_attack = attack_gradient(params, ctx.attack_features, ctx.flipped_labels)
        idx = list(result.selected_mask_indices)
        g_mask = mlp.gradient(params, ctx.mask_features[idx], ctx.mask_labels[idx])
        alpha, feasible = optimize_alpha(g_attack, g_mask, refs, ctx.alpha_grid)
        assert result.chosen_alpha == alpha
        assert result.feasible == feasible
        assert np.array_equal(
            result.g_malicious, scaled_add(alpha, g_attack, g_mask)
        )

    def test_degenerate_references_skipped(self, rng):
        for trial in range(5):
            params = perturbed(tiny_net(seed=trial), 0.4, rng)
            ctx = self._ctx(rng, params)
            refs = gradient_like_refs(rng, params, 4)
            base = craft_fedpoisonmia(ctx, params, refs)
            for junk in (np.zeros(params.dim), np.full(params.dim, 1e-84)):
                got = craft_fedpoisonmia(ctx, params, np.vstack([refs, junk]))
                assert got.selected_mask_indices == base.selected_mask_indices
                assert got.chosen_alpha == base.chosen_alpha
                assert got.feasible == base.feasible
                assert np.array_equal(got.g_malicious, base.g_malicious)

    def test_deterministic(self, rng):
        params = perturbed(tiny_net(seed=23), 0.4, rng)
        ctx = self._ctx(rng, params)
        refs = gradient_like_refs(rng, params, 4)
        a = craft_fedpoisonmia(ctx, params, refs)
        b = craft_fedpoisonmia(ctx, params, refs)
        assert np.array_equal(a.g_malicious, b.g_malicious)
        assert a.selected_mask_indices == b.selected_mask_indices
        assert a.chosen_alpha == b.chosen_alpha


def per_pair_objective(g, refs):
    """The crafted update's objective as the per-pair loop scores it."""
    return max(angle_between(g, r) for r in usable_references(refs))


def counting_angles(monkeypatch):
    """Count the crafter's per-pair angle_between calls."""
    calls = []

    def counted(u, v):
        calls.append(1)
        return angle_between(u, v)

    monkeypatch.setattr(attacks, "angle_between", counted)
    return calls


class TestPrescreenedObjective:
    """The crafted update's objective is screened in cosine space and scored
    per pair only near the lowest cosine; it must stay bitwise the per-pair
    maximum over the usable references."""

    def test_craft_objective_is_per_pair_max(self, rng):
        feasible = set()
        for trial in range(200):
            params = perturbed(tiny_net(seed=trial), 0.4, rng)
            ctx = TestCraftFedPoisonMia()._ctx(rng, params)
            refs = gradient_like_refs(rng, params, 2 + trial % 7)
            result = craft_fedpoisonmia(ctx, params, refs)
            assert result.objective_value == per_pair_objective(result.g_malicious, refs)
            feasible.add(result.feasible)
        assert feasible == {True, False}

    def test_random_vectors(self, rng):
        for trial in range(300):
            d = int(rng.integers(2, 40))
            refs = rng.normal(size=(int(rng.integers(2, 10)), d)) * 10.0 ** rng.integers(-8, 8)
            g = rng.normal(size=d) * 10.0 ** rng.integers(-8, 8)
            got = attacks._objective(attacks._geometry(refs), g)
            assert got == per_pair_objective(g, refs)

    def test_duplicated_reference(self, rng):
        for _ in range(50):
            refs = rng.normal(size=(4, 12))
            refs = np.vstack([refs, refs[1]])
            g = rng.normal(size=12)
            assert attacks._objective(attacks._geometry(refs), g) == per_pair_objective(g, refs)

    def test_mirrored_references_tie_exactly(self, rng, monkeypatch):
        calls = counting_angles(monkeypatch)
        for _ in range(50):
            # g is zero on the coordinates where the two references differ
            # in sign, so their per-pair angles to g are the same float
            g = np.concatenate([rng.normal(size=6), np.zeros(4)])
            near = rng.normal(size=(3, 10)) + 3 * g
            far = np.concatenate([-g[:6], rng.normal(size=4)])
            mirror = far * np.concatenate([np.ones(6), -np.ones(4)])
            refs = np.vstack([near, far, mirror])
            assert angle_between(g, far) == angle_between(g, mirror)
            del calls[:]
            got = attacks._objective(attacks._geometry(refs), g)
            assert len(calls) == 2  # both tied references, scored per pair
            assert got == per_pair_objective(g, refs)

    def test_infeasible_craft_objective_is_the_mask_gradients(self, rng):
        seen = 0
        for trial in range(20):
            params = perturbed(tiny_net(seed=trial), 0.4, rng)
            ctx = TestCraftFedPoisonMia()._ctx(rng, params)
            # references a hair apart leave no blend within the budget
            base = gradient_like_refs(rng, params, 1)[0]
            refs = np.stack([base + 1e-9 * rng.normal(size=params.dim) for _ in range(4)])
            result = craft_fedpoisonmia(ctx, params, refs)
            if result.feasible:
                continue
            seen += 1
            assert result.chosen_alpha == 0.0
            idx = list(result.selected_mask_indices)
            g_mask = mlp.gradient(params, ctx.mask_features[idx], ctx.mask_labels[idx])
            assert np.array_equal(result.g_malicious, g_mask)
            assert result.objective_value == per_pair_objective(g_mask, refs)
        assert seen > 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflowing norm
    @pytest.mark.parametrize("case", ["overflow", "cancel"])
    def test_all_pairs_fallback(self, rng, monkeypatch, case):
        calls = counting_angles(monkeypatch)
        for _ in range(20):
            refs = rng.normal(size=(5, 16))
            g_attack = rng.normal(size=16)
            if case == "overflow":  # |g| overflows; its entries do not
                g = 1e200 * g_attack
            else:  # the blend cancels to about 1.5 * NORM_FLOOR
                g = 1.0 * g_attack + -(1 + 1.5e-12 / np.linalg.norm(g_attack)) * g_attack
            del calls[:]
            expected = outcome(per_pair_objective, g, refs)
            assert outcome(attacks._objective, attacks._geometry(refs), g) == expected
            assert len(calls) == len(refs)

    def test_fewer_angle_calls_than_references(self, monkeypatch):
        rng = np.random.default_rng(7)
        instance = TestBatchedDecisionEquivalence()._instance(
            rng, 7, rng.normal(size=(3, 64))
        )
        params, mask_X, mask_y, g_attack, refs = instance
        ctx = AttackerContext(
            attack_features=mask_X,
            attack_labels=mask_y,
            mask_features=mask_X,
            mask_labels=mask_y,
            mask_fraction=0.3,
            alpha_grid=TestBatchedDecisionEquivalence.GRID,
            flipped_labels=flip_labels(mask_y, 3, seed=7),
        )
        calls = counting_angles(monkeypatch)
        craft_fedpoisonmia(ctx, params, refs)
        assert 0 < len(calls) < len(refs)


class TestGradientAscent:
    def test_exact_negation(self, rng):
        params = perturbed(tiny_net(), 0.3, rng)
        X = rng.normal(size=(5, 6))
        y = rng.integers(0, 3, size=5)
        g = craft_gradient_ascent(params, X, y, 1.0)
        assert np.array_equal(g, -mlp.gradient(params, X, y))

    def test_antiparallel(self, rng):
        params = perturbed(tiny_net(), 0.3, rng)
        X = rng.normal(size=(5, 6))
        y = rng.integers(0, 3, size=5)
        g = craft_gradient_ascent(params, X, y, 2.0)
        assert angle_between(g, mlp.gradient(params, X, y)) == pytest.approx(
            math.pi, abs=1e-7
        )

    def test_linear_in_scale(self, rng):
        params = perturbed(tiny_net(), 0.3, rng)
        X = rng.normal(size=(5, 6))
        y = rng.integers(0, 3, size=5)
        assert np.allclose(
            craft_gradient_ascent(params, X, y, 3.0),
            3.0 * craft_gradient_ascent(params, X, y, 1.0),
        )


class TestAgrevader:
    def test_huge_budget_keeps_full_blend(self, rng):
        params = perturbed(tiny_net(seed=2), 0.4, rng)
        X = rng.normal(size=(6, 6))
        y = rng.integers(0, 3, size=6)
        flipped = flip_labels(y, 3, seed=0)
        mask_X = rng.normal(size=(5, 6))
        mask_y = rng.integers(0, 3, size=5)
        refs = np.stack([np.full(params.dim, 100.0), np.full(params.dim, -100.0)])
        g = craft_agrevader(params, X, flipped, mask_X, mask_y, refs)
        expected = mlp.gradient(params, X, flipped) + mlp.gradient(params, mask_X, mask_y)
        assert np.array_equal(g, expected)

    def test_single_reference_zero_budget_suppresses_attack(self, rng):
        params = perturbed(tiny_net(seed=3), 0.4, rng)
        X = rng.normal(size=(6, 6))
        y = rng.integers(0, 3, size=6)
        flipped = flip_labels(y, 3, seed=0)
        mask_X = rng.normal(size=(5, 6))
        mask_y = rng.integers(0, 3, size=5)
        g_mask = mlp.gradient(params, mask_X, mask_y)
        g = craft_agrevader(params, X, flipped, mask_X, mask_y, np.stack([g_mask]))
        assert np.array_equal(g, g_mask)

    def test_distance_constraint_holds_on_return(self, rng):
        for trial in range(10):
            params = perturbed(tiny_net(seed=trial), 0.4, rng)
            X = rng.normal(size=(6, 6))
            y = rng.integers(0, 3, size=6)
            flipped = flip_labels(y, 3, seed=trial)
            mask_X = rng.normal(size=(5, 6))
            mask_y = rng.integers(0, 3, size=5)
            refs = gradient_like_refs(rng, params, 4)
            g = craft_agrevader(params, X, flipped, mask_X, mask_y, refs)
            budget = max(
                np.linalg.norm(refs[i] - refs[j])
                for i, j in itertools.combinations(range(4), 2)
            )
            g_mask = mlp.gradient(params, mask_X, mask_y)
            nearest = min(np.linalg.norm(refs - g, axis=1))
            assert nearest <= budget or np.array_equal(g, g_mask)


class TestAdaptive:
    def test_within_threshold_unchanged(self, rng):
        refs = np.stack([np.array([1.0, 0.01 * i]) for i in range(5)])
        g = np.array([1.0, 0.02])
        out = craft_adaptive(refs, g, trim_b=1)
        assert np.array_equal(out, g)

    def test_opposed_attack_converges_into_cluster(self, rng):
        params = perturbed(tiny_net(seed=31), 0.4, rng)
        refs = gradient_like_refs(rng, params, 6)
        g = -refs.mean(axis=0)
        out = craft_adaptive(refs, g, trim_b=1)
        n = len(refs) + 1
        stack = np.vstack([refs, out])
        means = pairwise_angles(stack).sum(axis=1) / (n - 1)
        threshold = np.sort(means)[::-1][1]
        assert means[-1] < threshold

    def test_averaging_step_reduces_angle_to_target(self, rng):
        for trial in range(20):
            g = rng.normal(size=7)
            k = rng.normal(size=7)
            new = 0.5 * (g + k)
            if np.linalg.norm(new) < 1e-9:
                continue
            assert angle_between(new, k) <= angle_between(g, k) + 1e-9

    def test_break_branch_survives_trim(self, rng):
        for trial in range(40):
            params = perturbed(tiny_net(seed=trial), 0.4, rng)
            refs = gradient_like_refs(rng, params, 5)
            g = -refs.mean(axis=0) + 0.3 * rng.normal(size=params.dim)
            b = 1 if trial % 2 == 0 else 2
            out = craft_adaptive(refs, g, trim_b=b)
            stack = np.vstack([refs, out])
            n = len(stack)
            means = pairwise_angles(stack).sum(axis=1) / (n - 1)
            threshold = np.sort(means)[::-1][2 * b - 1]
            if means[-1] < threshold:  # returned via the success branch
                kept = atm(stack, b).kept_indices
                assert n - 1 in kept


    def test_degenerate_references_skipped(self, rng):
        params = perturbed(tiny_net(seed=7), 0.4, rng)
        refs = gradient_like_refs(rng, params, 5)
        g = -refs.mean(axis=0)
        base = craft_adaptive(refs, g, trim_b=1)
        for tiny in (0.0, 1e-84):
            padded = np.vstack([refs, np.full(params.dim, tiny)])
            assert np.array_equal(craft_adaptive(padded, g, trim_b=1), base)


class TestPassiveInfer:
    def test_constant_model_flags_its_class(self, rng):
        params = tiny_net()
        zero = mlp.ModelParams(np.zeros(params.dim), params.layer_shapes)
        X = rng.normal(size=(10, 6))
        y = rng.integers(0, 3, size=10)
        flags = passive_infer(zero, X, y)  # ties resolve to class 0
        assert np.array_equal(flags, y == 0)

    def test_matches_per_sample_oracle(self, rng):
        params = perturbed(tiny_net(seed=41), 0.4, rng)
        X = rng.normal(size=(12, 6))
        y = rng.integers(0, 3, size=12)
        flags = passive_infer(params, X, y)
        for i in range(12):
            assert flags[i] == (mlp.predict(params, X[i]) == y[i])


class TestAlphaGrid:
    def test_default_grid(self):
        assert AttackStrategy().alpha_grid == tuple(np.geomspace(0.01, 100.0, 25))

    def test_grid_follows_the_three_fields(self):
        grid = AttackStrategy(alpha_min=0.1, alpha_max=10.0, alpha_points=3).alpha_grid
        assert grid == pytest.approx((0.1, 1.0, 10.0))
        assert (grid[0], grid[-1]) == (0.1, 10.0)
        assert AttackStrategy(alpha_min=2.0, alpha_max=2.0, alpha_points=1).alpha_grid == (2.0,)
