import math

import numpy as np
import pytest

from conftest import perturbed, tiny_net
from fedarena import mlp
from fedarena.aggregation import (
    KINDS,
    AggregationRule,
    _Screened,
    apply_rule,
    atm,
    coordinate_median,
    dp_noise,
    fang_filter,
    fedavg,
    mean_angles,
    multi_krum,
    topk_rows,
    trimmed_mean,
)
from fedarena.errors import (
    DegenerateGradient,
    DimensionMismatch,
    EmptyValidationSet,
    InvalidConfig,
    InvalidK,
    InvalidKrumParams,
    TrimTooLarge,
    WeightMismatch,
)
from fedarena.selftest import krum_instance, naive_atm_kept, naive_fang_kept, naive_krum_kept
from fedarena.vectors import pairwise_angles, pairwise_sq_distances


class TestFedAvg:
    def test_opposite_vectors_cancel(self):
        u = np.array([1.0, -2.0, 3.0])
        out = fedavg(np.stack([u, -u]))
        assert np.allclose(out.aggregate, 0.0)

    def test_single_gradient(self):
        u = np.array([[3.0, 4.0]])
        assert np.array_equal(fedavg(u).aggregate, u[0])

    def test_weighted(self):
        out = fedavg(np.array([[0.0], [4.0]]), weights=[1.0, 3.0])
        assert np.allclose(out.aggregate, [3.0])

    def test_weight_mismatch(self):
        with pytest.raises(WeightMismatch):
            fedavg(np.ones((2, 3)), weights=[1.0])
        with pytest.raises(WeightMismatch):
            fedavg(np.ones((2, 3)), weights=[-1.0, 1.0])


class TestMedian:
    def test_outlier_resistant(self):
        out = coordinate_median(np.array([[1.0], [2.0], [100.0]]))
        assert np.array_equal(out.aggregate, [2.0])

    def test_even_count_averages(self):
        out = coordinate_median(np.array([[1.0], [3.0]]))
        assert np.array_equal(out.aggregate, [2.0])

    def test_matches_sort_oracle(self, rng):
        G = rng.normal(size=(7, 5))
        out = coordinate_median(G)
        for d in range(5):
            col = sorted(G[:, d])
            assert out.aggregate[d] == pytest.approx(col[3], abs=0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # 1.7e308 + 1.7e308
    @pytest.mark.parametrize("n", range(1, 10))
    def test_equals_np_median(self, n):
        # ties, signed zeros and values whose pair sum overflows, at both
        # parities; assert_array_equal counts -0.0 and +0.0 as equal
        rng = np.random.default_rng(n)
        pool = np.array([-0.0, 0.0, 1.0, -1.0, 0.5, 1.7e308, -1.7e308])
        for _ in range(40):
            G = rng.normal(size=(n, 23))
            tied = rng.random(size=G.shape) < 0.6
            G[tied] = rng.choice(pool, size=int(tied.sum()))
            np.testing.assert_array_equal(coordinate_median(G).aggregate, np.median(G, axis=0))


class TestTrimmedMean:
    def test_zero_trim_equals_mean_exactly(self, rng):
        G = rng.normal(size=(5, 4))
        assert np.array_equal(trimmed_mean(G, 0).aggregate, fedavg(G).aggregate)

    def test_drops_extremes(self):
        out = trimmed_mean(np.array([[0.0], [5.0], [100.0]]), 1)
        assert np.array_equal(out.aggregate, [5.0])

    def test_matches_sort_oracle(self, rng):
        G = rng.normal(size=(9, 4))
        out = trimmed_mean(G, 2)
        for d in range(4):
            col = sorted(G[:, d])
            assert out.aggregate[d] == pytest.approx(np.mean(col[2:-2]), abs=1e-12)

    def test_trim_too_large(self):
        with pytest.raises(TrimTooLarge):
            trimmed_mean(np.ones((4, 2)), 2)


class TestAtm:
    def test_identical_gradients_returned_exactly(self):
        g = np.array([1.0, 2.0, -1.0])
        for b in (0, 1):
            out = atm(np.stack([g, g, g, g]), b)
            assert np.array_equal(out.aggregate, g)
            assert np.allclose(out.diagnostics["mean_angles"], 0.0, atol=1e-7)

    def test_tie_break_drops_highest_index(self):
        g = np.array([1.0, 2.0, -1.0])
        out = atm(np.stack([g, g, g, g]), 1)
        assert out.kept_indices == (0, 1)

    def test_hand_case_single_dissenter(self):
        e1 = np.array([1.0, 0.0])
        G = np.stack([e1, e1, e1, -e1])
        out = atm(G, 1)
        # three aligned copies have mean angle pi/3; the dissenter has pi;
        # trimming 2 removes the dissenter and the highest-index copy
        assert out.kept_indices == (0, 1)
        assert np.allclose(out.aggregate, e1)
        assert out.diagnostics["mean_angles"][3] == pytest.approx(math.pi, abs=1e-7)
        assert out.diagnostics["mean_angles"][0] == pytest.approx(math.pi / 3, abs=1e-7)

    def test_matches_naive_reference(self, rng):
        for _ in range(120):
            n = int(rng.integers(2, 9))
            b = int(rng.integers(0, (n - 1) // 2 + 1))
            G = rng.normal(size=(n, 5))
            assert atm(G, b).kept_indices == naive_atm_kept(G, b)

    def test_self_inclusion_ranking_equivalence(self, rng):
        for _ in range(60):
            n = int(rng.integers(3, 9))
            b = int(rng.integers(0, (n - 1) // 2 + 1))
            G = rng.normal(size=(n, 4))
            excl = atm(G, b, include_self=False).kept_indices
            incl = atm(G, b, include_self=True).kept_indices
            assert excl == incl

    def test_mean_angle_conventions_scale(self, rng):
        G = rng.normal(size=(5, 4))
        excl = mean_angles(G, include_self=False)
        incl = mean_angles(G, include_self=True)
        assert np.allclose(excl * 4, incl * 5)

    def test_trim_too_large(self):
        with pytest.raises(TrimTooLarge):
            atm(np.eye(3), 2)

    def test_given_angles_are_read_not_modified(self, rng):
        G = rng.normal(size=(6, 3))
        block = pairwise_angles(G)
        before = block.copy()
        # a block with two rows' angles swapped must change the choice
        fake = block.copy()
        fake[[0, 5]] = fake[[5, 0]]
        fake[:, [0, 5]] = fake[:, [5, 0]]
        cached, fresh = atm(G, 1, angles=block), atm(G, 1)
        assert cached.kept_indices == fresh.kept_indices
        assert np.array_equal(cached.diagnostics["mean_angles"], fresh.diagnostics["mean_angles"])
        assert np.array_equal(block, before)
        swapped = atm(G[[5, 1, 2, 3, 4, 0]], 1).diagnostics["mean_angles"]
        assert np.array_equal(atm(G, 1, angles=fake).diagnostics["mean_angles"], swapped)

    @pytest.mark.parametrize("shape", [(5, 5), (6, 5), (6,), (6, 6, 1)])
    def test_wrongly_shaped_angles_raise(self, rng, shape):
        with pytest.raises(DimensionMismatch):
            atm(rng.normal(size=(6, 3)), 1, angles=np.zeros(shape))

    @pytest.mark.parametrize("scale", [0.0, 1e-300])
    def test_zero_norm_update_ranks_most_deviant(self, rng, scale):
        G = rng.normal(size=(7, 5))
        G[2] = scale * rng.normal(size=5)
        out = atm(G, 1)
        scores = out.diagnostics["mean_angles"]
        assert scores[2] == math.pi
        assert 2 not in out.kept_indices
        # the pi it adds to every other score leaves their ranking alone
        rest = [0, 1, 3, 4, 5, 6]
        assert np.array_equal(np.argsort(scores[rest]), np.argsort(mean_angles(G[rest])))


class TestMultiKrum:
    def test_select_all_is_mean(self, rng):
        G = rng.normal(size=(5, 3))
        out = multi_krum(G, 0, 5)
        assert np.allclose(out.aggregate, G.mean(axis=0))
        assert sorted(out.kept_indices) == [0, 1, 2, 3, 4]

    def test_outlier_rejected_lowest_index_tie(self):
        e1 = np.array([1.0, 0.0])
        G = np.stack([e1, e1, e1, 10 * np.array([0.0, 1.0])])
        out = multi_krum(G, 1, 1)
        assert out.kept_indices == (0,)
        assert np.allclose(out.aggregate, e1)

    def test_matches_exhaustive_oracle(self, rng):
        def oracle(G, f, count):
            n = len(G)
            remaining = list(range(n))
            chosen = []
            while len(chosen) < count:
                best, best_score = None, None
                for r in remaining:
                    d2 = sorted(
                        float(np.sum((G[r] - G[o]) ** 2)) for o in remaining if o != r
                    )
                    score = sum(d2[: min(n - f - 1, len(d2))])
                    if best_score is None or score < best_score:
                        best, best_score = r, score
                chosen.append(best)
                remaining.remove(best)
            return tuple(chosen)

        for trial in range(60):
            n = int(rng.integers(2, 41))  # up to 39 neighbours per score
            f = int(rng.integers(0, n - 1))
            count = int(rng.integers(1, n + 1))
            G = rng.normal(size=(n, 4))
            if trial % 4 == 1:  # duplicated rows tie exactly
                G[rng.integers(0, n, size=n // 3)] = G[rng.integers(0, n, size=n // 3)]
            elif trial % 4 == 2:  # integer rows give exact distance ties
                G = rng.integers(-2, 3, size=(n, 4)).astype(np.float64)
            elif trial % 4 == 3:  # every squared distance overflows to inf
                G *= 1e160
            out = multi_krum(G, f, count)
            with np.errstate(over="ignore"):
                assert out.kept_indices == oracle(G, f, count)
            assert out.diagnostics["selection_order"] == out.kept_indices

    def test_matches_per_pick_oracle(self, rng):
        # exact distance ties, duplicated, integer, all-identical,
        # overflowing and near-tied rows, f = 0, count = n and count <= f
        with np.errstate(over="ignore"):
            for trial in range(400):
                G, f, count = krum_instance(rng, trial)
                block = pairwise_sq_distances(G) if trial % 2 else None
                out = multi_krum(G, f, count, block)
                assert out.kept_indices == naive_krum_kept(G, f, count)

    def test_running_scores_rescore_near_ties(self):
        # the last two rows' scores tie exactly (each is their one distance),
        # but their running scores had the far row 0's 9e10 subtracted and
        # come out unequal; the exact rescore keeps the lower id first
        G = np.array([[0.1, 3.000005e5], [-2.0, 0.0], [-0.5, -0.9], [2.0, -2.0], [-1.0, -3.0]])
        assert multi_krum(G, 0, 5).kept_indices == (1, 2, 3, 0, 4)
        assert naive_krum_kept(G, 0, 5) == (1, 2, 3, 0, 4)
        # a regular polygon with one vertex nudged: scores differ by far
        # less than KRUM_TIE_TOL, so the lowest near id is not the pick
        for n in (5, 6):
            for k in range(n):
                angle = 2 * np.pi * np.arange(n) / n
                G = 2.0 * np.stack([np.cos(angle), np.sin(angle)], axis=1)
                G[k, 1] += 1e-11
                assert multi_krum(G, 0, n).kept_indices == naive_krum_kept(G, 0, n)

    def test_invalid_params(self):
        with pytest.raises(InvalidKrumParams):
            multi_krum(np.ones((3, 2)), 2, 1)
        with pytest.raises(InvalidKrumParams):
            multi_krum(np.ones((3, 2)), 0, 4)

    def test_given_distances_are_read_not_modified(self, rng):
        G = rng.normal(size=(6, 3))
        block = pairwise_sq_distances(G)
        before = block.copy()
        # a block with two rows' distances swapped must change the choice
        fake = block.copy()
        fake[[0, 5]] = fake[[5, 0]]
        fake[:, [0, 5]] = fake[:, [5, 0]]
        assert multi_krum(G, 1, 1, block).kept_indices == multi_krum(G, 1, 1).kept_indices
        assert np.array_equal(block, before)
        swapped = multi_krum(G[[5, 1, 2, 3, 4, 0]], 1, 1).kept_indices[0]
        assert multi_krum(G, 1, 1, fake).kept_indices[0] == swapped

    @pytest.mark.parametrize("shape", [(5, 5), (6, 5), (6,), (6, 6, 1)])
    def test_wrongly_shaped_distances_raise(self, rng, shape):
        with pytest.raises(DimensionMismatch):
            multi_krum(rng.normal(size=(6, 3)), 1, 2, np.zeros(shape))


class TestDpWrap:
    def test_zero_noise_identity(self, rng):
        G = rng.normal(size=(4, 6))
        out = fedavg(dp_noise(G, 0.0, seed=1))
        assert np.array_equal(out.aggregate, fedavg(G).aggregate)

    def test_noise_std_within_two_percent(self):
        d = 100_000
        G = np.zeros((1, d))
        sigma = 0.7
        out = fedavg(dp_noise(G, sigma, seed=42))
        assert abs(np.std(out.aggregate) - sigma) / sigma < 0.02

    def test_deterministic(self, rng):
        G = rng.normal(size=(3, 5))
        a = fedavg(dp_noise(G, 0.3, seed=7))
        b = fedavg(dp_noise(G, 0.3, seed=7))
        assert np.array_equal(a.aggregate, b.aggregate)


class TestTopkWrap:
    def test_full_k_identity(self, rng):
        G = rng.normal(size=(3, 6))
        out = fedavg(topk_rows(G, 6))
        assert np.array_equal(out.aggregate, fedavg(G).aggregate)

    def test_keeps_largest_magnitude(self):
        G = np.array([[3.0, -5.0, 1.0]])
        out = fedavg(topk_rows(G, 1))
        assert np.array_equal(out.aggregate, [0.0, -5.0, 0.0])

    def test_tie_keeps_lower_dimension(self):
        G = np.array([[2.0, -2.0, 1.0]])
        out = fedavg(topk_rows(G, 1))
        assert np.array_equal(out.aggregate, [2.0, 0.0, 0.0])

    def test_matches_sort_oracle(self, rng):
        G = rng.normal(size=(4, 9))
        k = 3
        out = fedavg(topk_rows(G, k))
        sparse = np.zeros_like(G)
        for i in range(4):
            idx = sorted(range(9), key=lambda j: (-abs(G[i, j]), j))[:k]
            sparse[i, idx] = G[i, idx]
        assert np.allclose(out.aggregate, sparse.mean(axis=0))

    def test_invalid_k(self):
        with pytest.raises(InvalidK):
            topk_rows(np.ones((2, 3)), 0)
        with pytest.raises(InvalidK):
            topk_rows(np.ones((2, 3)), 4)


class TestFang:
    def _setup(self, rng):
        params = perturbed(tiny_net(seed=1), 0.3, rng)
        X = rng.normal(size=(30, 6))
        y = rng.integers(0, 3, size=30)
        return params, X, y

    def test_identical_gradients_tie_removes_zero(self, rng):
        params, X, y = self._setup(rng)
        g = mlp.gradient(params, X, y)
        G = np.stack([g, g, g])
        out = fang_filter(G, params, X, y, "lfr", lr=0.1)
        assert out.kept_indices == (1, 2)
        assert np.allclose(out.aggregate, g)

    def test_ascent_gradient_removed_under_lfr(self, rng):
        params, X, y = self._setup(rng)
        honest = [mlp.gradient(params, X[i::3], y[i::3]) for i in range(3)]
        poison = -5.0 * mlp.gradient(params, X, y)
        G = np.stack(honest + [poison])
        out = fang_filter(G, params, X, y, "lfr", lr=0.1)
        assert 3 not in out.kept_indices

    def test_err_and_lfr_agree_on_planted_poison(self, rng):
        params, X, y = self._setup(rng)
        honest = [mlp.gradient(params, X[i::3], y[i::3]) for i in range(3)]
        poison = -20.0 * mlp.gradient(params, X, y)
        G = np.stack(honest + [poison])
        err = fang_filter(G, params, X, y, "err", lr=0.5)
        lfr = fang_filter(G, params, X, y, "lfr", lr=0.5)
        assert 3 not in err.kept_indices
        assert 3 not in lfr.kept_indices

    def test_empty_validation_set(self, rng):
        params, X, y = self._setup(rng)
        with pytest.raises(EmptyValidationSet):
            fang_filter(np.ones((2, params.dim)), params, X[:0], y[:0], "lfr", lr=0.1)


class TestFangParity:
    """The batched leave-one-out scoring against the per-candidate oracle."""

    def _instance(self, rng, shapes, n, kind):
        params = perturbed(mlp.init_params(shapes, seed=int(rng.integers(1000))), 0.3, rng)
        G = rng.normal(size=(n, params.dim))
        if kind == "duplicates":  # exact ties between candidates
            G[rng.integers(1, n, size=n // 2)] = G[0]
        elif kind == "integers":  # small integer steps: tied error rates
            G = np.round(3 * G)
        elif kind == "scaled":  # one row far larger than the rest
            G[int(rng.integers(n))] *= 1e3
        X = rng.normal(size=(int(rng.integers(1, 25)), shapes[0][0]))
        y = rng.integers(0, shapes[-1][1], size=X.shape[0])
        return params, G, X, y

    @pytest.mark.parametrize("mode", ["err", "lfr"])
    @pytest.mark.parametrize("kind", ["plain", "duplicates", "integers", "scaled"])
    @pytest.mark.parametrize(
        "shapes", [((6, 8), (8, 3)), ((5, 4), (4, 6), (6, 2)), ((4, 3),)], ids=["1h", "2h", "0h"]
    )
    def test_kept_and_removed_match_oracle(self, rng, mode, kind, shapes):
        for _ in range(12):
            n = int(rng.integers(2, 9))
            params, G, X, y = self._instance(rng, shapes, n, kind)
            lr = float(rng.choice([0.05, 0.5, 2.0]))
            for remove in range(n):
                out = fang_filter(G, params, X, y, mode, lr, remove)
                kept, removed = naive_fang_kept(G, params, X, y, mode, lr, remove)
                assert out.kept_indices == kept
                assert out.diagnostics["removed"] == removed
                assert np.array_equal(out.aggregate, G[list(kept)].mean(axis=0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the diverged model's inf - inf
    @pytest.mark.parametrize("mode", ["err", "lfr"])
    def test_exact_logit_ties_and_diverged_models(self, rng, mode):
        params, G, X, y = self._instance(rng, ((6, 8), (8, 3)), 5, "plain")
        zero = mlp.ModelParams(np.zeros(params.dim), params.layer_shapes)
        # every logit ties, so every prediction is decided by position
        for p_, G_, lr in ((zero, np.zeros_like(G), 0.1), (params, 1e200 * G, 1e200)):
            out = fang_filter(G_, p_, X, y, mode, lr, 3)
            assert (out.kept_indices, out.diagnostics["removed"]) == naive_fang_kept(
                G_, p_, X, y, mode, lr, 3
            )

    @pytest.mark.parametrize("mode", ["err", "lfr"])
    def test_scores_are_the_last_pass_scores(self, rng, mode):
        params, G, X, y = self._instance(rng, ((6, 8), (8, 3)), 6, "plain")
        out = fang_filter(G, params, X, y, mode, 0.5, 2)
        first = out.diagnostics["removed"][0]
        rows = [i for i in range(6) if i != first]
        exact = []
        for i in rows:
            model = mlp.apply_update(params, G[[j for j in rows if j != i]].mean(axis=0), 0.5)
            if mode == "err":
                exact.append(float(np.mean(mlp.predict_batch(model, X) != y)))
            else:
                exact.append(mlp.loss(model, X, y))
        scores = out.diagnostics["scores"]
        assert scores.shape == (5,)
        assert np.allclose(scores, exact, rtol=1e-12, atol=0)
        assert rows[int(np.argmin(exact))] == out.diagnostics["removed"][1]
        none = fang_filter(G, params, X, y, mode, 0.5, 0)
        assert none.kept_indices == tuple(range(6))
        assert none.diagnostics["removed"] == () and none.diagnostics["scores"].size == 0

    def test_products_given_equal_products_computed(self, rng):
        params, G, X, y = self._instance(rng, ((6, 8), (8, 3)), 7, "plain")
        P = np.stack([mlp.input_products(X, g, params.layer_shapes) for g in G])
        for mode in ("err", "lfr"):
            fresh = fang_filter(G, params, X, y, mode, 0.5, 3)
            cached = fang_filter(G, params, X, y, mode, 0.5, 3, val_products=P)
            assert cached.kept_indices == fresh.kept_indices
            assert np.array_equal(cached.diagnostics["scores"], fresh.diagnostics["scores"])
        with pytest.raises(DimensionMismatch):
            fang_filter(G, params, X, y, "lfr", 0.5, 1, val_products=P[1:])

    def test_products_reach_top_level_fang_only(self, rng):
        params, G, X, y = self._instance(rng, ((6, 8), (8, 3)), 4, "plain")
        wrong = np.zeros((1, 1, 1))  # fang_filter would reject this shape
        kw = dict(params=params, val_features=X, val_labels=y, lr=0.5)
        rule = AggregationRule("dp", dp_sigma=0.0, inner="fang")
        assert (
            apply_rule(rule, G, block=wrong, **kw).kept_indices
            == apply_rule(rule, G, **kw).kept_indices
        )


class TestPermutationEquivariance:
    def test_value_rules_unchanged(self, rng):
        G = rng.normal(size=(6, 5))
        w = rng.uniform(1, 2, size=6)
        perm = rng.permutation(6)
        assert np.allclose(
            fedavg(G, w).aggregate, fedavg(G[perm], w[perm]).aggregate, atol=1e-12
        )
        assert np.array_equal(
            coordinate_median(G).aggregate, coordinate_median(G[perm]).aggregate
        )
        assert np.allclose(
            trimmed_mean(G, 1).aggregate, trimmed_mean(G[perm], 1).aggregate, atol=1e-12
        )

    def test_selection_rules_map_through_permutation(self, rng):
        G = rng.normal(size=(6, 5))
        perm = rng.permutation(6)
        base = atm(G, 1)
        shuffled = atm(G[perm], 1)
        assert sorted(perm[list(shuffled.kept_indices)]) == sorted(base.kept_indices)
        assert np.allclose(
            np.sort(base.aggregate), np.sort(shuffled.aggregate), atol=1e-12
        )


class TestApplyRule:
    def test_dispatch_every_kind(self, rng):
        params = perturbed(tiny_net(seed=2), 0.3, rng)
        G = np.stack([mlp.gradient(params, rng.normal(size=(4, 6)), rng.integers(0, 3, 4)) for _ in range(5)])
        X = rng.normal(size=(10, 6))
        y = rng.integers(0, 3, size=10)
        for kind in ("fedavg", "median", "trimmed_mean", "atm", "multi_krum", "dp", "topk", "fang"):
            rule = AggregationRule(kind=kind, trim_b=1, krum_f=1, top_k=10)
            out = apply_rule(rule, G, seed=3, params=params, val_features=X, val_labels=y, lr=0.1)
            assert out.aggregate.shape == (params.dim,)
            assert np.all(np.isfinite(out.aggregate))
            assert set(out.kept_indices) <= set(range(5))

    @pytest.mark.parametrize(
        "rule",
        [AggregationRule(kind=k, trim_b=1, krum_f=1, top_k=10) for k in KINDS]
        + [
            AggregationRule(w, dp_sigma=0.0, top_k=10, trim_b=1, inner=k)
            for w in ("dp", "topk")
            for k in ("atm", "multi_krum")
        ],
        ids=lambda r: r.kind + (f"-{r.inner}" if r.inner != "fedavg" else ""),
    )
    def test_zero_vector_client_survives_every_rule(self, rng, rule):
        params = perturbed(tiny_net(seed=2), 0.3, rng)
        G = np.stack([mlp.gradient(params, rng.normal(size=(4, 6)), rng.integers(0, 3, 4)) for _ in range(5)])
        G[3] = 0.0
        X = rng.normal(size=(10, 6))
        y = rng.integers(0, 3, size=10)
        out = apply_rule(rule, G, seed=3, params=params, val_features=X, val_labels=y, lr=0.1)
        assert np.all(np.isfinite(out.aggregate))
        if "atm" in (rule.kind, rule.inner):
            assert 3 not in out.kept_indices

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "rule",
        [AggregationRule(kind=k, trim_b=1, krum_f=1, top_k=10) for k in KINDS]
        + [
            AggregationRule(w, top_k=10, trim_b=1, krum_f=1, inner=k)
            for w in ("dp", "topk")
            for k in ("atm", "multi_krum", "fang")
        ],
        ids=lambda r: r.kind + (f"-{r.inner}" if r.inner != "fedavg" else ""),
    )
    def test_non_finite_row_raises_every_rule(self, rng, rule, bad):
        params = perturbed(tiny_net(seed=2), 0.3, rng)
        G = np.stack([mlp.gradient(params, rng.normal(size=(4, 6)), rng.integers(0, 3, 4)) for _ in range(5)])
        G[2, 7] = bad
        X = rng.normal(size=(10, 6))
        y = rng.integers(0, 3, size=10)
        with pytest.raises(DegenerateGradient, match="gradient 2 contains NaN or Inf"):
            apply_rule(rule, G, seed=3, params=params, val_features=X, val_labels=y, lr=0.1)

    @pytest.mark.parametrize("kind", KINDS)
    def test_screened_rows_aggregate_as_plain_rows(self, rng, kind):
        # the engine's rows come screened and are not checked again; the
        # mark never reaches an array the rule derives from them
        params = perturbed(tiny_net(seed=2), 0.3, rng)
        G = np.stack([mlp.gradient(params, rng.normal(size=(4, 6)), rng.integers(0, 3, 4)) for _ in range(5)])
        X = rng.normal(size=(10, 6))
        y = rng.integers(0, 3, size=10)
        rule = AggregationRule(kind=kind, trim_b=1, krum_f=1, top_k=10)
        kw = dict(seed=3, params=params, val_features=X, val_labels=y, lr=0.1)
        plain = apply_rule(rule, G, **kw)
        screened = apply_rule(rule, G.view(_Screened), **kw)
        assert screened.kept_indices == plain.kept_indices
        assert np.array_equal(screened.aggregate, plain.aggregate)
        assert type(screened.aggregate) is np.ndarray

    def test_distances_reach_top_level_krum_only(self, rng):
        G = rng.normal(size=(5, 4))
        wrong = np.zeros((2, 2))
        with pytest.raises(DimensionMismatch):
            apply_rule(AggregationRule("multi_krum"), G, block=wrong)
        for kind in ("dp", "topk"):
            rule = AggregationRule(kind, dp_sigma=0.0, inner="multi_krum")
            plain = apply_rule(rule, G)
            given = apply_rule(rule, G, block=wrong)
            assert given.kept_indices == plain.kept_indices

    def test_angles_reach_top_level_atm_only(self, rng):
        G = rng.normal(size=(5, 4))
        wrong = np.zeros((2, 2))
        with pytest.raises(DimensionMismatch):
            apply_rule(AggregationRule("atm"), G, block=wrong)
        cached = apply_rule(AggregationRule("atm"), G, block=pairwise_angles(G))
        assert cached.kept_indices == apply_rule(AggregationRule("atm"), G).kept_indices
        for kind in ("dp", "topk"):
            rule = AggregationRule(kind, dp_sigma=0.0, inner="atm")
            plain = apply_rule(rule, G)
            given = apply_rule(rule, G, block=wrong)
            assert given.kept_indices == plain.kept_indices

    def test_wrapper_nests_inner_rule(self, rng):
        G = rng.normal(size=(5, 4))
        rule = AggregationRule("topk", top_k=4, inner="median")
        out = apply_rule(rule, G)
        assert np.array_equal(out.aggregate, coordinate_median(G).aggregate)

    @pytest.mark.parametrize("kind", ["dp", "topk"])
    @pytest.mark.parametrize("inner", ["dp", "topk"])
    def test_wrapper_cannot_wrap_a_wrapper(self, rng, kind, inner):
        with pytest.raises(InvalidConfig):
            apply_rule(AggregationRule(kind, inner=inner), rng.normal(size=(5, 4)))

    def test_inner_rule_reads_the_wrapper_knobs(self, rng):
        G = rng.normal(size=(7, 4))
        rule = AggregationRule("dp", dp_sigma=0.0, trim_b=2, inner="trimmed_mean")
        assert np.array_equal(apply_rule(rule, G).aggregate, trimmed_mean(G, 2).aggregate)
