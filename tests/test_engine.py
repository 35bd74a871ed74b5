import hashlib
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from fedarena import cli, mlp
from fedarena import engine as eng
from fedarena.aggregation import AggregationRule, apply_rule, atm, fang_filter, multi_krum
from fedarena.attacks import AttackStrategy, passive_infer
from fedarena.engine import (
    ExperimentConfig,
    RoundRecord,
    attack_accuracy,
    attack_precision_recall,
    attacker_references,
    build_world,
    run_async,
    run_sync,
    select_clients,
)
from fedarena.engine import test_accuracy as model_test_accuracy
from fedarena.errors import DegenerateGradient, EmptyHistory, EmptySet, InvalidC, InvalidConfig
from fedarena.rngstream import substream
from fedarena.vectors import pairwise_angles, pairwise_sq_distances

FAST = dict(
    rounds=25,
    lr=0.1,
    classes=3,
    features=16,
    per_class=60,
    spread=0.4,
    batch_size=8,
    n_attack=10,
    n_mask=8,
)


def fast_cfg(**over):
    merged = {**FAST, **over}
    return ExperimentConfig(**merged)


def records_equal(a, b):
    return (
        len(a) == len(b)
        and all(
            x.round == y.round
            and x.test_acc == y.test_acc
            and np.array_equal(x.membership_preds, y.membership_preds)
            and x.participants == y.participants
            for x, y in zip(a, b)
        )
    )


def client_gradient(world, params, t, k):
    """Per-client reference: client k's round-t batch gradient, by one
    mlp.gradient call on its own batch, drawn by its own Generator."""
    shard = world.shards[k]
    rng = substream(world.cfg.seed, "batch", t, k)
    idx = np.sort(rng.choice(shard, size=min(world.cfg.batch_size, shard.size), replace=False))
    return mlp.gradient(params, world.train.features[idx], world.train.labels[idx])


class TestSelectClients:
    def test_full_participation(self):
        assert list(select_clients(7, 1.0, 0, seed=0)) == list(range(7))

    def test_default_fraction(self):
        assert len(select_clients(10, 0.8, 3, seed=0)) == 8

    def test_deterministic_per_round(self):
        a = select_clients(10, 0.5, 4, seed=1)
        b = select_clients(10, 0.5, 4, seed=1)
        c = select_clients(10, 0.5, 5, seed=1)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_invalid_c(self):
        with pytest.raises(InvalidC):
            select_clients(10, 0.0, 0, seed=0)
        with pytest.raises(InvalidC):
            select_clients(10, 1.5, 0, seed=0)


class TestMetrics:
    def _rec(self, preds, t=0):
        return RoundRecord(
            round=t, test_acc=0.0, membership_preds=np.array(preds), participants=(0,)
        )

    def test_perfect_round_gives_one(self):
        truth = [True, False]
        records = [self._rec([False, False]), self._rec([True, False], 1)]
        assert attack_accuracy(records, truth) == 1.0

    def test_counting(self):
        truth = [True, True, False, False]
        records = [self._rec([True, False, False, False])]
        assert attack_accuracy(records, truth) == 0.75

    def test_matches_per_round_oracle(self, rng):
        truth = rng.random(12) < 0.5
        truth[0] = True
        records = [self._rec(rng.random(12) < 0.5, t) for t in range(20)]
        expected = max(np.mean(r.membership_preds == truth) for r in records)
        assert attack_accuracy(records, truth) == pytest.approx(expected)

    def test_precision_recall_perfect(self):
        truth = [True, False, True]
        records = [self._rec([True, False, True])]
        assert attack_precision_recall(records, truth) == (1.0, 1.0)

    def test_all_positive_predictions(self):
        truth = [True, True, False, False]
        records = [self._rec([True, True, True, True])]
        prec, rec = attack_precision_recall(records, truth)
        assert prec == 0.5 and rec == 1.0

    def test_no_positive_predictions_gives_zero_precision(self):
        truth = [True, False]
        records = [self._rec([False, False])]
        prec, rec = attack_precision_recall(records, truth)
        assert prec == 0.0 and rec == 0.0

    def test_same_round_as_accuracy(self, rng):
        truth = rng.random(10) < 0.5
        truth[0] = True
        records = [self._rec(rng.random(10) < 0.5, t) for t in range(15)]
        correct = [int(np.sum(r.membership_preds == truth)) for r in records]
        best = records[int(np.argmax(correct))].membership_preds
        tp = int(np.sum(best & truth))
        pp = int(np.sum(best))
        expected = (tp / pp if pp else 0.0, tp / int(np.sum(truth)))
        assert attack_precision_recall(records, truth) == pytest.approx(expected)

    def test_empty_history(self):
        with pytest.raises(EmptyHistory):
            attack_accuracy([], [True])
        with pytest.raises(EmptyHistory):
            attack_precision_recall([], [True])

    def test_model_test_accuracy(self, rng):
        params = mlp.init_params(((4, 5), (5, 3)), seed=0)
        X = rng.normal(size=(20, 4))
        y = rng.integers(0, 3, size=20)
        expected = np.mean([mlp.predict(params, X[i]) == y[i] for i in range(20)])
        assert model_test_accuracy(params, X, y) == pytest.approx(expected)
        with pytest.raises(EmptySet):
            model_test_accuracy(params, X[:0], y[:0])


class TestRunSync:
    def test_deterministic(self):
        cfg = fast_cfg(attack=AttackStrategy("fedpoisonmia", mask_fraction=0.3), seed=3)
        a = run_sync(cfg)
        b = run_sync(cfg)
        assert records_equal(a.records, b.records)
        assert a.attack_acc == b.attack_acc
        assert a.final_test_acc == b.final_test_acc

    def test_loss_decreases_on_separable_blobs(self):
        cfg = fast_cfg(
            n_clients=2,
            participation=1.0,
            rounds=50,
            spread=0.15,
            attack=AttackStrategy("none"),
            seed=0,
        )
        world = build_world(cfg)
        params = world.params0
        losses = [mlp.loss(params, world.train.features, world.train.labels)]
        for t in range(cfg.rounds):
            grads = [client_gradient(world, params, t, k) for k in range(2)]
            out = apply_rule(cfg.rule, np.stack(grads), world.shard_sizes)
            params = mlp.apply_update(params, out.aggregate, cfg.lr)
            losses.append(mlp.loss(params, world.train.features, world.train.labels))
        assert losses[-1] < losses[0]
        # allow small bumps but require a broadly non-increasing trajectory
        assert sum(1 for x, y in zip(losses, losses[1:]) if y > x + 1e-9) <= 5

    def test_atm_b0_equals_fedavg_two_clients(self):
        base = dict(n_clients=2, participation=1.0, attack=AttackStrategy("none"), seed=5)
        res_avg = run_sync(fast_cfg(rule=AggregationRule("fedavg"), **base))
        res_atm = run_sync(fast_cfg(rule=AggregationRule("atm", trim_b=0), **base))
        assert records_equal(res_avg.records, res_atm.records)

    def test_participant_sizes(self):
        cfg = fast_cfg(seed=2, attack=AttackStrategy("none"))
        res = run_sync(cfg)
        for r in res.records:
            assert len(r.participants) == 8  # ceil(0.8 * 10)

    def test_malicious_ids_are_highest(self):
        cfg = fast_cfg(attack=AttackStrategy("fedpoisonmia", mask_fraction=0.3))
        world = build_world(cfg)
        assert world.malicious_ids == (9,)

    def test_no_attack_means_no_malicious(self):
        world = build_world(fast_cfg(attack=AttackStrategy("none")))
        assert world.malicious_ids == ()

    def test_partial_knowledge_runs(self):
        cfg = fast_cfg(
            malicious_fraction=0.2,
            attack=AttackStrategy("fedpoisonmia", mask_fraction=0.3, knowledge="partial"),
            seed=1,
        )
        res = run_sync(cfg)
        assert 0.0 <= res.attack_acc <= 1.0

    def test_every_attack_kind_runs(self):
        for kind in ("passive", "gradient_ascent", "agrevader", "adaptive"):
            cfg = fast_cfg(rounds=8, attack=AttackStrategy(kind, mask_fraction=0.3), seed=0)
            res = run_sync(cfg)
            assert len(res.records) == 8

    def test_craft_observer_certificates(self):
        from fedarena.attacks import reference_geometry
        from fedarena.vectors import angle_between

        violations = []
        def observer(t, result, refs):
            if result.feasible:
                worst = max(angle_between(result.g_malicious, r) for r in refs)
                if worst > reference_geometry(refs).budget + 1e-9:
                    violations.append(t)

        cfg = fast_cfg(attack=AttackStrategy("fedpoisonmia", mask_fraction=0.3), seed=4)
        run_sync(cfg, craft_observer=observer)
        assert violations == []

    def test_validation(self):
        with pytest.raises(InvalidC):
            run_sync(fast_cfg(participation=1.2))
        with pytest.raises(InvalidConfig):
            run_sync(fast_cfg(malicious_fraction=0.6))
        with pytest.raises(InvalidConfig):
            run_sync(fast_cfg(lr=0.0))
        with pytest.raises(InvalidConfig):
            run_sync(fast_cfg(n_attack=0))


class TestAttackerReferences:
    def test_partial_sees_only_proxies(self):
        benign = [np.ones(3)]
        proxies = [np.zeros(3), np.full(3, 2.0)]
        out = attacker_references("partial", benign, proxies)
        assert out is proxies

    def test_full_sees_benign(self):
        benign = [np.ones(3)]
        out = attacker_references("full", benign, [])
        assert out is benign


class TestRunAsync:
    def test_deterministic(self):
        cfg = fast_cfg(
            asynchronous=True,
            tau_max=4,
            attack=AttackStrategy("fedpoisonmia", mask_fraction=0.3),
            seed=6,
        )
        a = run_async(cfg)
        b = run_async(cfg)
        assert records_equal(a.records, b.records)

    def test_zero_delay_matches_sequential_reference(self):
        cfg = fast_cfg(
            rounds=12, asynchronous=True, tau_max=0, attack=AttackStrategy("none"), seed=7
        )
        res = run_async(cfg)

        # independent oracle: every update applied the moment its client
        # computes it, clients in ascending id order, buffer persisting
        world = build_world(cfg)
        params = world.params0
        buffer = {}
        ref_records = []
        for t in range(cfg.rounds):
            participants = select_clients(cfg.n_clients, cfg.participation, t, cfg.seed)
            for k in participants:
                buffer[int(k)] = client_gradient(world, params, t, int(k))
                order = sorted(buffer)
                out = apply_rule(
                    eng._clamp_rule(cfg.rule, len(order)),
                    np.stack([buffer[i] for i in order]),
                    world.shard_sizes[order],
                )
                params = mlp.apply_update(params, out.aggregate, cfg.lr)
            ref_records.append(
                (
                    model_test_accuracy(params, world.test.features, world.test.labels),
                    passive_infer(
                        params, world.attacker.attack_features, world.attacker.attack_labels
                    ),
                )
            )
        for got, (acc, preds) in zip(res.records, ref_records):
            assert got.test_acc == acc
            assert np.array_equal(got.membership_preds, preds)

    def test_forced_max_delay_staleness(self, monkeypatch):
        monkeypatch.setattr(eng._DrawPlan, "delay", lambda plan, t, k: plan.cfg.tau_max)
        cfg = fast_cfg(rounds=10, asynchronous=True, tau_max=3, attack=AttackStrategy("none"), seed=8)
        res = run_async(cfg)
        staleness = [s for r in res.records for s in r.diagnostics["staleness"]]
        assert staleness and all(s == 3 for s in staleness)

    def test_zero_delay_staleness_zero(self):
        cfg = fast_cfg(rounds=6, asynchronous=True, tau_max=0, attack=AttackStrategy("none"), seed=9)
        res = run_async(cfg)
        assert all(s == 0 for r in res.records for s in r.diagnostics["staleness"])

    def test_participant_sizes(self):
        cfg = fast_cfg(rounds=6, asynchronous=True, tau_max=2, attack=AttackStrategy("none"), seed=1)
        res = run_async(cfg)
        for r in res.records:
            assert len(r.participants) == 8

    def test_attack_runs_async(self):
        cfg = fast_cfg(
            rounds=10,
            asynchronous=True,
            tau_max=3,
            rule=AggregationRule("atm", trim_b=1),
            attack=AttackStrategy("fedpoisonmia", mask_fraction=0.3),
            seed=2,
        )
        res = run_async(cfg)
        assert len(res.records) == 10


class TestClampRule:
    def test_wrapper_clamps_the_knobs_its_inner_kind_reads(self):
        rule = AggregationRule("dp", krum_f=3, krum_count=9, inner="multi_krum")
        assert eng._clamp_rule(rule, 4) == replace(rule, krum_f=2, krum_count=4)
        assert eng._clamp_rule(rule, 1) == replace(rule, inner="fedavg")
        trim = AggregationRule("topk", trim_b=4, inner="atm")
        assert eng._clamp_rule(trim, 5) == replace(trim, trim_b=2)

    def test_top_level_rule_falls_back_to_fedavg(self):
        rule = AggregationRule("fang")
        assert eng._clamp_rule(rule, 1) == replace(rule, kind="fedavg")
        assert eng._clamp_rule(rule, 2) == rule


class TestCraftCount:
    ATTACKED = dict(
        rounds=10,
        malicious_fraction=0.3,
        rule=AggregationRule("atm", trim_b=1),
        attack=AttackStrategy("fedpoisonmia", mask_fraction=0.3),
        seed=2,
    )

    def crafts_and_attacked_rounds(self, cfg):
        crafts = []
        res = eng.run(cfg, craft_observer=lambda t, result, refs: crafts.append(t))
        malicious = set(build_world(cfg).malicious_ids)
        dispatched = [k for r in res.records for k in r.participants if k in malicious]
        attacked = [r.round for r in res.records if malicious & set(r.participants)]
        return crafts, dispatched, attacked

    def test_sync_crafts_once_per_attacked_round(self):
        crafts, dispatched, attacked = self.crafts_and_attacked_rounds(fast_cfg(**self.ATTACKED))
        assert crafts == attacked
        assert len(dispatched) > len(attacked)  # some round holds two malicious clients

    def test_async_reuses_a_craft_until_the_model_steps(self):
        cfg = fast_cfg(asynchronous=True, tau_max=3, **self.ATTACKED)
        crafts, dispatched, attacked = self.crafts_and_attacked_rounds(cfg)
        assert sorted(set(crafts)) == attacked
        assert len(crafts) < len(dispatched)


def per_client_gradients(params, Xs, ys):
    """mlp.gradients as one mlp.gradient call per batch: the per-client
    dispatch the stacked kernel replaces."""
    return np.stack([mlp.gradient(params, X, y) for X, y in zip(Xs, ys)])


class TestSegmentDispatch:
    """A segment's stacked backprop against the per-client reference: the
    same updates, crafts and records, bit for bit."""

    ATTACKED = dict(
        rounds=8,
        malicious_fraction=0.3,
        rule=AggregationRule("atm", trim_b=1),
        attack=AttackStrategy("fedpoisonmia", mask_fraction=0.3),
        seed=3,
    )

    def observed_run(self, cfg, monkeypatch, reference):
        """Records, crafts (round, update, references) and the kernel's
        (batch count, batch size) per call, of one run."""
        kernel = per_client_gradients if reference else mlp.gradients
        calls = []

        def spy(params, Xs, ys):
            calls.append(Xs.shape[:2])
            return kernel(params, Xs, ys)

        crafts = []
        with monkeypatch.context() as m:
            m.setattr(mlp, "gradients", spy)
            res = eng.run(cfg, lambda t, r, refs: crafts.append((t, r.g_malicious, refs)))
        return res, crafts, calls

    def assert_same_run(self, cfg, monkeypatch):
        res, crafts, calls = self.observed_run(cfg, monkeypatch, reference=False)
        ref, ref_crafts, _ = self.observed_run(cfg, monkeypatch, reference=True)
        assert records_equal(res.records, ref.records)
        assert [r.diagnostics for r in res.records] == [r.diagnostics for r in ref.records]
        assert len(crafts) == len(ref_crafts)
        for (t, g, refs), (t_ref, g_ref, refs_ref) in zip(crafts, ref_crafts):
            assert t == t_ref and np.array_equal(g, g_ref)
            assert all(np.array_equal(a, b) for a, b in zip(refs, refs_ref))
        return calls

    def test_sync_round_updates_match_per_client(self, monkeypatch):
        cfg = fast_cfg(**self.ATTACKED)
        world = build_world(cfg)
        participants = select_clients(cfg.n_clients, cfg.participation, 0, cfg.seed).tolist()
        view = {}
        updates = eng._client_updates(world, 0, participants, view, world.params0)
        assert [k for k, _ in updates] == participants
        for k, g in updates:
            if k not in world.malicious_ids:
                assert np.array_equal(g, client_gradient(world, world.params0, 0, k))
                assert view[k] is g
        calls = self.assert_same_run(cfg, monkeypatch)
        assert calls and all(K > 1 for K, _ in calls)  # one stacked call per round

    def test_async_segments_match_per_client(self, monkeypatch):
        cfg = fast_cfg(asynchronous=True, tau_max=3, **self.ATTACKED)
        calls = self.assert_same_run(cfg, monkeypatch)
        sizes = [K for K, _ in calls]
        assert max(sizes) > 1 and min(sizes) == 1  # long segments and one-client ones
        assert len(calls) > cfg.rounds  # some round splits into several segments

    @pytest.mark.parametrize("knowledge", ["passive", "partial"])
    @pytest.mark.parametrize("asynchronous", [False, True])
    def test_shard_smaller_than_batch(self, monkeypatch, asynchronous, knowledge):
        # 108 training examples over 10 shards: clients 8 and 9 hold 10, the
        # rest 11; a passive client 8 or 9, or a partial-knowledge proxy,
        # draws a batch of 10 next to the others' 11
        attack = (
            AttackStrategy("passive")
            if knowledge == "passive"
            else AttackStrategy("fedpoisonmia", mask_fraction=0.3, knowledge="partial")
        )
        cfg = fast_cfg(
            batch_size=11, asynchronous=asynchronous, **dict(self.ATTACKED, attack=attack)
        )
        assert [s.size for s in build_world(cfg).shards] == [11] * 8 + [10] * 2
        calls = self.assert_same_run(cfg, monkeypatch)
        assert {B for _, B in calls} == {10, 11}

    def test_held_rows_own_their_memory(self, monkeypatch):
        # the attacker's view and the async queue outlive a segment: a row
        # that is a view into the segment's (K, d) matrix would pin all of it
        held = []

        def recording(world, t, segment, view, params, craft_observer=None):
            updates = client_updates(world, t, segment, view, params, craft_observer)
            held.extend(g for _, g in updates)
            held.extend(view.values())
            return updates

        client_updates = eng._client_updates
        monkeypatch.setattr(eng, "_client_updates", recording)
        eng.run(fast_cfg(asynchronous=True, tau_max=3, **self.ATTACKED))
        assert held
        for g in held:
            assert g.base is None or g.base.size == g.size


class TestUpdateBuffer:
    @pytest.mark.parametrize("d", [1, 7, 2179])
    def test_kept_distances_equal_recompute(self, rng, d):
        for _ in range(8):
            n = int(rng.integers(1, 13))
            buf = eng.UpdateBuffer(n, d, "multi_krum")
            held = {}
            # every buffer size 1..n, then re-arrivals of the same clients
            arrivals = list(rng.permutation(n)) + list(rng.integers(0, n, size=2 * n))
            for step, client in enumerate(int(c) for c in arrivals):
                g = rng.normal(size=d)
                if held and step % 3 == 0:  # a copy of a held row: exact ties
                    g = held[list(held)[int(rng.integers(0, len(held)))]].copy()
                held[client] = g
                order, G, block = buf.put(client, g)
                assert order.tolist() == sorted(held)
                assert np.array_equal(G, np.stack([held[k] for k in sorted(held)]))
                assert np.array_equal(block, pairwise_sq_distances(G))
                assert np.shares_memory(G, buf.rows) and np.shares_memory(block, buf.pairs)
                m = order.size
                if m < 2:
                    continue
                f = int(rng.integers(0, m - 1))
                count = int(rng.integers(1, m + 1))
                cached = multi_krum(G, f, count, block)
                fresh = multi_krum(G, f, count)
                assert cached.kept_indices == fresh.kept_indices
                assert cached.diagnostics == fresh.diagnostics
                assert np.array_equal(cached.aggregate, fresh.aggregate)

    @pytest.mark.parametrize("d", [1, 8, 13, 2179])
    def test_kept_angles_equal_recompute(self, rng, d):
        for _ in range(6):
            n = int(rng.integers(2, 13))
            buf = eng.UpdateBuffer(n, d, "atm")
            held = {}
            # every buffer size 1..n, then re-arrivals of the same clients
            arrivals = list(rng.permutation(n)) + list(rng.integers(0, n, size=2 * n))
            zero, huge = (int(s) for s in rng.choice(len(arrivals), size=2, replace=False))
            for step, client in enumerate(int(c) for c in arrivals):
                g = rng.normal(size=d)
                if step == zero:  # no direction: at pi to every other row
                    g = np.zeros(d)
                elif step == huge:  # the norm overflows: at pi/2 to every other row
                    g = 1e306 * np.sign(g)
                elif held and step % 3 == 0:  # a copy of a held row: exact ties
                    g = held[list(held)[int(rng.integers(0, len(held)))]].copy()
                held[client] = g
                order, G, block = buf.put(client, g)
                assert order.tolist() == sorted(held)
                assert np.array_equal(G, np.stack([held[k] for k in sorted(held)]))
                assert np.shares_memory(G, buf.rows) and np.shares_memory(block, buf.pairs)
                m = order.size
                if m < 2:
                    continue
                assert np.array_equal(block, pairwise_angles(G))
                b = int(rng.integers(0, (m - 1) // 2 + 1))
                cached, fresh = atm(G, b, angles=block), atm(G, b)
                assert cached.kept_indices == fresh.kept_indices
                assert np.array_equal(cached.diagnostics["mean_angles"], fresh.diagnostics["mean_angles"])
                assert np.array_equal(cached.aggregate, fresh.aggregate)

    @pytest.mark.parametrize("mode", ["err", "lfr"])
    @pytest.mark.parametrize("shapes", [((6, 8), (8, 3)), ((64, 32), (32, 3))], ids=["tiny", "desk"])
    def test_kept_products_equal_recompute(self, rng, mode, shapes):
        params = mlp.init_params(shapes, seed=3)
        X, y = rng.normal(size=(10, shapes[0][0])), rng.integers(0, 3, size=10)
        products = partial(mlp.input_products, X, layer_shapes=params.layer_shapes)
        n = 7
        buf = eng.UpdateBuffer(n, params.dim, "fang", products)
        held = {}
        arrivals = list(rng.permutation(n)) + list(rng.integers(0, n, size=2 * n))
        for step, client in enumerate(int(c) for c in arrivals):
            g = rng.normal(size=params.dim)
            if held and step % 3 == 0:  # a copy of a held row: exact ties
                g = held[list(held)[int(rng.integers(0, len(held)))]].copy()
            held[client] = g
            order, G, block = buf.put(client, g)
            assert order.tolist() == sorted(held)
            fresh = np.stack([products(row) for row in G])
            assert np.array_equal(block, fresh)
            assert np.shares_memory(G, buf.rows) and np.shares_memory(block, buf.products)
            if order.size < 2:
                continue
            cached = fang_filter(G, params, X, y, mode, 0.5, order.size - 1, block)
            recomputed = fang_filter(G, params, X, y, mode, 0.5, order.size - 1)
            assert cached.kept_indices == recomputed.kept_indices
            assert cached.diagnostics["removed"] == recomputed.diagnostics["removed"]
            assert np.array_equal(cached.aggregate, recomputed.aggregate)

    def test_no_distances_unless_asked(self, rng):
        buf = eng.UpdateBuffer(3, 4, "fedavg")
        order, G, block = buf.put(2, rng.normal(size=4))
        assert order.tolist() == [2] and G.shape == (1, 4) and block is None

    SHAPES = ((6, 8), (8, 3))
    VAL = np.linspace(-1, 1, 30).reshape(5, 6)  # validation features for fang's products

    def fresh_block(self, kind, G):
        """The block of `G` the buffer keeps for `kind`, computed afresh."""
        if kind == "atm":
            return pairwise_angles(G) if len(G) > 1 else np.zeros((1, 1))
        if kind == "multi_krum":
            return pairwise_sq_distances(G)
        return np.stack([mlp.input_products(self.VAL, g, self.SHAPES) for g in G])

    def new_buffer(self, kind, n):
        dim = mlp.init_params(self.SHAPES, seed=0).dim
        products = partial(mlp.input_products, self.VAL, layer_shapes=self.SHAPES)
        return eng.UpdateBuffer(n, dim, kind, products), dim

    @pytest.mark.parametrize("kind", ["fedavg", "atm", "multi_krum", "fang"])
    @pytest.mark.parametrize(
        "arrivals",
        [[0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [2, 0, 4, 1, 3], [3, 1, 3, 0, 1, 4, 2, 0, 4]],
        ids=["ascending", "descending", "mixed", "repeats"],
    )
    def test_compact_views_at_every_fill_level(self, rng, kind, arrivals):
        # a first put lands at the front, in the middle or at the end of
        # the held clients; the rows and the block come back as views of
        # the buffer whatever the fill level
        buf, dim = self.new_buffer(kind, 5)
        held = {}
        for client in arrivals:
            held[client] = rng.normal(size=dim)
            order, G, block = buf.put(client, held[client])
            assert order.tolist() == sorted(held)
            assert np.array_equal(G, np.stack([held[k] for k in sorted(held)]))
            assert np.shares_memory(G, buf.rows)
            if kind == "fedavg":
                assert block is None
                continue
            assert np.shares_memory(block, buf.products if kind == "fang" else buf.pairs)
            assert np.array_equal(block, self.fresh_block(kind, G))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_raises_at_put(self, rng, bad):
        # the message names the row's position among the clients held,
        # ascending by id, and the buffer keeps what it held
        buf, dim = self.new_buffer("atm", 5)
        for client in (1, 3):
            buf.put(client, rng.normal(size=dim))
        for client, position in ((2, 1), (0, 0), (4, 2), (3, 1)):  # partial buffer
            g = rng.normal(size=dim)
            g[int(rng.integers(0, dim))] = bad
            with pytest.raises(DegenerateGradient, match=f"^gradient {position} contains NaN or Inf entries$"):
                buf.put(client, g)
            assert np.flatnonzero(buf.held).tolist() == [1, 3]
        for client in (0, 2, 4):
            buf.put(client, rng.normal(size=dim))
        before = buf.rows.copy(), buf.pairs.copy()
        for client in range(5):  # full buffer: the position is the client id
            g = rng.normal(size=dim)
            g[-1] = bad
            with pytest.raises(DegenerateGradient, match=f"^gradient {client} contains NaN or Inf entries$"):
                buf.put(client, g)
        assert np.array_equal(buf.rows, before[0]) and np.array_equal(buf.pairs, before[1])


# sha256 of rounds.csv + summary.json, recorded before async Krum kept its
# distances between arrivals; the kept block must not change a choice
ASYNC_KRUM = """n_clients = 12
malicious_fraction = 0.25
rounds = 12
lr = 0.1
features = 8
per_class = 40
batch_size = 8
n_attack = 8
n_mask = 6
attack = fedpoisonmia
gamma = 0.34
async = true
tau_max = 3
seed = 4
krum_f = 2
"""
ASYNC_KRUM_DIGESTS = {
    "rule = multi_krum": "bc1e180b79b0d49157d8d75a34d973c83367b0a88add08d7af7da9fb9d1eba4a",
    "rule = dp\ninner_rule = multi_krum\ndp_sigma = 0.01":
        "f32da474f8e4d1378bbecac4300433222a71efd2354aa91aae51faa9b8f43306",
    "rule = topk\ninner_rule = multi_krum\ntop_k = 100":
        "e86f059b5ed2b0d636c3757c322707af4c55245aa8b4338b3c28d804c2ba8ab8",
    # recorded while async still crafted once per malicious participant;
    # reusing a craft until the model steps must not change an output
    "rule = atm": "9b013e3cf18447458c20bcb03f1e5f25eab71e4d425c51dc83cd87222a886670",
    # recorded while a partial buffer handed out copies of its held rows;
    # its arrivals insert clients before, between and after those held
    "rule = fang\nfang_mode = lfr":
        "860d611b5607d688e778d34c39bd477f9b3a98069f5e91d3cf1d9fd0dc9bd6f5",
}


# the same config at tau_max = 0, recorded while every client dispatched
# on its own; now every dispatch segment holds one client
ASYNC_ZERO_DELAY_DIGESTS = {
    "rule = atm": "2bacb4038f62c692ad68e62d6d8e0360fc742d1eb029b53ceb5b148966ced831",
    "rule = multi_krum": "7cbf17f82afee91797ee36302abf73c64ae3e79632c036f9b3147e5f95c05bdc",
    "rule = fang\nfang_mode = lfr":
        "9a89bfaba58bfa7b5afa9e53efccf1cbd7e93139bda882b925c4aa0a22ba9591",
}


def run_digest(tmp_path, text):
    """sha256 of the rounds.csv and summary.json a `run` of `text` writes."""
    cfg = tmp_path / "cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    h = hashlib.sha256()
    for name in ("rounds.csv", "summary.json"):
        h.update((out / name).read_bytes())
        h.update(b"\0")
    return h.hexdigest()


class TestAsyncKrumGolden:
    @pytest.mark.parametrize("rule_lines", list(ASYNC_KRUM_DIGESTS))
    def test_outputs_match_recorded_digest(self, tmp_path, rule_lines):
        digest = run_digest(tmp_path, ASYNC_KRUM + rule_lines + "\n")
        assert digest == ASYNC_KRUM_DIGESTS[rule_lines]

    @pytest.mark.parametrize("rule_lines", list(ASYNC_ZERO_DELAY_DIGESTS))
    def test_zero_delay_matches_recorded_digest(self, tmp_path, monkeypatch, rule_lines):
        segments = []

        def recording(world, t, segment, *args):
            segments.append(len(segment))
            return client_updates(world, t, segment, *args)

        client_updates = eng._client_updates
        monkeypatch.setattr(eng, "_client_updates", recording)
        text = ASYNC_KRUM.replace("tau_max = 3", "tau_max = 0") + rule_lines + "\n"
        assert run_digest(tmp_path, text) == ASYNC_ZERO_DELAY_DIGESTS[rule_lines]
        assert segments and set(segments) == {1}


# the ASYNC_KRUM config under crafts no perfbench cell runs, recorded
# before the crafter's steps became one public function each
CRAFT_DIGESTS = {
    "async = false\nattack = adaptive\nrule = atm":
        "81cd72cd22acd64f20c026fdcb57dd28dd1732dc50de44560ce4d6e81b781a57",
    "attack = adaptive\nrule = atm":
        "f6cebe893b509fe0623362bde85586059cf043b0b9b83256899c009dab37101b",
    "async = false\nattack = agrevader":
        "6fc5815987294ab727790fd4c51f969de6b50534ac6b70c140d9f6c3e501c84a",
    "async = false\nknowledge = partial\nrule = atm":
        "fcc1c361e27edbf936e59cd7e36b404c2613e4d519f40bfddd5bd1580e2d32b1",
}


class TestCraftGolden:
    @pytest.mark.parametrize("lines", list(CRAFT_DIGESTS))
    def test_outputs_match_recorded_digest(self, tmp_path, lines):
        assert run_digest(tmp_path, ASYNC_KRUM + lines + "\n") == CRAFT_DIGESTS[lines]


class TestRuleAndDataModes:
    def test_every_rule_kind_trains(self):
        for rule in (
            AggregationRule("fedavg"),
            AggregationRule("median"),
            AggregationRule("trimmed_mean", trim_b=1),
            AggregationRule("atm", trim_b=1),
            AggregationRule("multi_krum", krum_f=1),
            AggregationRule("dp", dp_sigma=0.05),
            AggregationRule("topk", top_k=50),
            AggregationRule("fang", fang_mode="err"),
            AggregationRule("fang", fang_mode="lfr"),
        ):
            cfg = fast_cfg(rounds=5, rule=rule, attack=AttackStrategy("fedpoisonmia", mask_fraction=0.3), seed=0)
            res = run_sync(cfg)
            assert len(res.records) == 5
            assert np.isfinite(res.final_test_acc)

    def test_step_seed_derived_for_dp_only(self, monkeypatch):
        derive_seed, tags = eng.derive_seed, []

        def derive(seed, *t):
            tags.append(t[:1])
            return derive_seed(seed, *t)

        monkeypatch.setattr(eng, "derive_seed", derive)
        for rule, steps in ((AggregationRule("fedavg"), 0), (AggregationRule("dp", dp_sigma=0.05), 3)):
            del tags[:]
            run_sync(fast_cfg(rounds=3, rule=rule, seed=0))
            assert tags.count(("agg",)) == steps

    def test_noniid_partition_mode(self):
        cfg = fast_cfg(rounds=5, partition="noniid", beta=0.5, attack=AttackStrategy("none"), seed=0)
        res = run_sync(cfg)
        assert len(res.records) == 5

    def test_csv_dataset_mode(self, tmp_path):
        from fedarena import data as dm

        ds = dm.synth_dataset(3, 8, 60, 0.4, seed=0)
        path = tmp_path / "data.csv"
        dm.save_csv(ds, path)
        cfg = fast_cfg(
            rounds=4, dataset="csv", csv_path=str(path), attack=AttackStrategy("none"), seed=0
        )
        res = run_sync(cfg)
        assert len(res.records) == 4


class TestFidelitySmoke:
    def test_atm_close_to_fedavg_without_attack(self):
        # compressed version of the full fidelity check in the acceptance suite
        diffs = []
        for seed in (0, 1):
            accs = {}
            for rule in (AggregationRule("fedavg"), AggregationRule("atm", trim_b=1)):
                cfg = fast_cfg(rounds=60, rule=rule, attack=AttackStrategy("none"), seed=seed)
                accs[rule.kind] = run_sync(cfg).final_test_acc
            diffs.append(abs(accs["atm"] - accs["fedavg"]))
        assert max(diffs) <= 0.1
