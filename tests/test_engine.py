import hashlib
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from fedarena import cli, data, mlp
from fedarena import engine as eng
from fedarena.aggregation import (
    AggregationRule,
    apply_rule,
    atm,
    fang_filter,
    gram_sq_distances,
    multi_krum,
)
from fedarena.attacks import AttackStrategy, passive_infer
from fedarena.engine import (
    ExperimentConfig,
    RoundRecord,
    build_world,
    membership_metrics,
    run_async,
    run_sync,
    validate_config,
)
from fedarena.engine import test_accuracy as model_test_accuracy
from fedarena.errors import DegenerateGradient, EmptyHistory, EmptySet, InvalidC, InvalidConfig
from fedarena.rngstream import substream
from fedarena.selftest import naive_krum_kept
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


def select_clients(n, participation, t, seed):
    """Participants oracle: round t's draw by its own Generator."""
    rng = substream(seed, "select", t)
    return np.sort(rng.choice(n, eng.participant_count(n, participation), replace=False))


class TestSelectClients:
    """The participants each run reads from its draw plan."""

    def participants(self, **over):
        cfg = fast_cfg(rounds=6, attack=AttackStrategy("none"), **over)
        return [r.participants for r in eng.run(cfg).records]

    def test_full_participation(self):
        assert self.participants(participation=1.0) == [tuple(range(10))] * 6

    def test_default_fraction(self):
        assert eng.participant_count(10, 0.8) == 8
        assert all(len(p) == 8 for p in self.participants(participation=0.8))

    def test_deterministic_per_round(self):
        rounds = self.participants(participation=0.5, seed=1)
        assert rounds == self.participants(participation=0.5, seed=1)
        assert rounds == [tuple(select_clients(10, 0.5, t, 1)) for t in range(6)]
        assert len(set(rounds)) > 1

    @pytest.mark.parametrize("asynchronous", [False, True])
    def test_tiny_c_selects_one(self, asynchronous):
        # ceil(1e-12 * 10) is 1; the nudge against float error must not take it to 0
        assert eng.participant_count(10, 1e-12) == 1
        cfg = fast_cfg(rounds=4, participation=1e-12, attack=AttackStrategy("none"),
                       asynchronous=asynchronous, tau_max=2)
        res = eng.run(cfg)
        for r in res.records:
            assert len(r.participants) == 1
            assert r.participants == tuple(select_clients(10, 1e-12, r.round, cfg.seed))

    def test_invalid_c(self):
        with pytest.raises(InvalidC):
            validate_config(fast_cfg(participation=0.0))
        with pytest.raises(InvalidC):
            validate_config(fast_cfg(participation=1.5))


class TestMetrics:
    def _rec(self, preds, t=0):
        return RoundRecord(
            round=t, test_acc=0.0, membership_preds=np.array(preds), participants=(0,)
        )

    def test_perfect_round_gives_one(self):
        truth = [True, False]
        records = [self._rec([False, False]), self._rec([True, False], 1)]
        assert membership_metrics(records, truth)[0] == 1.0

    def test_counting(self):
        truth = [True, True, False, False]
        records = [self._rec([True, False, False, False])]
        assert membership_metrics(records, truth)[0] == 0.75

    def test_matches_per_round_oracle(self, rng):
        truth = rng.random(12) < 0.5
        truth[0] = True
        records = [self._rec(rng.random(12) < 0.5, t) for t in range(20)]
        expected = max(np.mean(r.membership_preds == truth) for r in records)
        assert membership_metrics(records, truth)[0] == expected

    def test_precision_recall_perfect(self):
        truth = [True, False, True]
        records = [self._rec([True, False, True])]
        assert membership_metrics(records, truth)[1:] == (1.0, 1.0)

    def test_all_positive_predictions(self):
        truth = [True, True, False, False]
        records = [self._rec([True, True, True, True])]
        prec, rec = membership_metrics(records, truth)[1:]
        assert prec == 0.5 and rec == 1.0

    def test_no_positive_predictions_gives_zero_precision(self):
        truth = [True, False]
        records = [self._rec([False, False])]
        prec, rec = membership_metrics(records, truth)[1:]
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
        assert membership_metrics(records, truth)[1:] == pytest.approx(expected)

    def test_tie_takes_earliest_round(self):
        # rounds 1 and 2 each make 3 of 4 calls right; round 2 alone gives
        # another precision and recall
        truth = [True, True, False, False]
        records = [
            self._rec([False, False, True, True]),
            self._rec([True, False, False, False], 1),
            self._rec([True, True, True, False], 2),
        ]
        assert membership_metrics(records, truth) == (0.75, 1.0, 0.5)
        assert membership_metrics(records[2:], truth) == (0.75, 2 / 3, 1.0)

    def test_empty_history(self):
        with pytest.raises(EmptyHistory):
            membership_metrics([], [True])

    def test_model_test_accuracy(self, rng):
        params = mlp.init_params(((4, 5), (5, 3)), seed=0)
        X = rng.normal(size=(20, 4))
        y = rng.integers(0, 3, size=20)
        expected = np.mean([mlp.predict_batch(params, X[i][None])[0] == y[i] for i in range(20)])
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

    def test_updates_due_after_the_last_round_are_never_applied(self, monkeypatch):
        # perfbench's async-robust atm cell at seed 0: 40 of 50 clients a
        # round for 10 rounds dispatch 400 updates, and 290 arrive in time
        cfg = ExperimentConfig(
            n_clients=50, participation=0.8, rounds=10, lr=0.1, batch_size=6,
            rule=AggregationRule("atm", trim_b=5),
            attack=AttackStrategy("passive", mask_fraction=0.3),
            features=64, per_class=500, asynchronous=True, tau_max=5, seed=0,
        )
        worlds, made, dispatched, arrivals, steps = [], [], [], [], []
        client_updates, put, step = eng._client_updates, eng.UpdateBuffer.put, eng._step

        def recording(world, t, segment, *args):
            worlds.append(world)
            U = client_updates(world, t, segment, *args)
            made.append(U.shape[0])
            dispatched.extend((t, k) for k in segment)
            return U

        def putting(buffer, client, g):  # no craft, so no attacker view: each put arrives
            arrivals.append(client)
            return put(buffer, client, g)

        def stepping(*args):
            steps.append(None)
            return step(*args)

        monkeypatch.setattr(eng, "_client_updates", recording)
        monkeypatch.setattr(eng.UpdateBuffer, "put", putting)
        monkeypatch.setattr(eng, "_step", stepping)
        res = run_async(cfg)
        assert sum(made) == len(set(dispatched)) == 400
        assert len(steps) == len(arrivals) == 290
        # the i-th arrival of round t was dispatched in round t - staleness[i]
        arrived = iter(arrivals)
        applied = {
            (r.round - s, next(arrived)) for r in res.records for s in r.diagnostics["staleness"]
        }
        draws = worlds[0].draws
        late = {(t, k) for t, k in dispatched if t + draws.delay(t, k) >= cfg.rounds}
        assert len(late) == 110
        assert applied == set(dispatched) - late


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

    @pytest.mark.parametrize(
        "rule, smallest",
        [
            (AggregationRule("atm", trim_b=5), 11),
            (AggregationRule("trimmed_mean", trim_b=5), 11),
            (AggregationRule("multi_krum", krum_f=5), 7),
            (AggregationRule("multi_krum", krum_f=5, krum_count=9), 9),
            (AggregationRule("dp", krum_f=5, krum_count=9, inner="multi_krum"), 9),
        ],
        ids=["atm", "trimmed_mean", "multi_krum", "multi_krum-count", "dp-multi_krum"],
    )
    def test_a_large_enough_buffer_keeps_the_rule_itself(self, rule, smallest):
        for size in (smallest, smallest + 1, 50):
            assert eng._clamp_rule(rule, size) is rule
        assert eng._clamp_rule(rule, smallest - 1) != rule


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
        U = eng._client_updates(world, 0, participants, None, world.params0)
        assert U.shape == (len(participants), world.params0.dim)
        benign = [k for k in participants if k not in world.malicious_ids]
        assert participants[: len(benign)] == benign  # the crafted rows are the tail
        for k, g in zip(benign, U):
            assert np.array_equal(g, client_gradient(world, world.params0, 0, k))
        assert (U[len(benign) :] == U[-1]).all()  # one craft per round
        calls = self.assert_same_run(cfg, monkeypatch)
        assert calls and all(K > 1 for K, _ in calls)  # one stacked call per round

    def test_sync_craft_references_are_the_round_rows(self, monkeypatch):
        # the crafter reads the benign prefix of the matrix the round steps
        # on, not a stack of its rows
        refs, stepped = [], []
        craft, step = eng.craft_fedpoisonmia, eng._step

        def craft_spy(ctx, params, benign_grads):
            refs.append(benign_grads)
            return craft(ctx, params, benign_grads)

        def step_spy(world, rule, params, order, G, *args):
            stepped.append((order, G))
            return step(world, rule, params, order, G, *args)

        monkeypatch.setattr(eng, "craft_fedpoisonmia", craft_spy)
        monkeypatch.setattr(eng, "_step", step_spy)
        cfg = fast_cfg(**self.ATTACKED)
        eng.run(cfg)
        assert len(refs) == len(stepped) == cfg.rounds
        for R, (order, G) in zip(refs, stepped):
            n_benign = sum(k < cfg.n_clients - eng.num_malicious(cfg) for k in order)
            assert np.shares_memory(R, G)
            assert R.shape == (n_benign, G.shape[1]) and np.array_equal(R, G[:n_benign])

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

    def test_async_craft_references_are_the_view_rows(self, monkeypatch):
        # an async craft reads the held rows of the attacker's view, a buffer
        # of each client's freshest benign row, not a stack of them
        views, fresh, crafted = [], {}, []
        craft, client_updates, shard_gradients = (
            eng.craft_fedpoisonmia, eng._client_updates, eng._shard_gradients
        )

        def recording(world, t, segment, view, *args):
            views.append(view)
            return client_updates(world, t, segment, view, *args)

        def gradients_spy(world, params, t, clients, *args):
            U = shard_gradients(world, params, t, clients, *args)
            fresh.update((k, g.copy()) for k, g in zip(clients, U))
            return U

        def craft_spy(ctx, params, benign_grads):
            view = views[-1]
            assert np.shares_memory(benign_grads, view.rows)
            assert np.flatnonzero(view.held).tolist() == sorted(fresh)
            assert np.array_equal(benign_grads, np.stack([fresh[k] for k in sorted(fresh)]))
            crafted.append(len(fresh))
            return craft(ctx, params, benign_grads)

        monkeypatch.setattr(eng, "_client_updates", recording)
        monkeypatch.setattr(eng, "_shard_gradients", gradients_spy)
        monkeypatch.setattr(eng, "craft_fedpoisonmia", craft_spy)
        cfg = fast_cfg(asynchronous=True, tau_max=3, **self.ATTACKED)
        eng.run(cfg)
        assert all(view is views[0] for view in views)
        assert crafted and max(crafted) > min(crafted)  # the view grows

    def test_held_rows_own_their_memory(self, monkeypatch):
        # the attacker's view and the async queue outlive a segment: a row
        # that is a view into the segment's (K, d) matrix would pin all of it
        matrices, views, arrived = [], [], []
        client_updates = eng._client_updates

        def recording(world, t, segment, view, params, craft_observer=None):
            U = client_updates(world, t, segment, view, params, craft_observer)
            matrices.append(U)
            views.append((view, int(np.count_nonzero(view.held))))
            return U

        class Buffer(eng.UpdateBuffer):
            def put(self, client, g):
                arrived.append((self, g, matrices[-1] if matrices else None))
                return super().put(client, g)

        monkeypatch.setattr(eng, "_client_updates", recording)
        monkeypatch.setattr(eng, "UpdateBuffer", Buffer)
        eng.run(fast_cfg(asynchronous=True, tau_max=3, **self.ATTACKED))
        view = views[0][0]
        assert all(v is view for v, _ in views) and max(held for _, held in views) > 0
        assert not any(np.shares_memory(view.rows, U) for U in matrices)
        # a zero-delay arrival is a row of its own segment's matrix; a queued
        # one arrives later, as an owned copy
        arrived = [(g, U) for buffer, g, U in arrived if buffer is not view]
        queued = [g for g, U in arrived if not np.shares_memory(g, U)]
        assert queued and len(queued) < len(arrived)
        for g in queued:
            assert g.base is None
            assert not any(np.shares_memory(g, U) for U in matrices)

    # only a full-knowledge agrevader, fedpoisonmia or adaptive craft reads
    # the view; gradient_ascent and partial knowledge craft without it
    @pytest.mark.parametrize(
        "attack",
        [
            AttackStrategy("none"),
            AttackStrategy("passive"),
            AttackStrategy("gradient_ascent"),
            AttackStrategy("fedpoisonmia", mask_fraction=0.3, knowledge="partial"),
        ],
        ids=["none", "passive", "gradient_ascent", "fedpoisonmia-partial"],
    )
    def test_view_empty_without_craft(self, monkeypatch, attack):
        sizes = []
        client_updates = eng._client_updates

        def recording(world, t, segment, view, params, craft_observer=None):
            U = client_updates(world, t, segment, view, params, craft_observer)
            sizes.append(0 if view is None else int(np.count_nonzero(view.held)))
            return U

        monkeypatch.setattr(eng, "_client_updates", recording)
        cfg = fast_cfg(asynchronous=True, tau_max=3, **dict(self.ATTACKED, attack=attack))
        eng.run(cfg)
        assert sizes and set(sizes) == {0}


def assert_gram_distances_within_bound(gram, G):
    """The Gram block is bitwise symmetric, its distances lie within their
    stated bound of `pairwise_sq_distances`' entry by entry, and each row's
    bound is the sum of its entries'."""
    d = G.shape[1]
    d2, rows = gram_sq_distances(gram, d)
    norms = np.diagonal(gram)
    finfo = np.finfo(np.float64)
    entry = 4 * (d + 4) * finfo.eps * np.add.outer(norms, norms) + d * finfo.tiny
    assert np.array_equal(gram, gram.T)
    assert np.all(np.abs(d2 - pairwise_sq_distances(G)) <= entry)
    assert np.allclose(rows, entry.sum(axis=1), rtol=1e-12, atol=0)


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
                assert_gram_distances_within_bound(block, G)
                assert np.shares_memory(G, buf.rows) and np.shares_memory(block, buf.pairs)
                m = order.size
                if m < 2:
                    continue
                f = int(rng.integers(0, m - 1))
                count = int(rng.integers(1, m + 1))
                cached = multi_krum(G, f, count, gram=block)
                fresh = multi_krum(G, f, count)
                assert cached.kept_indices == fresh.kept_indices
                assert cached.diagnostics == fresh.diagnostics
                assert np.array_equal(cached.aggregate, fresh.aggregate)

    @pytest.mark.parametrize(
        "case",
        ["duplicates", "near_ties", "polygon", "zero", "scaled_1e150", "scaled_1e160", "common_1e160", "d1"],
    )
    def test_adversarial_rows_pick_as_recompute(self, rng, case):
        # exact duplicate rows (as async crafted rows are), rows within 1e-13
        # of one another (the Gram error swamps their distances, so picks
        # are rescored), a nudged polygon (scores tied within 1e-13), a zero
        # row, rows whose |g|^2 reaches 1e300 or overflows, rows sharing a
        # 1e160 component (every Gram entry overflows, so every Gram distance
        # is NaN, while the exact distances stay finite and apart), and
        # d = 1: every pick through the kept Gram block is the fresh
        # recompute's and the per-pick oracle's, at every buffer size, f and
        # count
        n, d = 9, 1 if case == "d1" else 12
        rows = rng.normal(size=(2 * n, d))
        if case == "near_ties":
            rows = rows[0] + 1e-13 * rows
        elif case == "polygon":
            angle = 2 * np.pi * np.arange(2 * n) / (2 * n)
            rows = np.zeros((2 * n, d))
            rows[:, 0], rows[:, 1] = np.cos(angle), np.sin(angle)
            rows[3, 1] += 1e-13
        elif case == "zero":
            rows[[2, 11]] = 0.0
        elif case == "common_1e160":
            rows = 1e160 * (1 + 1e-9 * rows)
        elif case.startswith("scaled"):
            rows[rng.choice(2 * n, size=4, replace=False)] *= float(case[-5:])
        buf = eng.UpdateBuffer(n, d, "multi_krum")
        held = {}
        arrivals = list(rng.permutation(n)) + list(rng.integers(0, n, size=n))
        with np.errstate(over="ignore", invalid="ignore"):
            for step, client in enumerate(int(c) for c in arrivals):
                g = rows[step]
                if case == "duplicates" and held and step % 2:
                    g = held[list(held)[int(rng.integers(0, len(held)))]]
                held[client] = g.copy()
                order, G, block = buf.put(client, held[client])
                m = order.size
                for f in range(m - 1):
                    for count in sorted({1, m - f, m}):
                        cached = multi_krum(G, f, count, gram=block)
                        fresh = multi_krum(G, f, count)
                        assert cached.kept_indices == fresh.kept_indices
                        assert cached.kept_indices == naive_krum_kept(G, f, count)
                        assert cached.diagnostics == fresh.diagnostics
                        assert cached.aggregate.tobytes() == fresh.aggregate.tobytes()

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
        """The block of `G` the buffer keeps for atm or fang, computed afresh."""
        if kind == "atm":
            return pairwise_angles(G) if len(G) > 1 else np.zeros((1, 1))
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
            if kind == "multi_krum":  # a Gram block, its distances within their bound
                assert_gram_distances_within_bound(block, G)
            else:
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


# (sha256 of rounds.csv + summary.json, sha256 of the final model's
# params.flat bytes); the output digests were recorded before async Krum
# kept its distances between arrivals, and the kept block must not change a
# choice. The model digests, recorded before the crafter's screen, rescore
# and pick became one function, pin the float bits the outputs round away.
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
    "rule = multi_krum": (
        "bc1e180b79b0d49157d8d75a34d973c83367b0a88add08d7af7da9fb9d1eba4a",
        "38131c1492f454630581d664710be417257c253e2572bc255f559af710c0e494",
    ),
    "rule = dp\ninner_rule = multi_krum\ndp_sigma = 0.01": (
        "f32da474f8e4d1378bbecac4300433222a71efd2354aa91aae51faa9b8f43306",
        "201634605fc4716f76ef8c1125f3550d0512f3fd13ccb28e572f53e2dd2844bf",
    ),
    "rule = topk\ninner_rule = multi_krum\ntop_k = 100": (
        "e86f059b5ed2b0d636c3757c322707af4c55245aa8b4338b3c28d804c2ba8ab8",
        "b18fb3c94941dfdd5e5cd9560d8279f16638d915113a22cc75c319a808624b95",
    ),
    # recorded while async still crafted once per malicious participant;
    # reusing a craft until the model steps must not change an output
    "rule = atm": (
        "9b013e3cf18447458c20bcb03f1e5f25eab71e4d425c51dc83cd87222a886670",
        "eb1a48c30ec35be7e6b355cd29af47fa9b8d8a8502c58dc7f37701efc3b97660",
    ),
    # recorded while a partial buffer handed out copies of its held rows;
    # its arrivals insert clients before, between and after those held
    "rule = fang\nfang_mode = lfr": (
        "860d611b5607d688e778d34c39bd477f9b3a98069f5e91d3cf1d9fd0dc9bd6f5",
        "a58f203f7a9335219e243382caa6d51557dcfff9f8d2d0ac91e4cb3b89047f97",
    ),
    # recorded before fang's kept blocks carried the first-layer bias: err
    # mode's recheck, several removals, the fresh-products path under dp,
    # and sync fang
    "rule = fang\nfang_mode = err": (
        "b2601b584fa3a7d290a32c59d42df059ce118eb4fcb764fd08641cbe6bd02efd",
        "1b81694a440a60fbe112180fda83fd8df7e242a845279d9bdb021f627d93935e",
    ),
    "rule = fang\nfang_remove = 3": (
        "70a1656f0059ca534b0c6232f50464375b7a82f0e74199403a970862e1e1f786",
        "35b4653280150473e0072921783ba6b6f11c50d58c25fff24f1781feddc1ffc9",
    ),
    "rule = dp\ninner_rule = fang\ndp_sigma = 0.01": (
        "3992f14e7ee2e6a23e20193d45527faa607e1b1ddfa1c359f5ca2ffdf5c49a3d",
        "b7f043973939f18deaec0c85beac54d2cd13c64690dba297b6d52ffd1b66559e",
    ),
    "rule = fang\nasync = false": (
        "eedb2048b6fe34907e48f3898ccd0610628ceb6470fc5bf83c892aceb803819c",
        "f8018d28108b308bd3ed1b1c7c400121d2bd0ad1bf8f9560536d4c005bc3af7c",
    ),
}


# the same config at tau_max = 0, recorded while every client dispatched
# on its own; now every dispatch segment holds one client
ASYNC_ZERO_DELAY_DIGESTS = {
    "rule = atm": (
        "2bacb4038f62c692ad68e62d6d8e0360fc742d1eb029b53ceb5b148966ced831",
        "176655c893614925bbd2dc8ad1013a7321d9461145ef6301071f40023aa3a635",
    ),
    "rule = multi_krum": (
        "7cbf17f82afee91797ee36302abf73c64ae3e79632c036f9b3147e5f95c05bdc",
        "04832847ec88744b217f7e42205427605621b41d06edd89027911401030d34b9",
    ),
    "rule = fang\nfang_mode = lfr": (
        "9a89bfaba58bfa7b5afa9e53efccf1cbd7e93139bda882b925c4aa0a22ba9591",
        "42b33d5d27d20fd6776e59ead66d8d85641a2aa100742e7a8003c2e9ab902b84",
    ),
}


def run_digests(tmp_path, monkeypatch, text):
    """The sha256 of the rounds.csv and summary.json a `run` of `text`
    writes, and the sha256 of its final model's `params.flat` bytes (the
    model the run's last `_step` returns)."""
    models = []

    def keeping(*args):
        params, outcome = step(*args)
        models[:] = [params]
        return params, outcome

    step = eng._step
    monkeypatch.setattr(eng, "_step", keeping)
    cfg = tmp_path / "cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    h = hashlib.sha256()
    for name in ("rounds.csv", "summary.json"):
        h.update((out / name).read_bytes())
        h.update(b"\0")
    return h.hexdigest(), hashlib.sha256(models[0].flat.tobytes()).hexdigest()


class TestAsyncKrumGolden:
    @pytest.mark.parametrize("rule_lines", list(ASYNC_KRUM_DIGESTS))
    def test_outputs_match_recorded_digest(self, tmp_path, monkeypatch, rule_lines):
        digests = run_digests(tmp_path, monkeypatch, ASYNC_KRUM + rule_lines + "\n")
        assert digests == ASYNC_KRUM_DIGESTS[rule_lines]

    @pytest.mark.parametrize("rule_lines", list(ASYNC_ZERO_DELAY_DIGESTS))
    def test_zero_delay_matches_recorded_digest(self, tmp_path, monkeypatch, rule_lines):
        segments = []

        def recording(world, t, segment, *args):
            segments.append(len(segment))
            return client_updates(world, t, segment, *args)

        client_updates = eng._client_updates
        monkeypatch.setattr(eng, "_client_updates", recording)
        text = ASYNC_KRUM.replace("tau_max = 3", "tau_max = 0") + rule_lines + "\n"
        assert run_digests(tmp_path, monkeypatch, text) == ASYNC_ZERO_DELAY_DIGESTS[rule_lines]
        assert segments and set(segments) == {1}


# the ASYNC_KRUM config under crafts no perfbench cell runs, recorded
# before the crafter's steps became one public function each
CRAFT_DIGESTS = {
    "async = false\nattack = adaptive\nrule = atm": (
        "81cd72cd22acd64f20c026fdcb57dd28dd1732dc50de44560ce4d6e81b781a57",
        "be35b72a4f108fec8ee28263646e9071bb8d293ed6ecef662a02eec082fa9449",
    ),
    "attack = adaptive\nrule = atm": (
        "f6cebe893b509fe0623362bde85586059cf043b0b9b83256899c009dab37101b",
        "2d157d181c8f301e577706affbaa4ddca43e9bb7f676e2ac188021ad6e96165d",
    ),
    "async = false\nattack = agrevader": (
        "6fc5815987294ab727790fd4c51f969de6b50534ac6b70c140d9f6c3e501c84a",
        "e9e46a59135b0bd6dd5843740a4d2dc4ffd368726ba0a9a0acdd953804892e83",
    ),
    "async = false\nknowledge = partial\nrule = atm": (
        "fcc1c361e27edbf936e59cd7e36b404c2613e4d519f40bfddd5bd1580e2d32b1",
        "4d182fb3ecf694a4e03d2ccc95b2519eff8728871909a5672eb659e97c39caad",
    ),
    # async agrevader, recorded before it took Krum's squared distances
    "attack = agrevader": (
        "5a2577e9c5f0dc577c9662dfd3fda96f98e995796adff3cf50648b71c241c00b",
        "6b6e2d19c60c3eaace74a56e5ea8e0efddf30279afcae478339f606621337ef6",
    ),
    "attack = agrevader\nrule = multi_krum": (
        "a1be6f6cbebeb9587a793513e3f9274dfe43b51f4a3393e00f143b165f3dc53e",
        "acf3bb0ae33d5834913010b80a92c585591f31786ba65a44a0196c1088aea11b",
    ),
    # sync full-knowledge fedpoisonmia: the crafter's greedy steps and
    # alpha grid against one round's benign rows
    "async = false\nrule = atm": (
        "7f51c043819a7776a4b323b19b4880658518eb4049f7842bea11cd16dafb7c77",
        "2c65a44e7449adc1eca827bf974f8cf3ffa82a27137a206a4e0492fd8670d505",
    ),
    # spread = 0: every example of a class is the same, so mask candidates
    # tie and the crafter rescores per pair (60 rescores in 21 async
    # crafts, 24 in 12 sync ones; the default spread makes none)
    "spread = 0\nrule = atm": (
        "bae513131e55d95373aa27741e40c81a7620bc2f52a0b632f87c4e45e1b2ffb9",
        "0ea0bea60fbb416fda5e7d32e1b5ed0bcf87db6e97905b5e9a292fcdd900f49b",
    ),
    "async = false\nspread = 0\nrule = atm": (
        "9518778d99c02b3ad7572e8e382d2634e57637cb38fcb4dfe574d4b3a2371911",
        "ce76113e080904b638d5ee4be4173f4c26a02c333a5bb9abd8321958f19891df",
    ),
}


class TestCraftGolden:
    @pytest.mark.parametrize("lines", list(CRAFT_DIGESTS))
    def test_outputs_match_recorded_digest(self, tmp_path, monkeypatch, lines):
        digests = run_digests(tmp_path, monkeypatch, ASYNC_KRUM + lines + "\n")
        assert digests == CRAFT_DIGESTS[lines]


# the ASYNC_KRUM config under the rules, attacks, partition and dataset no
# other golden runs: fedavg, median and trimmed_mean (three of the four
# sync-attack rules), the attacks that craft nothing, noniid shards, and a
# CSV file ("csv" reads the blobs save_csv writes to tmp_path)
MODE_DIGESTS = {
    "async = false\nrule = fedavg": (
        "d2a618343067f75e6da790e5881a0e124f6d6480b3ce48b0a4bc2818207d6f07",
        "8dac8c5bc83bb9306bd9cb1622cdc1a4416af57f8534c588c9cca5631aa0f7eb",
    ),
    "async = false\nrule = median": (
        "a94b3545e74c797da7b22e0f907ab6ac547d0c736695d7d745f8808ce7ff57b5",
        "33b9183afaf20eac5d767b762a6dc02d354eb561bfb5df80374b3be502c9d015",
    ),
    "async = false\nrule = trimmed_mean\ntrim_b = 2": (
        "2433ca57f86033ac65811894874cb8f2164d7b562485b7e20604cbb0feaa8a2f",
        "e89a0f9bc7a1c26b6a9a07167abc4672b7b04d350139f28d5ccb4cbcf96b4858",
    ),
    "attack = none\nrule = median": (
        "d9fda7f8234377b2cb87a9620baeb64116c345f8731b64f43858cb47d69a2a3c",
        "e72914298b32eeb7f9a2a1172f89cad90c3121f3af378eb2642f87eb9710b1f8",
    ),
    "attack = passive\nrule = trimmed_mean": (
        "3b36af1cd9c484e44e3aaa84a1f6b2355be2d62292e48b4c49e96be8364de3b7",
        "cc83c227189b9852aa9c944d5d24d866ab3a6dda89c90808e854c3aefe8eb3d9",
    ),
    "attack = gradient_ascent\nrule = atm": (
        "7d4e89bc46c9647c6b81d61ddffccf61283eae6723a7765763f9e8e8da5215d1",
        "e710cbb5b6dc4214ff0ebd6b5d84d81ba55ec8b7a7b554365a049e128e6657b5",
    ),
    "async = false\npartition = noniid\nrule = atm": (
        "637c644d6d3115a2a25a2c6addd8012e750843e131e430d5cd12dd5f98d12508",
        "4f2b6b5fd01d6fd5a8113e97f4eeb01f36f0bc1ff93992d400a865dfff2306e2",
    ),
    "csv": (
        "c2b69916d3d3257794512dd1ff0c4064ff33b1260e468d7b896c03e061237f59",
        "8f90d929de84ce37e3bb74d8635776a354d4f8dade1810159792c2abb5f6efb7",
    ),
}


# perfbench's async-robust cells at seed 0, cut to 4 rounds: the only
# goldens whose buffer holds 50 rows, where async Krum's kept block and
# fang's pre-scaled products act (every other golden holds at most 12)
ASYNC_ROBUST = """n_clients = 50
malicious_fraction = 0.1
C = 0.8
rounds = 4
lr = 0.1
batch_size = 6
gamma = 0.3
classes = 3
features = 64
per_class = 500
spread = 0.6
n_attack = 20
n_mask = 16
attack = passive
tau_max = 5
async = true
seed = 0
"""
ASYNC_ROBUST_DIGESTS = {
    "rule = atm\ntrim_b = 5": (
        "b8b83157545cc573dad572337b66c0bd95c3e14a806794df9fbc0b348198c7f4",
        "8b61a04945594be54f07beaf8e28ce588c122d6485b94d3bcdb4c6e2679fe52e",
    ),
    "rule = fang\nfang_mode = lfr": (
        "872465ce2013768263fb3f20994864eb699276c39450d5b5e7c378f2d59470c0",
        "9d60ceeeafd74f2da66d0f42bb85cc587ddb7cc5eae6c484d7321cb63ee97823",
    ),
    "rule = multi_krum\nkrum_f = 5": (
        "3e8fb924afaf184fc7cff3fa378bc026427e40f667c43f6cb08b7ecfc27c18e9",
        "25ebe28fbc8ddd951716cdc3a3d2826cbe6900ad2593ffcd030cc2b72ff01aa2",
    ),
}


class TestModeGolden:
    @pytest.mark.parametrize("lines", list(MODE_DIGESTS))
    def test_outputs_match_recorded_digest(self, tmp_path, monkeypatch, lines):
        text = lines
        if lines == "csv":
            path = tmp_path / "blobs.csv"
            data.save_csv(data.synth_dataset(4, 6, 30, 0.5, 9), path)
            text = f"async = false\nrule = atm\ndataset = csv\ncsv_path = {path}"
        digests = run_digests(tmp_path, monkeypatch, ASYNC_KRUM + text + "\n")
        assert digests == MODE_DIGESTS[lines]

    @pytest.mark.parametrize("lines", list(ASYNC_ROBUST_DIGESTS))
    def test_async_robust_cell_matches_recorded_digest(self, tmp_path, monkeypatch, lines):
        digests = run_digests(tmp_path, monkeypatch, ASYNC_ROBUST + lines + "\n")
        assert digests == ASYNC_ROBUST_DIGESTS[lines]


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
