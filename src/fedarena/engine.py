"""Training orchestration: synchronous and asynchronous federated rounds
with configurable attacks and defenses, plus the membership metrics.

Malicious clients take the highest client ids, so dispatching a round in
ascending id order always computes benign gradients before the attacker
crafts (the attacker needs those references in full-knowledge mode). All
stochastic choices draw from tagged substreams of the experiment seed, so
two runs of the same config are bit-identical.

Async semantics: each round dispatches the selected clients in id order;
every update arrives after an integer delay uniform on {0..tau_max} and
is applied individually, re-aggregating the most recent update buffered
per client (stale entries retained). Arrivals queued from earlier rounds
are applied before the current round's dispatches; a delay of zero means
the update is applied immediately, before the next client dispatches.
Trim-style rules clamp their parameters while the buffer is still
smaller than they require.
"""

import math
from dataclasses import dataclass, field, replace
from functools import reduce

import numpy as np

from . import data as datamod
from . import mlp
from .aggregation import KINDS as RULE_KINDS
from .aggregation import AggregationRule, apply_rule
from .attacks import KINDS as ATTACK_KINDS
from .attacks import (
    AttackerContext,
    AttackStrategy,
    attack_gradient,
    craft_adaptive,
    craft_agrevader,
    craft_fedpoisonmia,
    craft_gradient_ascent,
    flip_labels,
    passive_infer,
)
from .errors import (
    EmptyHistory,
    EmptySet,
    InvalidC,
    InvalidConfig,
)
from .rngstream import derive_seed, substream

HIDDEN_WIDTH = 32


@dataclass(frozen=True)
class ExperimentConfig:
    # federation
    n_clients: int = 10
    malicious_fraction: float = 0.1
    participation: float = 0.8  # fraction of clients selected per round
    lr: float = 0.01
    rounds: int = 200
    batch_size: int = 64
    rule: AggregationRule = field(default_factory=AggregationRule)
    attack: AttackStrategy = field(default_factory=AttackStrategy)
    # data
    dataset: str = "synthetic"  # synthetic|csv
    csv_path: str = ""
    classes: int = 3
    features: int = 64
    per_class: int = 100
    spread: float = 0.6
    partition: str = "iid"  # iid|noniid
    beta: float = 0.5
    train_fraction: float = 0.6
    holdout_fraction: float = 0.2
    val_fraction: float = 0.05
    n_attack: int = 20
    n_mask: int = 16
    # async
    asynchronous: bool = False
    tau_max: int = 5
    # reproducibility
    seed: int = 0


@dataclass(frozen=True)
class RoundRecord:
    round: int
    test_acc: float
    membership_preds: np.ndarray  # bool per eval sample
    participants: tuple[int, ...]
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ExperimentResult:
    records: tuple[RoundRecord, ...]
    member_flags: np.ndarray
    attack_acc: float
    attack_prec: float
    attack_rec: float
    final_test_acc: float


def validate_config(cfg: ExperimentConfig) -> None:
    """The one range check of every config field: raises InvalidConfig
    (InvalidC for participation) carrying the dotted field path of the
    first rejected value."""
    rule, attack = cfg.rule, cfg.attack
    fractions = cfg.train_fraction + cfg.holdout_fraction + cfg.val_fraction
    checks = (
        ("participation", 0 < cfg.participation <= 1, "in (0, 1]"),
        ("malicious_fraction", 0 <= cfg.malicious_fraction < 0.5, "in [0, 0.5)"),
        ("rule.kind", rule.kind in RULE_KINDS, f"one of {RULE_KINDS}"),
        ("attack.kind", attack.kind in ATTACK_KINDS, f"one of {ATTACK_KINDS}"),
        ("attack.mask_fraction", attack.kind == "none" or 0 < attack.mask_fraction < 1,
         "in (0, 1) under an attack"),
        ("attack.knowledge", attack.knowledge in ("full", "partial"), "full|partial"),
        ("dataset", cfg.dataset in ("synthetic", "csv"), "synthetic|csv"),
        ("partition", cfg.partition in ("iid", "noniid"), "iid|noniid"),
        ("beta", 0 < cfg.beta <= 1, "in (0, 1]"),
        ("rule.fang_mode", rule.fang_mode in ("err", "lfr"), "err|lfr"),
        ("lr", cfg.lr > 0, "positive"),
        ("rounds", cfg.rounds >= 1, ">= 1"),
        ("tau_max", cfg.tau_max >= 0, ">= 0"),
        ("classes", cfg.classes >= 2, ">= 2"),
        ("features", cfg.features >= 1, ">= 1"),
        ("per_class", cfg.per_class >= 1, ">= 1"),
        ("spread", cfg.spread >= 0, ">= 0"),
        ("n_attack", cfg.n_attack >= 1, ">= 1"),
        ("n_mask", cfg.n_mask >= 0, ">= 0"),
        ("train_fraction", 0 < fractions < 1, "room for a test split after holdout and val"),
        ("n_clients", cfg.n_clients >= 1, ">= 1"),
        ("batch_size", cfg.batch_size >= 1, ">= 1"),
        ("seed", cfg.seed >= 0, ">= 0"),
    )
    for path, ok, need in checks:
        if not ok:
            value = reduce(getattr, path.split("."), cfg)
            error = InvalidC if path == "participation" else InvalidConfig
            raise error(f"{path} = {value!r}, need {need}", path)


def num_malicious(cfg: ExperimentConfig) -> int:
    if cfg.attack.kind == "none":
        return 0
    return math.floor(cfg.malicious_fraction * cfg.n_clients + 1e-9)


def select_clients(n: int, participation: float, round_idx: int, seed: int) -> np.ndarray:
    """ceil(C*n) distinct client ids, uniform, deterministic per (seed, round)."""
    if not 0 < participation <= 1:
        raise InvalidC(f"participation {participation} outside (0, 1]")
    count = math.ceil(participation * n - 1e-9)
    rng = substream(seed, "select", round_idx)
    return np.sort(rng.choice(n, size=count, replace=False))


def test_accuracy(params: mlp.ModelParams, features, labels) -> float:
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if X.shape[0] == 0:
        raise EmptySet("test set is empty")
    return float(np.mean(mlp.predict_batch(params, X) == y))


def attack_accuracy(records, truth) -> float:
    """Best-round fraction of correct membership calls."""
    truth = np.asarray(truth, dtype=bool)
    if not records:
        raise EmptyHistory("no round records")
    return max(
        float(np.mean(r.membership_preds == truth)) for r in records
    )


def attack_precision_recall(records, truth) -> tuple[float, float]:
    """Precision and recall at the round attack_accuracy picked (earliest
    best round on ties). Precision is 0 when nothing is predicted member."""
    truth = np.asarray(truth, dtype=bool)
    if not records:
        raise EmptyHistory("no round records")
    if not truth.any():
        raise InvalidConfig("evaluation set has no actual members")
    correct = [int(np.sum(r.membership_preds == truth)) for r in records]
    best = records[int(np.argmax(correct))]
    preds = best.membership_preds
    tp = int(np.sum(preds & truth))
    predicted_pos = int(np.sum(preds))
    precision = tp / predicted_pos if predicted_pos else 0.0
    recall = tp / int(np.sum(truth))
    return float(precision), float(recall)


@dataclass(frozen=True)
class _World:
    """Everything a run needs, materialised once from the config."""

    cfg: ExperimentConfig
    params0: mlp.ModelParams
    train: datamod.Dataset
    shards: tuple[np.ndarray, ...]
    shard_sizes: np.ndarray
    holdout: datamod.Dataset
    val: datamod.Dataset
    test: datamod.Dataset
    attacker: datamod.AttackerData
    evalset: datamod.MembershipEvalSet
    malicious_ids: tuple[int, ...]
    attack_ctx: AttackerContext | None


def build_world(cfg: ExperimentConfig) -> _World:
    validate_config(cfg)
    if cfg.dataset == "csv":
        base = datamod.load_csv(cfg.csv_path)
    else:
        base = datamod.synth_dataset(
            cfg.classes, cfg.features, cfg.per_class, cfg.spread, cfg.seed
        )

    perm = substream(cfg.seed, "split").permutation(base.size)
    n_train = int(base.size * cfg.train_fraction)
    n_hold = int(base.size * cfg.holdout_fraction)
    n_val = int(base.size * cfg.val_fraction)
    train = datamod.take(base, perm[:n_train])
    holdout = datamod.take(base, perm[n_train : n_train + n_hold])
    val = datamod.take(base, perm[n_train + n_hold : n_train + n_hold + n_val])
    test = datamod.take(base, perm[n_train + n_hold + n_val :])

    if cfg.partition == "noniid":
        part = datamod.partition_noniid(train, cfg.n_clients, cfg.beta, cfg.seed)
    else:
        part = datamod.partition_iid(train, cfg.n_clients, cfg.seed)

    n_mal = num_malicious(cfg)
    malicious_ids = tuple(range(cfg.n_clients - n_mal, cfg.n_clients))
    n_mask = cfg.n_mask if cfg.attack.kind in ("agrevader", "fedpoisonmia") else 0
    attacker = datamod.build_attacker_data(
        part, train, holdout, malicious_ids, cfg.n_attack, n_mask, cfg.seed
    )
    evalset = datamod.eval_set(attacker)

    params0 = mlp.init_params(
        ((train.feature_dim, HIDDEN_WIDTH), (HIDDEN_WIDTH, train.num_classes)),
        derive_seed(cfg.seed, "init"),
    )
    ctx = None
    if cfg.attack.kind in ("agrevader", "fedpoisonmia", "adaptive"):
        ctx = AttackerContext(
            attack_features=attacker.attack_features,
            attack_labels=attacker.attack_labels,
            mask_features=attacker.mask_features,
            mask_labels=attacker.mask_labels,
            num_classes=train.num_classes,
            mask_fraction=cfg.attack.mask_fraction,
            alpha_grid=cfg.attack.alpha_grid,
            knowledge=cfg.attack.knowledge,
            flip_seed=derive_seed(cfg.seed, "flip"),
        )
    return _World(
        cfg=cfg,
        params0=params0,
        train=train,
        shards=part.shards,
        shard_sizes=np.array([s.size for s in part.shards], dtype=np.float64),
        holdout=holdout,
        val=val,
        test=test,
        attacker=attacker,
        evalset=evalset,
        malicious_ids=malicious_ids,
        attack_ctx=ctx,
    )


def _client_batch(world: _World, round_idx: int, client: int):
    shard = world.shards[client]
    size = min(world.cfg.batch_size, shard.size)
    rng = substream(world.cfg.seed, "batch", round_idx, client)
    idx = np.sort(rng.choice(shard, size=size, replace=False))
    return world.train.features[idx], world.train.labels[idx]


def _shard_gradient(world: _World, params, round_idx: int, client: int) -> np.ndarray:
    X, y = _client_batch(world, round_idx, client)
    return mlp.gradient(params, X, y)


def attacker_references(knowledge: str, benign_grads, proxy_grads):
    """Reference gradients per knowledge level. Partial knowledge sees only
    the proxies computed from the malicious clients' own shards."""
    if knowledge == "partial":
        return proxy_grads
    return benign_grads


def _craft_update(
    world: _World,
    params: mlp.ModelParams,
    round_idx: int,
    benign_grads: list[np.ndarray],
    craft_observer=None,
):
    """One crafted gradient shared by every malicious client this round."""
    cfg = world.cfg
    kind = cfg.attack.kind
    att = world.attacker
    if kind == "gradient_ascent":
        return craft_gradient_ascent(
            params, att.attack_features, att.attack_labels, cfg.attack.ga_scale
        )
    if cfg.attack.knowledge == "partial":
        proxies = [
            _shard_gradient(world, params, round_idx, k) for k in world.malicious_ids
        ]
    else:
        proxies = []
    refs = attacker_references(cfg.attack.knowledge, benign_grads, proxies)
    if kind == "fedpoisonmia":
        result = craft_fedpoisonmia(world.attack_ctx, params, refs)
        if craft_observer is not None:
            craft_observer(round_idx, result, [np.array(r) for r in refs])
        return result.g_malicious
    if kind == "agrevader":
        flipped = flip_labels(
            att.attack_labels, world.train.num_classes, world.attack_ctx.flip_seed
        )
        return craft_agrevader(
            params,
            att.attack_features,
            flipped,
            att.mask_features,
            att.mask_labels,
            refs,
        )
    if kind == "adaptive":
        flipped = flip_labels(
            att.attack_labels, world.train.num_classes, world.attack_ctx.flip_seed
        )
        g_attack = attack_gradient(params, att.attack_features, flipped)
        return craft_adaptive(refs, g_attack, max(cfg.rule.trim_b, 1))
    raise InvalidConfig(f"unknown attack kind {kind!r}")


def _aggregate(world: _World, rule, grads, weights, params, seed_tag):
    return apply_rule(
        rule,
        grads,
        weights,
        seed=derive_seed(world.cfg.seed, "agg", seed_tag),
        params=params,
        val_features=world.val.features,
        val_labels=world.val.labels,
        lr=world.cfg.lr,
    )


def _record(world: _World, params, round_idx, participants, diagnostics) -> RoundRecord:
    preds = passive_infer(params, world.evalset.features, world.evalset.labels)
    return RoundRecord(
        round=round_idx,
        test_acc=test_accuracy(params, world.test.features, world.test.labels),
        membership_preds=preds,
        participants=tuple(int(k) for k in participants),
        diagnostics=diagnostics,
    )


def _finish(world: _World, records: list[RoundRecord]) -> ExperimentResult:
    truth = world.evalset.member_flags
    prec, rec = attack_precision_recall(records, truth)
    return ExperimentResult(
        records=tuple(records),
        member_flags=truth,
        attack_acc=attack_accuracy(records, truth),
        attack_prec=prec,
        attack_rec=rec,
        final_test_acc=records[-1].test_acc,
    )


def run_sync(cfg: ExperimentConfig, craft_observer=None) -> ExperimentResult:
    """Synchronous rounds: all selected clients report, one aggregate step."""
    world = build_world(cfg)
    params = world.params0
    malicious = set(world.malicious_ids)
    passive_like = cfg.attack.kind in ("none", "passive")
    records: list[RoundRecord] = []
    for t in range(cfg.rounds):
        participants = select_clients(cfg.n_clients, cfg.participation, t, cfg.seed)
        grads: dict[int, np.ndarray] = {}
        benign_part = [int(k) for k in participants if k not in malicious]
        mal_part = [int(k) for k in participants if k in malicious]
        for k in benign_part:
            grads[k] = _shard_gradient(world, params, t, k)
        if mal_part:
            if passive_like:
                for k in mal_part:
                    grads[k] = _shard_gradient(world, params, t, k)
            else:
                g_mal = _craft_update(
                    world, params, t, [grads[k] for k in benign_part], craft_observer
                )
                for k in mal_part:
                    grads[k] = g_mal
        order = [int(k) for k in participants]
        G = np.stack([grads[k] for k in order])
        weights = world.shard_sizes[order]
        outcome = _aggregate(world, cfg.rule, G, weights, params, t)
        params = mlp.apply_update(params, outcome.aggregate, cfg.lr)
        records.append(
            _record(
                world,
                params,
                t,
                participants,
                {"kept": outcome.kept_indices},
            )
        )
    return _finish(world, records)


def _draw_delay(rng: np.random.Generator, tau_max: int) -> int:
    return int(rng.integers(0, tau_max + 1))


def _clamp_rule(rule: AggregationRule, size: int) -> AggregationRule:
    """Shrink trim/selection parameters to what a warm-up buffer supports."""
    if size < 2 and rule.kind in ("atm", "fang", "multi_krum", "median", "trimmed_mean"):
        return AggregationRule("fedavg")
    if rule.kind in ("trimmed_mean", "atm"):
        return replace(rule, trim_b=min(rule.trim_b, (size - 1) // 2))
    if rule.kind == "multi_krum":
        f = min(rule.krum_f, size - 2)
        if f < 0:
            return AggregationRule("fedavg")
        count = rule.krum_count if rule.krum_count > 0 else size - f
        return replace(rule, krum_f=f, krum_count=min(count, size))
    if rule.kind in ("dp", "topk"):
        inner = rule.inner if rule.inner is not None else AggregationRule("fedavg")
        return replace(rule, inner=_clamp_rule(inner, size))
    return rule


def run_async(cfg: ExperimentConfig, craft_observer=None) -> ExperimentResult:
    """Event-queue simulation: updates arrive with integer delays and each
    arrival re-aggregates the per-client buffer and steps the model."""
    world = build_world(cfg)
    params = world.params0
    malicious = set(world.malicious_ids)
    passive_like = cfg.attack.kind in ("none", "passive")
    buffer: dict[int, np.ndarray] = {}
    attacker_view: dict[int, np.ndarray] = {}  # freshest benign gradient per client
    pending: dict[int, list[tuple[int, int, np.ndarray]]] = {}
    records: list[RoundRecord] = []

    def apply_arrival(t_now: int, t_dispatch: int, client: int, g: np.ndarray, staleness_log):
        nonlocal params
        buffer[client] = g
        order = sorted(buffer)
        rule = _clamp_rule(cfg.rule, len(order))
        outcome = _aggregate(
            world,
            rule,
            np.stack([buffer[k] for k in order]),
            world.shard_sizes[order],
            params,
            (t_now, len(staleness_log)),
        )
        params = mlp.apply_update(params, outcome.aggregate, cfg.lr)
        staleness_log.append(t_now - t_dispatch)
        return outcome

    for t in range(cfg.rounds):
        staleness_log: list[int] = []
        last_outcome = None
        for t_disp, client, g in sorted(
            pending.pop(t, []), key=lambda e: (e[0], e[1])
        ):
            last_outcome = apply_arrival(t, t_disp, client, g, staleness_log)
        participants = select_clients(cfg.n_clients, cfg.participation, t, cfg.seed)
        for k in (int(k) for k in participants):
            if k in malicious and not passive_like:
                refs = [attacker_view[i] for i in sorted(attacker_view)]
                g = _craft_update(world, params, t, refs, craft_observer)
            else:
                g = _shard_gradient(world, params, t, k)
                if k not in malicious:
                    attacker_view[k] = g
            delay = _draw_delay(substream(cfg.seed, "delay", t, k), cfg.tau_max)
            if delay == 0:
                last_outcome = apply_arrival(t, t, k, g, staleness_log)
            else:
                pending.setdefault(t + delay, []).append((t, k, g))
        records.append(
            _record(
                world,
                params,
                t,
                participants,
                {
                    "kept": last_outcome.kept_indices if last_outcome else (),
                    "staleness": tuple(staleness_log),
                },
            )
        )
    return _finish(world, records)


def run(cfg: ExperimentConfig, craft_observer=None) -> ExperimentResult:
    if cfg.asynchronous:
        return run_async(cfg, craft_observer)
    return run_sync(cfg, craft_observer)
