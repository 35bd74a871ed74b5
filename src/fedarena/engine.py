"""Training orchestration: synchronous and asynchronous federated rounds
with configurable attacks and defenses, plus the membership metrics.

Malicious clients take the highest client ids, so dispatching a round in
ascending id order always computes benign gradients before the attacker
crafts (the attacker needs those references in full-knowledge mode). All
stochastic choices draw from tagged substreams of the experiment seed, so
two runs of the same config are bit-identical.

Dispatch: both loops draw a round's updates from `_client_updates`, one
dispatch segment at a time: consecutive participants that share one
model. A sync round is one segment. In async every delay is drawn first
(each is a pure function of seed, round and client), and a segment ends
after each zero-delay client, whose arrival steps the model. A benign
client, and any client under `none`/`passive`, sends its shard gradient;
the segment's gradients come from one `mlp.gradients` backprop per batch
size, each row bitwise its client's `mlp.gradient`. A benign one is also
recorded as the attacker's reference for its id. The malicious clients of
a segment send one crafted update, built once against the references held
after the segment's benign gradients (a sync round's benign gradients; in
async the freshest benign gradient per client). Their ids are the
highest, so this is the view each would see if dispatched alone, and a
craft depends only on the model, the round and the references. Sync
therefore crafts once per round, async once per segment. Rows held past
a segment (the attacker's view, the async queue) are owned copies, so
none pins the segment's gradient matrix. Both loops step the model
through `_step`.

Async semantics: each round dispatches the selected clients in id order;
every update arrives after an integer delay uniform on {0..tau_max} and
is applied individually, re-aggregating the most recent update buffered
per client (stale entries retained). Arrivals queued from earlier rounds
are applied before the current round's dispatches; a delay of zero means
the update is applied immediately, before the next client dispatches.
Trim-style rules clamp their parameters while the buffer is still
smaller than they require. The buffer is one (n_clients, d) matrix with a
row per client id. Under atm it also keeps each row's unit vector and the
(n_clients, n_clients) angles between the rows (`vectors.angles_to`);
under multi_krum, the squared distances between them
(`vectors.sq_distances_to`). An arrival rewrites only its client's row and
column, at O(n*d) instead of the O(n^2*d) a recompute costs. Under fang it
keeps each row's (v, h) first-layer product with the validation examples
(`mlp.input_products`, the block fang scores every leave-one-out
candidate from), and an arrival computes only its client's block. Each
entry depends only on its own rows, and the fresh path runs the same
kernel per row, so a kept block is bitwise the recompute and no choice of
atm, Krum or fang changes.
"""

import math
from dataclasses import dataclass, field, replace
from functools import partial, reduce

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
    mask_budget,
    passive_infer,
)
from .errors import EmptyFile, EmptyHistory, EmptySet, InvalidC, InvalidConfig, ParseError
from .rngstream import derive_seed, substream
from .vectors import NORM_FLOOR, angles_to, sq_distances_to, unit_rows

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


def _rows_kind(rule: AggregationRule) -> str:
    """The kind that aggregates the rows: dp|topk hand them to their inner
    kind, which reads the rule's knobs."""
    return rule.inner if rule.kind in ("dp", "topk") else rule.kind


def _rejected(cfg: ExperimentConfig, path: str, need: str) -> InvalidConfig:
    value = reduce(getattr, path.split("."), cfg)
    error = InvalidC if path == "participation" else InvalidConfig
    return error(f"{path} = {value!r}, need {need}", path)


def validate_config(cfg: ExperimentConfig) -> None:
    """The range check of every config field the config alone decides:
    raises InvalidConfig (InvalidC for participation) carrying the dotted
    field path of the first rejected value. The values judged against the
    data (the split, the partition, the attacker's samples and the model
    dimension) are checked by `build_world`."""
    rule, attack = cfg.rule, cfg.attack
    fractions = cfg.train_fraction + cfg.holdout_fraction + cfg.val_fraction
    # a sync round aggregates every participant, async runs clamp trim_b
    # and the Krum keys to the buffer
    kind = _rows_kind(rule)
    trims = kind in ("trimmed_mean", "atm")
    krum = kind == "multi_krum"
    valid_c = 0 < cfg.participation <= 1
    per_round = participant_count(cfg.n_clients, cfg.participation) if valid_c else 0
    # the fewest references a fedpoisonmia|adaptive craft can get: the
    # malicious shards' proxies, or under full knowledge a round's benign
    # participants when every malicious client is selected
    n_mal = num_malicious(cfg)
    refs = n_mal if attack.knowledge == "partial" else per_round - n_mal
    crafts_on_refs = attack.kind in ("fedpoisonmia", "adaptive")
    checks = (
        ("rule.inner", rule.inner in RULE_KINDS and rule.inner not in ("dp", "topk"),
         f"one of {RULE_KINDS} other than dp|topk"),
        ("attack.alpha_min", 0 < attack.alpha_min <= attack.alpha_max and attack.alpha_points >= 1,
         "0 < alpha_min <= alpha_max, alpha_points >= 1"),
        ("participation", valid_c, "in (0, 1]"),
        ("malicious_fraction", 0 <= cfg.malicious_fraction < 0.5, "in [0, 0.5)"),
        ("rule.kind", rule.kind in RULE_KINDS, f"one of {RULE_KINDS}"),
        ("attack.kind", attack.kind in ATTACK_KINDS, f"one of {ATTACK_KINDS}"),
        ("attack.mask_fraction", attack.kind == "none" or 0 < attack.mask_fraction < 1,
         "in (0, 1) under an attack"),
        ("attack.knowledge", attack.knowledge in ("full", "partial"), "full|partial"),
        ("dataset", cfg.dataset in ("synthetic", "csv"), "synthetic|csv"),
        ("csv_path", cfg.dataset != "csv" or cfg.csv_path != "", "a file path under dataset = csv"),
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
        ("train_fraction", cfg.train_fraction > 0, "positive"),
        ("holdout_fraction", cfg.holdout_fraction >= 0, ">= 0"),
        ("val_fraction", cfg.val_fraction >= 0, ">= 0"),
        ("train_fraction", fractions < 1, "room for a test split after holdout and val"),
        ("n_clients", cfg.n_clients >= 1, ">= 1"),
        ("batch_size", cfg.batch_size >= 1, ">= 1"),
        ("seed", cfg.seed >= 0, ">= 0"),
        ("rule.dp_sigma", rule.dp_sigma >= 0, ">= 0"),
        ("rule.kind", kind not in ("atm", "fang") or cfg.asynchronous or per_round >= 2,
         f">= 2 updates per synchronous round, got {per_round}"),
        ("rule.trim_b", not trims or rule.trim_b >= 0, ">= 0"),
        ("rule.trim_b", not trims or cfg.asynchronous or 2 * rule.trim_b < per_round,
         f"2*trim_b < {per_round} updates per synchronous round"),
        ("rule.krum_f", not krum or rule.krum_f >= 0, ">= 0"),
        ("rule.krum_f", not krum or cfg.asynchronous or rule.krum_f <= per_round - 2,
         f"krum_f + 2 <= {per_round} updates per synchronous round"),
        ("rule.krum_count", not krum or rule.krum_count >= 0, ">= 0 (0 means n - krum_f)"),
        ("rule.krum_count", not krum or cfg.asynchronous or rule.krum_count <= per_round,
         f"krum_count <= {per_round} updates per synchronous round"),
        ("rule.fang_remove", kind != "fang" or rule.fang_remove >= 0, ">= 0"),
        ("rule.top_k", rule.kind != "topk" or rule.top_k >= 0, ">= 0 (0 keeps every dimension)"),
        # a craft needs 2 references, a mask sample and a nonempty mask budget
        ("attack.knowledge", not crafts_on_refs or refs >= 2,
         ">= 2 malicious clients" if attack.knowledge == "partial" else
         f">= 2 benign participants in a round that selects every malicious client, "
         f"got {per_round} - {n_mal}"),
        # the adaptive attacker trims at least 1 per side, among its
        # references and its own update
        ("rule.trim_b", attack.kind != "adaptive" or 2 * max(rule.trim_b, 1) < refs + 1,
         f"2*max(trim_b, 1) < {refs + 1}, the adaptive attacker's references and update"),
        ("malicious_fraction", n_mal >= 1 or attack.kind not in ("agrevader", "fedpoisonmia"),
         f"floor(malicious_fraction * {cfg.n_clients}) >= 1, a malicious shard to draw "
         "mask samples from under agrevader|fedpoisonmia"),
        ("n_mask", cfg.n_mask >= 1 or attack.kind not in ("agrevader", "fedpoisonmia"),
         ">= 1 under agrevader|fedpoisonmia"),
        ("attack.mask_fraction", attack.kind != "fedpoisonmia"
         or mask_budget(attack.mask_fraction, cfg.n_mask) >= 1,
         f"a mask budget of at least 1 of the {cfg.n_mask} mask samples"),
    )
    for path, ok, need in checks:
        if not ok:
            raise _rejected(cfg, path, need)


def num_malicious(cfg: ExperimentConfig) -> int:
    if cfg.attack.kind == "none":
        return 0
    return math.floor(cfg.malicious_fraction * cfg.n_clients + 1e-9)


def participant_count(n: int, participation: float) -> int:
    """ceil(C*n), nudged so 0.55 * 100 style products stay exact."""
    return math.ceil(participation * n - 1e-9)


def select_clients(n: int, participation: float, round_idx: int, seed: int) -> np.ndarray:
    """ceil(C*n) distinct client ids, uniform, deterministic per (seed, round)."""
    if not 0 < participation <= 1:
        raise InvalidC(f"participation {participation} outside (0, 1]")
    rng = substream(seed, "select", round_idx)
    return np.sort(rng.choice(n, size=participant_count(n, participation), replace=False))


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
    malicious_ids: tuple[int, ...]
    attack_ctx: AttackerContext | None


def build_world(cfg: ExperimentConfig, load_csv=None) -> _World:
    """Materialise the config's world. After `validate_config`, this is the
    one judge of the values checked against the data: the CSV file
    (`csv_path`: unreadable, malformed or empty), the split (an empty
    validation split under fang), the partition (`n_clients`), the
    attacker's samples (`n_attack`, `n_mask`) and the model dimension
    (`top_k`). Each rejected value raises InvalidConfig naming its field.
    `load_csv(path)` parses the CSV dataset (default `data.load_csv`)."""
    validate_config(cfg)
    if cfg.dataset == "csv":
        try:
            base = (load_csv or datamod.load_csv)(cfg.csv_path)
        except (OSError, UnicodeDecodeError, ParseError, EmptyFile) as exc:
            raise _rejected(cfg, "csv_path", f"a readable label,f1,...,fp file: {exc}") from None
    else:
        base = datamod.synth_dataset(
            cfg.classes, cfg.features, cfg.per_class, cfg.spread, cfg.seed
        )

    perm = substream(cfg.seed, "split").permutation(base.size)
    fractions = (cfg.train_fraction, cfg.holdout_fraction, cfg.val_fraction)
    n_train, n_hold, n_val = (int(base.size * f) for f in fractions)
    train = datamod.take(base, perm[:n_train])
    holdout = datamod.take(base, perm[n_train : n_train + n_hold])
    val = datamod.take(base, perm[n_train + n_hold : n_train + n_hold + n_val])
    test = datamod.take(base, perm[n_train + n_hold + n_val :])
    if _rows_kind(cfg.rule) == "fang" and n_val == 0:
        need = f"a validation example under fang, int({base.size} * val_fraction) >= 1"
        raise _rejected(cfg, "val_fraction", need)

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

    params0 = mlp.init_params(
        ((train.feature_dim, HIDDEN_WIDTH), (HIDDEN_WIDTH, train.num_classes)),
        derive_seed(cfg.seed, "init"),
    )
    if cfg.rule.kind == "topk" and cfg.rule.top_k > params0.dim:
        raise _rejected(cfg, "rule.top_k", f"<= {params0.dim}, the model dimension")
    ctx = None
    if cfg.attack.kind in ("agrevader", "fedpoisonmia", "adaptive"):
        ctx = AttackerContext(
            attack_features=attacker.attack_features,
            attack_labels=attacker.attack_labels,
            mask_features=attacker.mask_features,
            mask_labels=attacker.mask_labels,
            mask_fraction=cfg.attack.mask_fraction,
            alpha_grid=cfg.attack.alpha_grid,
            flipped_labels=flip_labels(
                attacker.attack_labels, train.num_classes, derive_seed(cfg.seed, "flip")
            ),
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
        malicious_ids=malicious_ids,
        attack_ctx=ctx,
    )


def _batch_indices(world: _World, round_idx: int, client: int) -> np.ndarray:
    shard = world.shards[client]
    size = min(world.cfg.batch_size, shard.size)
    rng = substream(world.cfg.seed, "batch", round_idx, client)
    return np.sort(rng.choice(shard, size=size, replace=False))


def _shard_gradients(world: _World, params, round_idx: int, clients) -> list[np.ndarray]:
    """Each client's round-`round_idx` batch gradient under `params`, in
    order: one `mlp.gradients` call per batch size (a shard smaller than
    batch_size draws a smaller batch). Every row is an owned copy, so a row
    held past the round pins no other client's."""
    batches = [_batch_indices(world, round_idx, k) for k in clients]
    by_size: dict[int, list[int]] = {}
    for i, idx in enumerate(batches):
        by_size.setdefault(idx.size, []).append(i)
    grads = [None] * len(batches)
    for members in by_size.values():
        idx = np.stack([batches[i] for i in members])
        G = mlp.gradients(params, world.train.features[idx], world.train.labels[idx])
        for i, g in zip(members, G):
            grads[i] = g.copy()
    return grads


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
    """One crafted update for the model `params`, against the references
    `benign_grads` (or, under partial knowledge, the malicious shards)."""
    cfg = world.cfg
    kind = cfg.attack.kind
    att = world.attacker
    if kind == "gradient_ascent":
        return craft_gradient_ascent(
            params, att.attack_features, att.attack_labels, cfg.attack.ga_scale
        )
    proxies = []
    if cfg.attack.knowledge == "partial":
        proxies = _shard_gradients(world, params, round_idx, world.malicious_ids)
    refs = attacker_references(cfg.attack.knowledge, benign_grads, proxies)
    if kind == "fedpoisonmia":
        result = craft_fedpoisonmia(world.attack_ctx, params, refs)
        if craft_observer is not None:
            craft_observer(round_idx, result, [np.array(r) for r in refs])
        return result.g_malicious
    flipped = world.attack_ctx.flipped_labels
    if kind == "agrevader":
        return craft_agrevader(
            params,
            att.attack_features,
            flipped,
            att.mask_features,
            att.mask_labels,
            refs,
        )
    if kind == "adaptive":
        g_attack = attack_gradient(params, att.attack_features, flipped)
        return craft_adaptive(refs, g_attack, max(cfg.rule.trim_b, 1))
    raise InvalidConfig(f"unknown attack kind {kind!r}")


def _client_updates(world: _World, t: int, segment, view, params, craft_observer=None):
    """(client, update) per client of a dispatch segment, in id order: the
    clients dispatched against the one model `params` (see the module
    docstring). `view` maps client id -> benign reference and gains the
    segment's benign gradients before the segment's one craft."""
    crafts = world.cfg.attack.kind not in ("none", "passive")
    sends_gradient = [k for k in segment if not (crafts and k in world.malicious_ids)]
    grads = dict(zip(sends_gradient, _shard_gradients(world, params, t, sends_gradient)))
    view.update((k, g) for k, g in grads.items() if k not in world.malicious_ids)
    if len(grads) < len(segment):
        refs = [view[i] for i in sorted(view)]
        crafted = _craft_update(world, params, t, refs, craft_observer)
        return [(k, grads.get(k, crafted)) for k in segment]
    return [(k, grads[k]) for k in segment]


def _step(world: _World, rule, params, order, G, seed_tag, block=None):
    """Aggregate the rows `G` of clients `order` and apply the aggregate to
    `params`; returns the new model and the AggregationOutcome. `block` is
    the buffer's block for the rule (see `apply_rule`). The step's seed is
    derived for dp only, the one rule that draws from it."""
    outcome = apply_rule(
        rule,
        G,
        world.shard_sizes[order],
        seed=derive_seed(world.cfg.seed, "agg", seed_tag) if rule.kind == "dp" else 0,
        params=params,
        val_features=world.val.features,
        val_labels=world.val.labels,
        lr=world.cfg.lr,
        block=block,
    )
    return mlp.apply_update(params, outcome.aggregate, world.cfg.lr), outcome


def _record(world: _World, params, round_idx, participants, diagnostics) -> RoundRecord:
    preds = passive_infer(params, world.attacker.attack_features, world.attacker.attack_labels)
    return RoundRecord(
        round=round_idx,
        test_acc=test_accuracy(params, world.test.features, world.test.labels),
        membership_preds=preds,
        participants=tuple(int(k) for k in participants),
        diagnostics=diagnostics,
    )


def _finish(world: _World, records: list[RoundRecord]) -> ExperimentResult:
    truth = world.attacker.member_flags
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
    records: list[RoundRecord] = []
    for t in range(cfg.rounds):
        participants = select_clients(cfg.n_clients, cfg.participation, t, cfg.seed)
        # one segment; a fresh view: the attacker references this round's
        # benign gradients
        updates = _client_updates(world, t, participants.tolist(), {}, params, craft_observer)
        order = [k for k, _ in updates]
        G = np.stack([g for _, g in updates])
        params, outcome = _step(world, cfg.rule, params, order, G, t)
        records.append(_record(world, params, t, participants, {"kept": outcome.kept_indices}))
    return _finish(world, records)


def _draw_delay(rng: np.random.Generator, tau_max: int) -> int:
    return int(rng.integers(0, tau_max + 1))


def _clamp_rule(rule: AggregationRule, size: int) -> AggregationRule:
    """Shrink trim/selection knobs to a warm-up buffer (under dp|topk, the inner kind's)."""
    at = "inner" if rule.kind in ("dp", "topk") else "kind"
    kind = getattr(rule, at)
    if size < 2 and kind in ("atm", "fang", "multi_krum", "median", "trimmed_mean"):
        return replace(rule, **{at: "fedavg"})
    if kind in ("trimmed_mean", "atm"):
        return replace(rule, trim_b=min(rule.trim_b, (size - 1) // 2))
    if kind == "multi_krum":
        f, count = min(rule.krum_f, size - 2), min(rule.krum_count, size)
        return replace(rule, krum_f=f, krum_count=count)
    return rule


class UpdateBuffer:
    """The latest update of each client, one row per client id, plus the
    block the top-level rule `kind` reads, kept one client per arrival (see
    the module docstring): the angles between the rows held under atm (with
    each row's unit vector), their squared distances under multi_krum, or
    under fang each row's validation first-layer product (`products`, a
    function of one row: `mlp.input_products` bound to the validation
    examples)."""

    def __init__(self, n_clients: int, dim: int, kind: str = "fedavg", products=None):
        self.rows = np.zeros((n_clients, dim))
        self.held = np.zeros(n_clients, dtype=bool)
        self.pairs = np.zeros((n_clients, n_clients)) if kind in ("atm", "multi_krum") else None
        self.units = np.zeros((n_clients, dim)) if kind == "atm" else None
        self.degenerate = np.zeros(n_clients, dtype=bool) if kind == "atm" else None
        self.product_of = products if kind == "fang" else None
        self.products = None  # (n_clients, v, h), allocated at the first put

    def put(self, client: int, g: np.ndarray):
        """Store `g` as the client's update. Returns the ids held (ascending),
        their rows and their block of the kept cache (None if none is kept).
        Once every client is held the rows and the block come back as
        views, valid until the next put."""
        self.rows[client] = g
        self.held[client] = True
        full = self.held.all()
        order = np.flatnonzero(self.held)
        G = self.rows if full else self.rows[order]
        if self.product_of is not None:
            block = self.product_of(self.rows[client])
            if self.products is None:
                self.products = np.zeros((self.held.size,) + block.shape)
            self.products[client] = block
            return order, G, self.products if full else self.products[order]
        if self.pairs is None:
            return order, G, None
        if self.units is None:
            row = sq_distances_to(G, self.rows[client])
        else:
            unit, norm = unit_rows(self.rows[client : client + 1])
            self.units[client] = unit[0]
            self.degenerate[client] = norm[0] <= NORM_FLOOR
            U = self.units if full else self.units[order]
            row = angles_to(U, self.degenerate[order], unit[0], self.degenerate[client])
        self.pairs[client, order] = row
        self.pairs[order, client] = row
        self.pairs[client, client] = 0.0  # a unit row's angle to itself need not round to 0
        return order, G, self.pairs if full else self.pairs[np.ix_(order, order)]


def run_async(cfg: ExperimentConfig, craft_observer=None) -> ExperimentResult:
    """Event-queue simulation: updates arrive with integer delays and each
    arrival re-aggregates the per-client buffer and steps the model."""
    world = build_world(cfg)
    params = world.params0
    # only a top-level atm, multi_krum or fang reads a kept block; dp|topk
    # change the rows first
    products = None
    if cfg.rule.kind == "fang":
        products = partial(mlp.input_products, world.val.features, layer_shapes=params.layer_shapes)
    buffer = UpdateBuffer(cfg.n_clients, params.flat.size, cfg.rule.kind, products)
    attacker_view: dict[int, np.ndarray] = {}  # freshest benign gradient per client
    pending: dict[int, list[tuple[int, int, np.ndarray]]] = {}
    records: list[RoundRecord] = []

    def apply_arrival(t_now: int, t_dispatch: int, client: int, g: np.ndarray, staleness_log):
        nonlocal params
        order, G, block = buffer.put(client, g)
        rule = _clamp_rule(cfg.rule, order.size)
        params, outcome = _step(world, rule, params, order, G, (t_now, len(staleness_log)), block)
        staleness_log.append(t_now - t_dispatch)
        return outcome

    for t in range(cfg.rounds):
        staleness_log: list[int] = []
        last_outcome = None
        for t_disp, client, g in sorted(pending.pop(t, []), key=lambda e: (e[0], e[1])):
            last_outcome = apply_arrival(t, t_disp, client, g, staleness_log)
        participants = select_clients(cfg.n_clients, cfg.participation, t, cfg.seed)
        clients = participants.tolist()
        delays = [_draw_delay(substream(cfg.seed, "delay", t, k), cfg.tau_max) for k in clients]
        # a segment ends after each zero-delay client, whose arrival steps the model
        ends = [i + 1 for i, delay in enumerate(delays) if delay == 0]
        if not ends or ends[-1] < len(clients):
            ends.append(len(clients))
        for start, end in zip([0] + ends, ends):
            segment = clients[start:end]
            updates = _client_updates(world, t, segment, attacker_view, params, craft_observer)
            for (k, g), delay in zip(updates, delays[start:end]):
                if delay == 0:
                    last_outcome = apply_arrival(t, t, k, g, staleness_log)
                else:
                    pending.setdefault(t + delay, []).append((t, k, g))
        kept = last_outcome.kept_indices if last_outcome else ()
        diagnostics = {"kept": kept, "staleness": tuple(staleness_log)}
        records.append(_record(world, params, t, participants, diagnostics))
    return _finish(world, records)


def run(cfg: ExperimentConfig, craft_observer=None) -> ExperimentResult:
    """Run the config sync or async. `craft_observer(round, CraftResult,
    references)` fires once per fedpoisonmia craft, which is once per
    dispatch segment with a malicious client (see the module docstring),
    not once per malicious client."""
    if cfg.asynchronous:
        return run_async(cfg, craft_observer)
    return run_sync(cfg, craft_observer)
