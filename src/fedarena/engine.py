"""Training orchestration: synchronous and asynchronous federated rounds
with configurable attacks and defenses, plus the membership metrics.

Malicious clients take the highest client ids, so dispatching a round in
ascending id order always computes benign gradients before the attacker
crafts (the attacker needs those references in full-knowledge mode). All
stochastic choices draw from tagged substreams of the experiment seed, so
two runs of the same config are bit-identical. The draws the loops read
each round (participants, batches, async delays) are pure functions of
(seed, tag, round, client), so a run's `_DrawPlan` draws them a block of
rounds ahead, each kind in one vectorised `rngstream` pass that returns
bitwise what each stream's own Generator would.

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
smaller than they require. The buffer (`UpdateBuffer`) is one
(n_clients, d) matrix whose first k rows hold the k clients held so far,
compact in ascending id order: a client's row is its position in the
held order, and once every client is held, its id. An arrival overwrites
its client's row, or on its first arrival shifts the later rows down by
one, and the rule reads views of the first k rows, never a copy. Each
row is screened for NaN and Inf once, as it arrives; a sync round's
stacked matrix once, before its step. Under atm the buffer also keeps
each row's unit vector and the angles between the rows
(`vectors.angles_to`); under multi_krum, the squared distances between
them (`vectors.sq_distances_to`). An arrival rewrites only its client's
row and column, at O(n*d) instead of the O(n^2*d) a recompute costs.
Under fang it keeps each row's (v, h) first-layer product with the
validation examples (`mlp.input_products`, the block fang scores every
leave-one-out candidate from), and an arrival computes only its client's
block. Each entry depends only on its own rows, and the fresh path runs
the same kernel per row, so a kept block is bitwise the recompute and no
choice of atm, Krum or fang changes.
"""

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, partial, reduce

import numpy as np

from . import data as datamod
from . import mlp
from .aggregation import KINDS as RULE_KINDS
from .aggregation import AggregationRule, _Screened, apply_rule
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
from .errors import (
    DegenerateGradient,
    EmptyFile,
    EmptyHistory,
    EmptySet,
    InvalidC,
    InvalidConfig,
    ParseError,
)
from .rngstream import derive_seed, integers, keyed_words, sorted_choices, substream
from .vectors import NORM_FLOOR, _as_matrix, angles_to, sq_distances_to, unit_rows

HIDDEN_WIDTH = 32
# streams a draw plan draws per block of rounds, which bounds its memory
_PLAN_STREAMS = 512


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
    # the fewest references a craft can get: the malicious shards'
    # proxies, or under full knowledge a round's benign participants when
    # every malicious client is selected; an agrevader craft needs 1, a
    # fedpoisonmia|adaptive one 2
    n_mal = num_malicious(cfg)
    refs = n_mal if attack.knowledge == "partial" else per_round - n_mal
    need_refs = {"agrevader": 1, "fedpoisonmia": 2, "adaptive": 2}.get(attack.kind, 0)
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
        # a craft needs its references, a mask sample and a nonempty mask budget
        ("attack.knowledge", need_refs == 0 or refs >= need_refs,
         f">= {need_refs} malicious clients" if attack.knowledge == "partial" else
         f">= {need_refs} benign participants in a round that selects every malicious "
         f"client, got {per_round} - {n_mal}"),
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


def _selections(n: int, participation: float, rounds, seed: int) -> np.ndarray:
    """Row i: the participants of round rounds[i], np.sort(substream(seed,
    "select", round).choice(n, ceil(C*n), replace=False))."""
    words = keyed_words(seed, "select", [(t,) for t in rounds])
    return sorted_choices(words, [n] * len(words), participant_count(n, participation))


def select_clients(n: int, participation: float, round_idx: int, seed: int) -> np.ndarray:
    """ceil(C*n) distinct client ids, uniform, deterministic per (seed, round):
    the one-round form of the draw the loops read from their plan."""
    if not 0 < participation <= 1:
        raise InvalidC(f"participation {participation} outside (0, 1]")
    return _selections(n, participation, [round_idx], seed)[0]


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
    val: datamod.Dataset
    test: datamod.Dataset
    attacker: datamod.AttackerData
    malicious_ids: tuple[int, ...]
    attack_ctx: AttackerContext | None

    @cached_property
    def draws(self) -> "_DrawPlan":
        """The run's draw plan, made at its first read (never by `build_world`)."""
        return _DrawPlan(self.cfg, self.shards, self.malicious_ids)


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
        val=val,
        test=test,
        attacker=attacker,
        malicious_ids=malicious_ids,
        attack_ctx=ctx,
    )


class _DrawPlan:
    """A run's draws, one block of rounds at a time: each round's
    participants, the batch of each (round, client) the loops read (the
    participants, plus the malicious clients' proxies when a craft under
    partial knowledge reads them) and, in async runs, each participant's
    delay. Each is a pure function of (seed, tag, round, client), and a
    block's draws of one kind come from one `rngstream` pass, bitwise the
    per-stream Generator's. A block spans as many rounds as fit in
    _PLAN_STREAMS streams (at least one); a read past it draws the next."""

    def __init__(self, cfg: ExperimentConfig, shards, malicious_ids: tuple[int, ...]):
        # no reference to the world, which holds the plan: a cycle would
        # keep each finished run's data alive until a cyclic collection
        self.cfg, self.malicious_ids = cfg, malicious_ids
        self.per_round = participant_count(cfg.n_clients, cfg.participation)
        self.proxies = (
            cfg.attack.kind in ("agrevader", "fedpoisonmia", "adaptive")
            and cfg.attack.knowledge == "partial"
        )
        self.shard_sizes = np.array([s.size for s in shards])
        self.flat_shards = np.concatenate(shards)
        self.offsets = np.cumsum(self.shard_sizes) - self.shard_sizes
        self.batch_sizes = np.minimum(cfg.batch_size, self.shard_sizes)
        self.rounds = range(0)
        self.participants: dict[int, np.ndarray] = {}
        self.batches: dict[tuple[int, int], np.ndarray] = {}
        self.delays: dict[tuple[int, int], int] = {}

    def _block(self, t: int):
        if t in self.rounds:
            return
        cfg, mal = self.cfg, self.malicious_ids
        streams = 1 + self.per_round * (1 + cfg.asynchronous) + len(mal) * self.proxies
        self.rounds = range(t, max(t + 1, min(cfg.rounds, t + _PLAN_STREAMS // streams)))
        select = _selections(cfg.n_clients, cfg.participation, self.rounds, cfg.seed)
        self.participants = dict(zip(self.rounds, select))
        rows = [(r, ids.tolist()) for r, ids in self.participants.items()]
        keys = [(r, k) for r, ids in rows for k in ids]
        proxies = [(r, k) for r, ids in rows for k in mal if k not in ids] if self.proxies else []
        self.batches = self._draw_batches(keys + proxies)
        self.delays = {}
        if cfg.asynchronous:
            drawn = integers(keyed_words(cfg.seed, "delay", keys), [cfg.tau_max + 1] * len(keys))
            self.delays = dict(zip(keys, drawn.tolist()))

    def _draw_batches(self, keys) -> dict[tuple[int, int], np.ndarray]:
        """(round, client) -> np.sort(substream(seed, "batch", round,
        client).choice(shard, min(batch_size, shard size), replace=False)),
        one pass per batch size."""
        out = {}
        clients = np.array([k for _, k in keys], dtype=np.int64)
        sizes = self.batch_sizes[clients]
        for size in sorted(set(sizes.tolist())):
            group = [keys[i] for i in np.flatnonzero(sizes == size)]
            ids = clients[sizes == size]
            picks = sorted_choices(
                keyed_words(self.cfg.seed, "batch", group), self.shard_sizes[ids], size
            )
            out.update(zip(group, np.sort(self.flat_shards[self.offsets[ids, None] + picks], axis=1)))
        return out

    def selected(self, t: int) -> np.ndarray:
        self._block(t)
        return self.participants[t]

    def batch(self, t: int, client: int) -> np.ndarray:
        self._block(t)
        return self.batches[t, client]

    def delay(self, t: int, client: int) -> int:
        """The client's round-t delay, uniform on {0..tau_max}."""
        self._block(t)
        return self.delays[t, client]


def _shard_gradients(world: _World, params, round_idx: int, clients) -> list[np.ndarray]:
    """Each client's round-`round_idx` batch gradient under `params`, in
    order: one `mlp.gradients` call per batch size (a shard smaller than
    batch_size draws a smaller batch). Every row is an owned copy, so a row
    held past the round pins no other client's."""
    batches = [world.draws.batch(round_idx, k) for k in clients]
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
    """Aggregate the screened rows `G` of clients `order` (each row finite,
    checked once: `_as_matrix` in run_sync, `UpdateBuffer.put` in run_async)
    and apply the aggregate to `params`; returns the new model and the
    AggregationOutcome. `block` is the buffer's block for the rule (see
    `apply_rule`). The step's seed is derived for dp only, the one rule that
    draws from it."""
    outcome = apply_rule(
        rule,
        G.view(_Screened),
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
        participants = world.draws.selected(t)
        # one segment; a fresh view: the attacker references this round's
        # benign gradients
        updates = _client_updates(world, t, participants.tolist(), {}, params, craft_observer)
        order = [k for k, _ in updates]
        G = _as_matrix(np.stack([g for _, g in updates]))
        params, outcome = _step(world, cfg.rule, params, order, G, t)
        records.append(_record(world, params, t, participants, {"kept": outcome.kept_indices}))
    return _finish(world, records)


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


def _shift_down(a: np.ndarray, slot: int, k: int) -> None:
    """Move the C-contiguous `a[slot:k]` one place down, to `a[slot + 1:k + 1]`,
    in place: as one 1-D overlapping copy, which numpy runs back to front
    with no temporary (a 2-D one would copy the source first)."""
    flat, width = a.reshape(-1), a.size // a.shape[0]
    flat[(slot + 1) * width : (k + 1) * width] = flat[slot * width : k * width]


class UpdateBuffer:
    """The latest update of each client held, compact in ascending client
    id: slots 0..k-1 hold the k clients held, so a client's slot is its
    position in the held order, and once every client is held, its id. A
    repeat put overwrites its client's slot; a first put shifts the later
    slots down by one. Each row is screened for NaN and Inf once, at its put.
    Slot for slot the buffer also keeps the block the top-level rule `kind`
    reads, one client per arrival (see the module docstring): the angles
    between the rows held under atm (with each row's unit vector), their
    squared distances under multi_krum, or under fang each row's validation
    first-layer product (`products`, a function of one row:
    `mlp.input_products` bound to the validation examples)."""

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
        their rows and their block of the kept cache (None if none is kept);
        the rows and the block are views of the buffer, valid until the next
        put. A `g` with a NaN or Inf entry raises DegenerateGradient naming
        its position in the held order, and is not stored."""
        slot = int(np.count_nonzero(self.held[:client]))
        if not np.isfinite(g).all():
            raise DegenerateGradient(f"gradient {slot} contains NaN or Inf entries")
        if not self.held[client]:
            k = int(np.count_nonzero(self.held))
            for a in (self.rows, self.units, self.degenerate, self.products, self.pairs):
                if a is not None:
                    _shift_down(a, slot, k)
            if self.pairs is not None:  # its columns too; at most k * k entries
                self.pairs[: k + 1, slot + 1 : k + 1] = self.pairs[: k + 1, slot:k]
            self.held[client] = True
        order = np.flatnonzero(self.held)
        k = order.size
        self.rows[slot] = g
        G = self.rows[:k]
        if self.product_of is not None:
            block = self.product_of(self.rows[slot])
            if self.products is None:
                self.products = np.zeros((self.held.size,) + block.shape)
            self.products[slot] = block
            return order, G, self.products[:k]
        if self.pairs is None:
            return order, G, None
        if self.units is None:
            row = sq_distances_to(G, self.rows[slot])
        else:
            unit, norm = unit_rows(self.rows[slot : slot + 1])
            self.units[slot] = unit[0]
            self.degenerate[slot] = norm[0] <= NORM_FLOOR
            row = angles_to(self.units[:k], self.degenerate[:k], unit[0], self.degenerate[slot])
        self.pairs[slot, :k] = row
        self.pairs[:k, slot] = row
        self.pairs[slot, slot] = 0.0  # a unit row's angle to itself need not round to 0
        return order, G, self.pairs[:k, :k]


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
        participants = world.draws.selected(t)
        clients = participants.tolist()
        delays = [world.draws.delay(t, k) for k in clients]
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
