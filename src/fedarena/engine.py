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
after each zero-delay client, whose arrival steps the model. A segment's
updates are one (len(segment), d) matrix in id order. A benign client,
and any client under `none`/`passive`, sends its shard gradient: one
`mlp.gradients` backprop per batch size writes its group's rows, each
bitwise its client's `mlp.gradient`. The malicious clients of a segment
send one crafted update, written into the matrix's tail (their ids are
the highest), built once against the benign references: in sync the
matrix's benign prefix itself, a view; in async the held rows of the
attacker's view, an `UpdateBuffer` of the freshest benign gradient per
client that takes the segment's benign rows first and is kept only when
a craft reads it. Either way that is the view each malicious client
would see if dispatched alone, and a craft depends only on the model,
the round and the references. Sync therefore crafts once per round,
async once per segment. A sync round steps on its matrix; an async
buffer copies each row it takes, and the queue of delayed arrivals holds
owned copies, so nothing held past a segment pins its matrix. Both loops
step the model through `_step`, each step a `Step` of its round's record.

Async semantics: each round dispatches the selected clients in id order;
every update is due after an integer delay uniform on {0..tau_max} and
is applied individually, re-aggregating the most recent update buffered
per client (stale entries retained); one due after the last round is
never applied. Arrivals queued from earlier rounds are applied before
the current round's dispatches; a delay of zero means the update is
applied immediately, before the next client dispatches.
Trim-style rules clamp their parameters while the buffer is still
smaller than they require. The buffer (`UpdateBuffer`) is one
(n_clients, d) matrix whose first k rows hold the k clients held so far,
compact in ascending id order: a client's row is its position in the
held order, and once every client is held, its id. An arrival overwrites
its client's row, or on its first arrival shifts the later rows down by
one, and the rule reads views of the first k rows, never a copy. Each
row is screened for NaN and Inf once, as it arrives; a sync round's
matrix once, before its step. Under atm the buffer also keeps
each row's unit vector and the angles between the rows
(`vectors.angles_to`); under multi_krum, their Gram block, the dot
products between the rows (one BLAS matrix-vector product G @ g per
arrival). An arrival rewrites only its client's row and column, at
O(n*d) instead of the O(n^2*d) a recompute costs. Under fang it keeps
each row's (v, h) first-layer product X @ W1(g) + b1(g) with the
validation examples (`mlp.input_products`, the block fang scores every
leave-one-out candidate from), and an arrival computes only its client's
block. Each angle and product entry depends only on its own rows, and
the fresh path's stacked products are bitwise the per-row ones, so those
kept blocks are bitwise the recompute. The Gram block is not: its last
bits depend on the BLAS kernel (and its thread count), and the squared
distances Krum reads from it, |g_i|^2 + |g_j|^2 - 2 g_i.g_j, lie within a
stated per-entry bound of the recompute's (`aggregation.gram_sq_distances`);
Krum rescores from exact distances every row whose score that bound lets
reach a pick. So no choice of atm, Krum or fang changes.
"""

import math
from dataclasses import dataclass, field, replace
from functools import partial, reduce

import numpy as np

from . import data as datamod
from . import mlp
from .aggregation import KINDS as RULE_KINDS
from .aggregation import AggregationRule, _Screened, apply_rule
from .attacks import KINDS as ATTACK_KINDS
from .attacks import (
    AttackerContext,
    AttackStrategy,
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
from .rngstream import derive_seed, keyed_words, sorted_choices, substream
from .vectors import NORM_FLOOR, _as_matrix, angles_to, unit_rows

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
class Step:
    """One model step: a sync round, or one async arrival."""

    client: int | None  # the arriving client; None for a sync round
    kept: tuple[int, ...]  # the ids the rule kept, in its order (Multi-Krum's picks)
    staleness: int  # rounds since the client's dispatch; 0 for a sync round


@dataclass(frozen=True)
class RoundRecord:
    round: int
    test_acc: float
    membership_preds: np.ndarray  # bool per eval sample
    participants: tuple[int, ...]
    steps: tuple[Step, ...] = ()  # in the order they stepped the model


@dataclass(frozen=True)
class ExperimentResult:
    records: tuple[RoundRecord, ...]
    member_flags: np.ndarray
    attack_acc: float
    attack_prec: float
    attack_rec: float
    final_test_acc: float
    params: mlp.ModelParams  # the final model


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
        ("attack.alpha_min", 0 < attack.alpha_min <= attack.alpha_max,
         "0 < alpha_min <= alpha_max"),
        ("attack.alpha_points", attack.alpha_points >= 1, ">= 1"),
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
    """ceil(C*n), nudged so 0.55 * 100 style products stay exact, and at
    least 1: the ceiling of a positive product is."""
    return max(1, math.ceil(participation * n - 1e-9))


def test_accuracy(params: mlp.ModelParams, features, labels) -> float:
    if len(features) == 0:
        raise EmptySet("test set is empty")
    X, y = mlp._check_batch(params, features, labels)
    return float(np.mean(mlp.predict_batch(params, X) == y))


def membership_metrics(records, truth) -> tuple[float, float, float]:
    """Accuracy, precision and recall of the membership calls at the best
    round: the earliest with the most correct calls. Precision is 0 when
    nothing is predicted member."""
    truth = np.asarray(truth, dtype=bool)
    if not records:
        raise EmptyHistory("no round records")
    if not truth.any():
        raise InvalidConfig("evaluation set has no actual members")
    correct = [int(np.sum(r.membership_preds == truth)) for r in records]
    best = int(np.argmax(correct))
    preds = records[best].membership_preds
    tp = int(np.sum(preds & truth))
    predicted_pos = int(np.sum(preds))
    precision = tp / predicted_pos if predicted_pos else 0.0
    return correct[best] / truth.size, precision, tp / int(np.sum(truth))


@dataclass(frozen=True)
class _World:
    """Everything a run needs, materialised once from the config by
    `build_world`, the draw plan included (which draws each block of rounds
    at its first read)."""

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
    draws: "_DrawPlan"


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
        draws=_DrawPlan(cfg, part.shards, malicious_ids),
    )


class _DrawPlan:
    """A run's draws, one block of rounds at a time: each round's
    participants, np.sort(substream(seed, "select", round).choice(n,
    ceil(C*n), replace=False)); the batch of each participant and of each
    malicious client not selected (a partial-knowledge craft reads its
    malicious clients' shards); and, in async runs, each participant's
    delay, substream(seed, "delay", round, client).integers(0, tau_max +
    1), a one-element choice. Each kind of a block is one `sorted_choices`
    pass over its `keyed_words` streams, bitwise the per-stream
    Generator's. A block spans as many rounds as fit in _PLAN_STREAMS
    streams (at least one); a read past it draws the next."""

    def __init__(self, cfg: ExperimentConfig, shards, malicious_ids: tuple[int, ...]):
        # no reference to the world, which holds the plan: a cycle would
        # keep each finished run's data alive until a cyclic collection
        self.cfg, self.malicious_ids = cfg, malicious_ids
        self.per_round = participant_count(cfg.n_clients, cfg.participation)
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
        streams = 1 + self.per_round * (1 + cfg.asynchronous) + len(mal)
        self.rounds = range(t, max(t + 1, min(cfg.rounds, t + _PLAN_STREAMS // streams)))
        words = keyed_words(cfg.seed, "select", [(r,) for r in self.rounds])
        select = sorted_choices(words, [cfg.n_clients] * len(words), self.per_round)
        self.participants = dict(zip(self.rounds, select))
        rows = [(r, ids.tolist()) for r, ids in self.participants.items()]
        keys = [(r, k) for r, ids in rows for k in ids]
        proxies = [(r, k) for r, ids in rows for k in mal if k not in ids]
        self.batches = self._draw_batches(keys + proxies)
        self.delays = {}
        if cfg.asynchronous:
            words = keyed_words(cfg.seed, "delay", keys)
            drawn = sorted_choices(words, [cfg.tau_max + 1] * len(keys), 1)[:, 0]
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


def _shard_gradients(world: _World, params, round_idx: int, clients, rows: int = 0) -> np.ndarray:
    """Each client's round-`round_idx` batch gradient under `params`, as the
    leading rows of one (max(rows, len(clients)), d) matrix, in order: one
    `mlp.gradients` call per batch size (a shard smaller than batch_size
    draws a smaller batch) writes its group's rows. Rows past the clients'
    are left for the caller to fill."""
    batches = [world.draws.batch(round_idx, k) for k in clients]
    by_size: dict[int, list[int]] = {}
    for i, idx in enumerate(batches):
        by_size.setdefault(idx.size, []).append(i)
    U = np.empty((max(rows, len(batches)), params.flat.size))
    for members in by_size.values():
        idx = np.stack([batches[i] for i in members])
        U[members] = mlp.gradients(params, world.train.features[idx], world.train.labels[idx])
    return U


def _craft_update(world: _World, params, round_idx: int, refs, craft_observer=None):
    """One crafted update for the model `params`, against the benign
    references `refs` (rows), or under partial knowledge the gradients of
    the malicious clients' own shards."""
    cfg = world.cfg
    kind = cfg.attack.kind
    att = world.attacker
    if kind == "gradient_ascent":
        return craft_gradient_ascent(
            params, att.attack_features, att.attack_labels, cfg.attack.ga_scale
        )
    if cfg.attack.knowledge == "partial":
        refs = _shard_gradients(world, params, round_idx, world.malicious_ids)
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
        g_attack = mlp.gradient(params, att.attack_features, flipped)
        return craft_adaptive(refs, g_attack, max(cfg.rule.trim_b, 1))
    raise InvalidConfig(f"unknown attack kind {kind!r}")


def _client_updates(world: _World, t: int, segment, view, params, craft_observer=None):
    """The updates of a dispatch segment's clients (see the module
    docstring), as the rows of one (len(segment), d) matrix in id order:
    the clients dispatched against the one model `params`. The benign
    gradients fill its prefix and the segment's one craft its tail. `view`,
    the async attacker's `UpdateBuffer`, takes the benign rows before the
    craft, which reads its held rows (in ascending id); a sync round, and an
    async run whose craft reads no view, pass None and craft against the
    prefix."""
    crafts = world.cfg.attack.kind not in ("none", "passive")
    benign = [k for k in segment if not (crafts and k in world.malicious_ids)]
    U = _shard_gradients(world, params, t, benign, len(segment))
    if view is not None:
        for k, g in zip(benign, U):
            view.put(k, g)
    if len(benign) < len(segment):
        refs = U[: len(benign)] if view is None else view.rows[: np.count_nonzero(view.held)]
        U[len(benign) :] = _craft_update(world, params, t, refs, craft_observer)
    return U


def _step(world: _World, rule, params, order, G, seed_tag, block=None):
    """Aggregate the screened rows `G` of clients `order` (each row finite,
    checked once: `_as_matrix` in run_sync, `UpdateBuffer.put` in run_async)
    and apply the aggregate to `params`; returns the new model and the ids
    of the clients the rule kept, `order[kept_indices]` in the rule's order.
    `block` is the buffer's block for the rule (see `apply_rule`). The
    step's seed is derived for dp only, the one rule that draws from it."""
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
    kept = tuple(order[list(outcome.kept_indices)].tolist())
    return mlp.apply_update(params, outcome.aggregate, world.cfg.lr), kept


def _record(world: _World, params, round_idx, participants, steps) -> RoundRecord:
    preds = passive_infer(params, world.attacker.attack_features, world.attacker.attack_labels)
    return RoundRecord(
        round=round_idx,
        test_acc=test_accuracy(params, world.test.features, world.test.labels),
        membership_preds=preds,
        participants=tuple(int(k) for k in participants),
        steps=tuple(steps),
    )


def _finish(world: _World, records: list[RoundRecord], params) -> ExperimentResult:
    truth = world.attacker.member_flags
    acc, prec, rec = membership_metrics(records, truth)
    return ExperimentResult(
        records=tuple(records),
        member_flags=truth,
        attack_acc=acc,
        attack_prec=prec,
        attack_rec=rec,
        final_test_acc=records[-1].test_acc,
        params=params,
    )


def run_sync(cfg: ExperimentConfig, craft_observer=None) -> ExperimentResult:
    """Synchronous rounds: all selected clients report, one aggregate `Step`."""
    world = build_world(cfg)
    params = world.params0
    records: list[RoundRecord] = []
    for t in range(cfg.rounds):
        participants = world.draws.selected(t)
        # one segment: the craft references this round's benign rows
        U = _client_updates(world, t, participants.tolist(), None, params, craft_observer)
        G = _as_matrix(U)
        params, kept = _step(world, cfg.rule, params, participants, G, t)
        records.append(_record(world, params, t, participants, [Step(None, kept, 0)]))
    return _finish(world, records, params)


def _clamp_rule(rule: AggregationRule, size: int) -> AggregationRule:
    """Shrink trim/selection knobs to a warm-up buffer (under dp|topk, the
    inner kind's); `rule` itself when no knob changes."""
    at = "inner" if rule.kind in ("dp", "topk") else "kind"
    kind = getattr(rule, at)
    if size < 2 and kind in ("atm", "fang", "multi_krum", "median", "trimmed_mean"):
        return replace(rule, **{at: "fedavg"})
    if kind in ("trimmed_mean", "atm") and rule.trim_b > (size - 1) // 2:
        return replace(rule, trim_b=(size - 1) // 2)
    if kind == "multi_krum" and (rule.krum_f > size - 2 or rule.krum_count > size):
        f, count = min(rule.krum_f, size - 2), min(rule.krum_count, size)
        return replace(rule, krum_f=f, krum_count=count)
    return rule


class UpdateBuffer:
    """The latest update of each client held, compact in ascending client
    id: slots 0..k-1 hold the k clients held, so a client's slot is its
    position in the held order, and once every client is held, its id. A
    repeat put overwrites its client's slot; a first put shifts the later
    slots down by one. Each row is screened for NaN and Inf once, at its
    put, and copied into the buffer. The async attacker's view is one too,
    with no kept block. Slot for slot the buffer also keeps the block the
    top-level rule `kind` reads, one client per arrival (see the module
    docstring): the angles between the rows held under atm (with each row's
    unit vector), bitwise the recompute; their Gram block under multi_krum,
    each entry one row's dot product with another (the diagonal their
    squared norms) from the matrix-vector product of the rows held with the
    arriving one, its distances within `aggregation.gram_sq_distances`'
    bound of the recompute; or under fang each row's validation first-layer
    product, weights and bias (`products`, a function of one row:
    `mlp.input_products` bound to the validation examples), bitwise the
    recompute."""

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
                    a[slot + 1 : k + 1] = a[slot:k]
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
        if self.units is None:  # the row's Gram row: one matrix-vector product
            with np.errstate(over="ignore"):  # multi_krum recomputes exactly past overflow
                row = G @ self.rows[slot]
        else:
            unit, norm = unit_rows(self.rows[slot : slot + 1])
            self.units[slot] = unit[0]
            self.degenerate[slot] = norm[0] <= NORM_FLOOR
            row = angles_to(self.units[:k], self.degenerate[:k], unit[0], self.degenerate[slot])
            row[slot] = 0.0  # a unit row's angle to itself need not round to 0
        self.pairs[slot, :k] = row
        self.pairs[:k, slot] = row
        return order, G, self.pairs[:k, :k]


def run_async(cfg: ExperimentConfig, craft_observer=None) -> ExperimentResult:
    """Event-queue simulation: updates arrive with integer delays and each
    arrival re-aggregates the per-client buffer and steps the model, one
    `Step` per arrival in its round's record (a round may have none)."""
    world = build_world(cfg)
    params = world.params0
    # only a top-level atm, multi_krum or fang reads a kept block; dp|topk
    # change the rows first
    products = None
    if cfg.rule.kind == "fang":
        products = partial(mlp.input_products, world.val.features, layer_shapes=params.layer_shapes)
    buffer = UpdateBuffer(cfg.n_clients, params.flat.size, cfg.rule.kind, products)
    # freshest benign gradient per client, kept only when a craft reads it:
    # a full-knowledge agrevader, fedpoisonmia or adaptive
    reads_view = world.attack_ctx is not None and cfg.attack.knowledge == "full"
    attacker_view = UpdateBuffer(cfg.n_clients, params.flat.size) if reads_view else None
    pending: dict[int, list[tuple[int, int, np.ndarray]]] = {}
    records: list[RoundRecord] = []

    def apply_arrival(t_now: int, t_dispatch: int, client: int, g: np.ndarray, steps):
        nonlocal params
        order, G, block = buffer.put(client, g)
        rule = _clamp_rule(cfg.rule, order.size)
        params, kept = _step(world, rule, params, order, G, (t_now, len(steps)), block)
        steps.append(Step(client, kept, t_now - t_dispatch))

    for t in range(cfg.rounds):
        steps: list[Step] = []
        # rounds run in order and each segment dispatches in ascending id, so
        # each list is already in (dispatch round, client) order
        for t_disp, client, g in pending.pop(t, []):
            apply_arrival(t, t_disp, client, g, steps)
        participants = world.draws.selected(t)
        clients = participants.tolist()
        delays = [world.draws.delay(t, k) for k in clients]
        # a segment ends after each zero-delay client, whose arrival steps the model
        ends = [i + 1 for i, delay in enumerate(delays) if delay == 0]
        if not ends or ends[-1] < len(clients):
            ends.append(len(clients))
        for start, end in zip([0] + ends, ends):
            segment = clients[start:end]
            U = _client_updates(world, t, segment, attacker_view, params, craft_observer)
            for k, g, delay in zip(segment, U, delays[start:end]):
                if delay == 0:
                    apply_arrival(t, t, k, g, steps)
                else:  # an owned copy, which pins no other row of U
                    pending.setdefault(t + delay, []).append((t, k, g.copy()))
        records.append(_record(world, params, t, participants, steps))
    return _finish(world, records, params)


def run(cfg: ExperimentConfig, craft_observer=None) -> ExperimentResult:
    """Run the config sync or async: each record lists its round's `steps`,
    `params` is the final model. `craft_observer(round, CraftResult,
    references)` fires once per fedpoisonmia craft: once per dispatch
    segment with a malicious client (see the module docstring)."""
    if cfg.asynchronous:
        return run_async(cfg, craft_observer)
    return run_sync(cfg, craft_observer)
