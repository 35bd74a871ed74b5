"""Datasets, client partitions, and attacker sample sets.

Synthetic data is Gaussian blobs (one unit-sphere mean per class). Real
data enters through a header-less CSV: one `label,f1,...,fp` row per
example. Partitioning supports IID splits and the group-biased Non-IID
scheme where a sample of label q joins group q with probability `bias`
and any other group with probability (1-bias)/(h-1).
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    EmptyFile,
    InsufficientData,
    InvalidBeta,
    InvalidConfig,
    ParseError,
    TooFewClients,
    TooManyClients,
)
from .rngstream import substream


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (N, p) float64
    labels: np.ndarray  # (N,) int64
    num_classes: int

    @property
    def size(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class Partition:
    """Disjoint index shards, one per client, jointly covering their pool."""

    shards: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class AttackerData:
    """Attack targets (half members, half held-out) plus the masking pool."""

    attack_features: np.ndarray
    attack_labels: np.ndarray
    member_flags: np.ndarray  # bool, aligned with attack rows
    mask_features: np.ndarray
    mask_labels: np.ndarray


def synth_dataset(
    num_classes: int, feature_dim: int, per_class: int, spread: float, seed: int
) -> Dataset:
    """Gaussian blobs: class means on the unit sphere, isotropic noise `spread`."""
    if num_classes < 2 or per_class < 1 or feature_dim < 1 or spread < 0:
        raise InvalidConfig(
            f"bad blob config: h={num_classes} p={feature_dim} "
            f"per_class={per_class} spread={spread}"
        )
    rng = substream(seed, "synth")
    means = rng.normal(size=(num_classes, feature_dim))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    feats = np.concatenate(
        [
            means[c] + spread * rng.normal(size=(per_class, feature_dim))
            for c in range(num_classes)
        ]
    )
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    return Dataset(features=feats, labels=labels, num_classes=num_classes)


def load_csv(path) -> Dataset:
    """Parse `label,f1,...,fp` rows; classes inferred as max label + 1."""
    text = Path(path).read_text(encoding="utf-8")
    rows = [line for line in text.splitlines() if line.strip()]
    if not rows:
        raise EmptyFile(f"{path} holds no data rows")
    labels = []
    feats = []
    width = None
    for i, line in enumerate(rows, start=1):
        fields = line.split(",")
        if len(fields) < 2:
            raise ParseError(i, f"expected label plus features, got {len(fields)} fields")
        try:
            label = int(fields[0])
        except ValueError:
            raise ParseError(i, f"label {fields[0]!r} is not an integer") from None
        if label < 0:
            raise ParseError(i, f"label {label} is negative")
        try:
            values = [float(f) for f in fields[1:]]
        except ValueError:
            raise ParseError(i, "non-numeric feature value") from None
        if not all(np.isfinite(values)):
            raise ParseError(i, "non-finite feature value")
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise ParseError(i, f"expected {width} features, got {len(values)}")
        labels.append(label)
        feats.append(values)
    return Dataset(
        features=np.asarray(feats, dtype=np.float64),
        labels=np.asarray(labels, dtype=np.int64),
        num_classes=int(max(labels)) + 1,
    )


def save_csv(dataset: Dataset, path) -> None:
    """Inverse of load_csv; floats written with repr so round-trips are exact."""
    lines = []
    for label, row in zip(dataset.labels, dataset.features):
        lines.append(",".join([str(int(label))] + [repr(float(v)) for v in row]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def take(dataset: Dataset, indices) -> Dataset:
    idx = np.asarray(indices, dtype=np.int64)
    return Dataset(
        features=dataset.features[idx],
        labels=dataset.labels[idx],
        num_classes=dataset.num_classes,
    )


def partition_iid(dataset: Dataset, n: int, seed: int) -> Partition:
    """Random permutation split into n shards whose sizes differ by at most 1."""
    if n > dataset.size:
        raise TooManyClients(f"{n} clients but only {dataset.size} examples", "n_clients")
    if n < 1:
        raise TooFewClients("need at least one client", "n_clients")
    perm = substream(seed, "partition_iid").permutation(dataset.size)
    base, rem = divmod(dataset.size, n)
    shards = []
    start = 0
    for k in range(n):
        size = base + (1 if k < rem else 0)
        shards.append(np.sort(perm[start : start + size]))
        start += size
    return Partition(shards=tuple(shards))


def partition_noniid(dataset: Dataset, n: int, bias: float, seed: int) -> Partition:
    """Group-biased split: label-q samples prefer group q with probability `bias`.

    Clients join the h groups round-robin by index; within a group, samples
    are dealt round-robin across the group's clients so shard sizes stay
    balanced.
    """
    h = dataset.num_classes
    if not 0 < bias <= 1:
        raise InvalidBeta(f"bias {bias} outside (0, 1]")
    if n < h:
        raise TooFewClients(f"{n} clients cannot fill {h} groups", "n_clients")
    rng = substream(seed, "partition_noniid")
    group_clients = [[k for k in range(n) if k % h == g] for g in range(h)]
    shards: list[list[int]] = [[] for _ in range(n)]
    dealt = [0] * h
    for i in range(dataset.size):
        q = int(dataset.labels[i])
        if rng.random() < bias:
            g = q
        else:
            g = int(rng.integers(0, h - 1))
            if g >= q:
                g += 1
        members = group_clients[g]
        shards[members[dealt[g] % len(members)]].append(i)
        dealt[g] += 1
    if any(not s for s in shards):
        empty = [k for k, s in enumerate(shards) if not s]
        raise InsufficientData(f"clients {empty} received no samples; add data", "n_clients")
    return Partition(shards=tuple(np.asarray(s, dtype=np.int64) for s in shards))


def build_attacker_data(
    partition: Partition,
    dataset: Dataset,
    holdout: Dataset,
    malicious_ids,
    n_attack: int,
    n_mask: int,
    seed: int,
) -> AttackerData:
    """Assemble the attack set (ceil(n/2) members from benign shards,
    the rest non-members from the holdout) and the mask pool drawn from
    the malicious clients' own clean shards.
    """
    malicious = set(int(k) for k in malicious_ids)
    rng = substream(seed, "attacker_data")
    benign_pool = np.concatenate(
        [s for k, s in enumerate(partition.shards) if k not in malicious]
    ) if len(malicious) < len(partition.shards) else np.empty(0, dtype=np.int64)
    n_members = (n_attack + 1) // 2
    n_non = n_attack - n_members
    if n_members > benign_pool.size:
        raise InsufficientData(
            f"need {n_members} member samples, benign shards hold {benign_pool.size}",
            "n_attack",
        )
    if n_non > holdout.size:
        raise InsufficientData(
            f"need {n_non} non-member samples, holdout holds {holdout.size}", "n_attack"
        )
    member_idx = rng.choice(benign_pool, size=n_members, replace=False)
    non_idx = rng.choice(holdout.size, size=n_non, replace=False)
    attack_features = np.concatenate(
        [dataset.features[member_idx], holdout.features[non_idx]]
    ) if n_attack else np.empty((0, dataset.feature_dim))
    attack_labels = np.concatenate(
        [dataset.labels[member_idx], holdout.labels[non_idx]]
    ) if n_attack else np.empty(0, dtype=np.int64)
    flags = np.concatenate([np.ones(n_members, bool), np.zeros(n_non, bool)])

    if n_mask > 0:
        if not malicious:
            raise InsufficientData("mask samples requested but no malicious clients", "n_mask")
        mal_pool = np.concatenate([partition.shards[k] for k in sorted(malicious)])
        if n_mask > mal_pool.size:
            raise InsufficientData(
                f"need {n_mask} mask samples, malicious shards hold {mal_pool.size}",
                "n_mask",
            )
        mask_idx = rng.choice(mal_pool, size=n_mask, replace=False)
        mask_features = dataset.features[mask_idx]
        mask_labels = dataset.labels[mask_idx]
    else:
        mask_features = np.empty((0, dataset.feature_dim))
        mask_labels = np.empty(0, dtype=np.int64)

    return AttackerData(
        attack_features=attack_features,
        attack_labels=attack_labels,
        member_flags=flags,
        mask_features=mask_features,
        mask_labels=mask_labels,
    )
