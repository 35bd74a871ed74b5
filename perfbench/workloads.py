"""Workload definitions: the config cells each benchmark workload runs.

A cell is one `fedarena run` config. Its text is a flat `key = value`
file, so the benchmark drives the same parser and CLI path a user does.
The benchmark's `--seed` selects the config seeds; reference digests of
every cell's outputs are recorded for config seeds 0..REFERENCE_SEEDS-1,
and any workload seed maps onto that range.
"""

REFERENCE_SEEDS = 20

# The acceptance desk task: 3-class blobs, 10 clients with 1 malicious.
DESK = {
    "n_clients": 10,
    "malicious_fraction": 0.1,
    "C": 0.8,
    "rounds": 200,
    "lr": 0.1,
    "batch_size": 6,
    "gamma": 0.3,
    "classes": 3,
    "features": 64,
    "per_class": 100,
    "spread": 0.6,
    "n_attack": 20,
    "n_mask": 16,
}

SYNC_RULES = {
    "fedavg": {"rule": "fedavg"},
    "median": {"rule": "median"},
    "trimmed_mean": {"rule": "trimmed_mean", "trim_b": 1},
    "atm": {"rule": "atm", "trim_b": 1},
}

# 50 clients with per_class 500 keep each shard at the desk size
# (about 18 training samples).
ASYNC = dict(
    DESK,
    n_clients=50,
    per_class=500,
    rounds=10,
    attack="passive",
    tau_max=5,
    **{"async": "true"},
)

ASYNC_RULES = {
    "atm": {"rule": "atm", "trim_b": 5},
    "fang": {"rule": "fang", "fang_mode": "lfr"},
    "multi_krum": {"rule": "multi_krum", "krum_f": 5},
}

WHY = {
    "sync-attack": "flagship fedpoisonmia crafting on the desk task; about 90 % of time is in attacks",
    "async-robust": "50-client async re-aggregation per arrival, crafting bypassed; about 90 % of time is in aggregation",
}
NAMES = tuple(WHY)


def config_seed(seed: int) -> int:
    """Map any workload seed onto the recorded reference range."""
    return seed % REFERENCE_SEEDS


def config_text(values: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def cells(workload: str, seed: int) -> list[tuple[str, int, dict]]:
    """(cell name, config seed, config values) in run order."""
    if workload == "sync-attack":
        base = dict(DESK, attack="fedpoisonmia", knowledge="full")
        s = config_seed(seed)
        return [(f"fedpoisonmia-{r}", s, dict(base, **kw, seed=s)) for r, kw in SYNC_RULES.items()]
    if workload == "async-robust":
        s = config_seed(seed)
        return [(f"async-{r}", s, dict(ASYNC, **kw, seed=s)) for r, kw in ASYNC_RULES.items()]
    raise ValueError(f"unknown workload {workload!r}; expected one of {NAMES}")
