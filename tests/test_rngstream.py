import numpy as np
import pytest

from fedarena import rngstream
from fedarena.rngstream import derive_seed, integers, keyed_words, sorted_choices, stream_words, substream

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)
TAGS = [("batch", t, k) for t in range(25) for k in range(8)] + [
    ("select", 3),
    ("flip",),
    ("agg", (4, 2)),
    ("delay", 0, 1),
    (),
]


@pytest.mark.parametrize("seed", SEEDS)
def test_same_draws_as_numpy_seeding(seed):
    # substream hands numpy the entropy words it would make itself
    for tags in TAGS:
        want = np.random.default_rng([seed, derive_seed(seed, *tags)])
        got = substream(seed, *tags)
        assert np.array_equal(got.integers(0, 2**63, size=6), want.integers(0, 2**63, size=6))
        assert np.array_equal(got.random(3), want.random(3))


def test_negative_seed_keeps_numpys_error():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.default_rng([-1, derive_seed(-1, "batch")])
    with pytest.raises(ValueError, match="expected non-negative integer"):
        substream(-1, "batch")


# entropy of 3, 3, 4, 4 and 5 words: the seed's words plus the derived
# seed's two
WORD_SEEDS = (0, 2**32 - 1, 2**32, 2**64 - 1, 2**64)
KEYS = [(seed, t, k) for seed in WORD_SEEDS for t in range(8) for k in range(5)]
# raw entropy of 1 to 6 words, as numpy reads a uint32 array
RAW = [np.random.default_rng(n).integers(0, 2**32, size=n % 6 + 1).tolist() for n in range(18)]


def numpy_stream(seed, *tags):
    """The stream as numpy seeds it from [seed, derived seed] itself."""
    return np.random.default_rng([seed, derive_seed(seed, *tags)])


def raw_stream(words):
    return np.random.default_rng(np.array(words, dtype=np.uint32))


def test_keyed_words_are_stream_words():
    keys = [(t, k) for t in range(30) for k in range(4)]
    for seed in WORD_SEEDS:
        assert keyed_words(seed, "batch", keys) == [stream_words(seed, "batch", *key) for key in keys]
        assert keyed_words(seed, "select", [(3,)]) == [stream_words(seed, "select", 3)]
    assert {len(stream_words(seed, "batch", 0, 0)) for seed in WORD_SEEDS} == {3, 4, 5}


@pytest.mark.parametrize(
    "pop, size",
    [(18, 6), (10, 8), (7, 7), (1, 1), (5, 0), (3000, 1), (3000, 3000), (50, 40),
     # size == pop // 50 on both sides of pop 10000: Floyd's selection
     (10000, 200), (10001, 200), (20000, 400),
     # tail-shuffle in numpy, through each stream's Generator here
     (10001, 201), (20000, 401),
     # Lemire rejects about a quarter of the draws on [0, 3 * 2**30]
     (3 * 2**30 + 1, 3),
     # a range of 2**32 - 1 or more
     (2**32, 2), (2**40, 3)],
)
def test_sorted_choices_match_numpy(pop, size):
    keys = KEYS if pop * size < 10**6 else KEYS[::8]
    words = [stream_words(seed, "batch", t, k) for seed, t, k in keys]
    got = sorted_choices(words, [pop] * len(words), size)
    assert got.shape == (len(keys), size) and got.dtype == np.int64
    for (seed, t, k), row in zip(keys, got):
        want = np.sort(numpy_stream(seed, "batch", t, k).choice(pop, size, replace=False))
        assert np.array_equal(row, want)


def test_sorted_choices_mixed_pops_and_raw_entropy():
    pops = [6 + i % 13 for i in range(len(RAW))]
    got = sorted_choices(RAW, pops, 6)
    for words, pop, row in zip(RAW, pops, got):
        assert np.array_equal(row, np.sort(raw_stream(words).choice(pop, 6, replace=False)))


def test_rejection_falls_back_bitwise():
    # the kernel's first values for rng = 3 * 2**30 are rejected on some
    # streams, which numpy redraws
    words = [stream_words(seed, "delay", t, k) for seed, t, k in KEYS]
    rng = np.full(len(words), 3 * 2**30, dtype=np.uint64)
    _, rejected = rngstream._lemire(rngstream._pcg64_uint32s(words, 1)[:, 0], rng)
    assert 0 < rejected.sum() < len(words)
    got = integers(words, [3 * 2**30 + 1] * len(words))
    for (seed, t, k), value in zip(KEYS, got):
        assert value == numpy_stream(seed, "delay", t, k).integers(0, 3 * 2**30 + 1)


@pytest.mark.parametrize("high", [1, 2, 6, 1001, 2**31, 2**32 - 1, 2**32, 2**33])
def test_integers_match_numpy(high):
    words = [stream_words(seed, "delay", t, k) for seed, t, k in KEYS] + RAW
    got = integers(words, [high] * len(words))
    want = [numpy_stream(seed, "delay", t, k).integers(0, high) for seed, t, k in KEYS]
    want += [raw_stream(w).integers(0, high) for w in RAW]
    assert got.dtype == np.int64 and got.tolist() == want


def test_kernels_reject_impossible_draws():
    with pytest.raises(ValueError, match="size <= pop"):
        sorted_choices([[1, 2]], [3], 4)
    with pytest.raises(ValueError, match="high >= 1"):
        integers([[1, 2]], [0])


def test_plan_across_block_boundaries(monkeypatch):
    # 9 streams a round (1 selection, 4 delays, 4 batches): blocks of 3
    # rounds; every draw matches its own Generator across the boundaries,
    # and the run matches one drawn in default blocks
    from fedarena import engine as eng
    from fedarena.attacks import AttackStrategy

    cfg = eng.ExperimentConfig(
        n_clients=5, participation=0.8, rounds=10, batch_size=4, per_class=20,
        features=6, asynchronous=True, tau_max=3, attack=AttackStrategy("none"), seed=3,
    )
    whole = eng.run(cfg)
    monkeypatch.setattr(eng, "_PLAN_STREAMS", 30)
    world = eng.build_world(cfg)
    for t in range(cfg.rounds):
        ids = world.draws.selected(t)
        assert world.draws.rounds == range(t - t % 3, min(t - t % 3 + 3, cfg.rounds))
        want = np.sort(numpy_stream(cfg.seed, "select", t).choice(5, 4, replace=False))
        assert np.array_equal(ids, want)
        for k in ids.tolist():
            shard = world.shards[k]
            batch = np.sort(numpy_stream(cfg.seed, "batch", t, k).choice(shard, 4, replace=False))
            assert np.array_equal(world.draws.batch(t, k), batch)
            assert world.draws.delay(t, k) == numpy_stream(cfg.seed, "delay", t, k).integers(0, 4)
    blocked = eng.run(cfg)
    assert [r.participants for r in blocked.records] == [r.participants for r in whole.records]
    assert [r.diagnostics["staleness"] for r in blocked.records] == [
        r.diagnostics["staleness"] for r in whole.records
    ]
    assert [r.test_acc for r in blocked.records] == [r.test_acc for r in whole.records]


def test_plan_draws_unselected_malicious_batches_under_any_attack():
    # the plan draws the batch of every malicious client a round leaves
    # out, whatever the attack reads: the same indices as the proxies a
    # partial-knowledge craft reads
    from dataclasses import replace

    from fedarena import engine as eng
    from fedarena.attacks import AttackStrategy

    base = eng.ExperimentConfig(
        n_clients=10, malicious_fraction=0.2, participation=0.6, rounds=6, batch_size=4,
        features=6, per_class=40, n_mask=4, seed=5,
    )
    attacks = [
        AttackStrategy("fedpoisonmia", mask_fraction=0.3, knowledge="partial"),
        AttackStrategy("passive"),
        AttackStrategy("fedpoisonmia", mask_fraction=0.3, knowledge="full"),
    ]
    worlds = [eng.build_world(replace(base, attack=attack)) for attack in attacks]
    unselected = [
        (t, k) for t in range(base.rounds) for k in worlds[0].malicious_ids
        if k not in worlds[0].draws.selected(t)
    ]
    assert unselected
    for t, k in unselected:
        want = worlds[0].draws.batch(t, k)
        for world in worlds[1:]:
            assert np.array_equal(world.draws.batch(t, k), want)
