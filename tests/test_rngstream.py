import numpy as np
import pytest

from fedarena.rngstream import derive_seed, substream

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
