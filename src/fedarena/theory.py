"""Executable verification of the angular-trim deviation bound.

The bound says: given n scalar angles of which m are adversarial and the
benign remainder is iid with variance sigma^2 around mean omega, the
squared deviation of the trimmed mean from omega is at most
2(n-m)(b+1)sigma^2 / (n-b-m)^2 in expectation. `monte_carlo_deviation`
estimates the left side empirically; `lemma_order_stats_check` verifies
the sandwich inequalities between the sorted full sequence and its sorted
benign subsequence that drive the proof.

Two trim variants exist: the symmetric scalar trim (drop the b smallest
and b largest values) that the bound's argument manipulates, and the
one-sided variant (drop the 2b largest) matching the aggregation rule's
behaviour; both are exposed so their gap is measurable.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams
from .rngstream import substream

ADVERSARIES = ("extreme_high", "extreme_low", "mimic_mean")
TRIMS = ("symmetric", "one_sided")


@dataclass(frozen=True)
class AngleSample:
    """A sorted angle sequence with its malicious positions and the benign
    distribution's moments."""

    theta: np.ndarray  # ascending
    malicious_mask: np.ndarray  # bool, aligned with theta
    omega: float = 0.0
    sigma2: float = 0.0


@dataclass(frozen=True)
class TruncatedGaussian:
    """Gaussian restricted to [lo, hi]; mean/var are of the truncated law."""

    mu: float
    sigma: float
    lo: float = 0.0
    hi: float = float(np.pi)

    def _frozen(self):
        from scipy import stats  # loaded only here: a `run` never needs it

        a = (self.lo - self.mu) / self.sigma
        b = (self.hi - self.mu) / self.sigma
        return stats.truncnorm(a, b, loc=self.mu, scale=self.sigma)

    @property
    def mean(self) -> float:
        if self.sigma == 0:
            return self.mu
        return float(self._frozen().mean())

    @property
    def var(self) -> float:
        if self.sigma == 0:
            return 0.0
        return float(self._frozen().var())

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.sigma == 0:
            return np.full(size, self.mu)
        return self._frozen().rvs(size=size, random_state=rng)


def deviation_bound(n: int, m: int, b: int, sigma2: float) -> float:
    """2(n-m)(b+1)sigma^2 / (n-b-m)^2."""
    if 2 * m >= n:
        raise InvalidParams(f"2m = {2 * m} must be < n = {n}")
    if n - b - m <= 0:
        raise InvalidParams(f"n-b-m = {n - b - m} must be positive")
    if sigma2 < 0:
        raise InvalidParams(f"variance {sigma2} is negative")
    return 2.0 * (n - m) * (b + 1) * sigma2 / (n - b - m) ** 2


def lemma_order_stats_check(sample: AngleSample, b: int) -> bool:
    """Check hat(theta)_{b-m+i} <= theta_{b+i} <= hat(theta)_{b+i} for all
    i in 1..n-2b, where hat(theta) is the sorted benign subsequence."""
    theta = np.asarray(sample.theta, dtype=np.float64)
    mask = np.asarray(sample.malicious_mask, dtype=bool)
    n = theta.shape[0]
    m = int(mask.sum())
    if mask.shape[0] != n:
        raise InvalidParams("malicious mask length differs from sequence length")
    if np.any(np.diff(theta) < 0):
        raise InvalidParams("sequence must be sorted ascending")
    if not m < b <= n // 2 - 1:
        raise InvalidParams(f"need m < b <= n//2 - 1, got m={m} b={b} n={n}")
    benign = theta[~mask]
    for i in range(1, n - 2 * b + 1):
        if benign[b - m + i - 1] > theta[b + i - 1]:
            return False
        if theta[b + i - 1] > benign[b + i - 1]:
            return False
    return True


def _adversary_block(strategy: str, m: int, trials: int, dist, omega: float) -> np.ndarray:
    if strategy == "extreme_high":
        return np.full((trials, m), dist.hi)
    if strategy == "extreme_low":
        return np.full((trials, m), dist.lo)
    if strategy == "mimic_mean":
        return np.full((trials, m), omega)
    raise InvalidParams(f"unknown adversary strategy {strategy!r}")


def monte_carlo_deviation(
    dist: TruncatedGaussian,
    n: int,
    m: int,
    b: int,
    adversary: str,
    trials: int,
    seed: int,
    trim: str = "symmetric",
) -> float:
    """Empirical E[(trimmed mean - omega)^2] with m adversary-placed angles.

    `trim="symmetric"` drops the b smallest and b largest of the combined
    sequence (the bound's convention); `trim="one_sided"` drops the 2b
    largest (the aggregation rule's scalar analogue).
    """
    if trials < 1:
        raise InvalidParams(f"trials {trials} must be >= 1")
    if trim not in TRIMS:
        raise InvalidParams(f"unknown trim variant {trim!r}")
    # validate (n, m, b) against the bound's own preconditions
    deviation_bound(n, m, b, max(dist.sigma, 0.0) ** 2)
    omega = dist.mean
    rng = substream(seed, "mc_deviation", n, m, b, adversary, trim)
    benign = dist.sample(rng, (trials, n - m))
    if m > 0:
        combined = np.concatenate(
            [benign, _adversary_block(adversary, m, trials, dist, omega)], axis=1
        )
    else:
        combined = benign
    combined = np.sort(combined, axis=1)
    if trim == "symmetric":
        core = combined[:, b : n - b] if b > 0 else combined
    else:
        core = combined[:, : n - 2 * b] if b > 0 else combined
    dev = core.mean(axis=1) - omega
    return float(np.mean(dev * dev))
