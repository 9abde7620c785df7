"""Core epsilon-DP primitives.

Implements the pieces every private pipeline in this package is built from:
privacy budgets, query sensitivity, calibrated Laplace/Gaussian noise, and an
empirical distinguishability check of the epsilon bound

    Pr[M(D) in T] <= exp(epsilon) * Pr[M(D') in T]

on one built-in release, a count of the records above 0.5 plus
Lap(1/epsilon), by histogramming its outputs on two datasets that differ in
one record. The check tests the Laplace calibration (``laplace_scale`` and
``sample_laplace``); it runs no pipeline's release.

Calibrations used here:
    Laplace scale   b = S / epsilon                      (pure epsilon-DP)
    Gaussian sigma  S * sqrt(2 ln(1.25/delta)) / epsilon ((epsilon, delta)-DP)
"""

from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

__all__ = [
    "SensitivityNorm",
    "PrivacyBudget",
    "Sensitivity",
    "RngState",
    "laplace_scale",
    "sample_laplace",
    "gaussian_sigma",
    "DpCheckReport",
    "empirical_dp_check",
]

class SensitivityNorm(Enum):
    """Norm in which a query's sensitivity is measured."""

    L1 = "l1"
    L2 = "l2"


@dataclass(frozen=True)
class PrivacyBudget:
    """Privacy parameters of one mechanism invocation.

    ``epsilon`` bounds the multiplicative distinguishability of neighbouring
    datasets; ``delta`` is the slack probability of approximate DP and must be
    0 for the (pure) Laplace mechanism.
    """

    epsilon: float
    delta: float = 0.0

    def __post_init__(self) -> None:
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not (0.0 <= self.delta < 1.0):
            raise ValueError(f"delta must be in [0, 1), got {self.delta}")


@dataclass(frozen=True)
class Sensitivity:
    """Maximum change of a query's output when one record changes."""

    value: float
    norm: SensitivityNorm = SensitivityNorm.L1

    def __post_init__(self) -> None:
        if not (self.value >= 0 and math.isfinite(self.value)):
            raise ValueError(f"sensitivity must be non-negative and finite, got {self.value}")


def _label_hash(label: object) -> int:
    """Stable 64-bit hash of a substream label (not Python's salted hash)."""
    digest = hashlib.sha256(repr(label).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RngState:
    """Seeded, splittable random state.

    Wraps a counter-based Philox generator keyed by a non-negative integer
    seed of any size plus an optional label path. Identical (seed, path)
    pairs yield identical sample streams; :meth:`substream` derives
    independent child streams, so every sweep cell can own a reproducible
    generator keyed by its grid values.
    The generator is built on first use, so a state that only derives
    substreams never hashes its labels or seeds a Philox.
    """

    def __init__(self, seed: int, _path: tuple = ()):
        self.seed = operator.index(seed)  # a float seed is an error, not truncated
        if self.seed < 0:
            raise ValueError(f"a seed must be non-negative, got {seed}")
        self._path = tuple(_path)

    @cached_property
    def generator(self) -> np.random.Generator:
        entropy = [self.seed] + [_label_hash(p) for p in self._path]
        return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))

    def substream(self, *labels: object) -> "RngState":
        """Independent child stream keyed by (seed, path + labels)."""
        return RngState(self.seed, self._path + labels)

    def __repr__(self) -> str:
        return f"RngState(seed={self.seed}, path={self._path!r})"


def laplace_scale(sensitivity: Sensitivity, budget: PrivacyBudget) -> float:
    """Laplace scale b = S / epsilon for a pure epsilon-DP release.

    Requires an L1 sensitivity and a budget with delta = 0.
    """
    if sensitivity.norm is not SensitivityNorm.L1:
        raise ValueError("Laplace calibration requires an L1 sensitivity")
    if sensitivity.value <= 0:
        raise ValueError(f"sensitivity must be positive, got {sensitivity.value}")
    if budget.delta != 0.0:
        raise ValueError("Laplace mechanism is pure epsilon-DP; delta must be 0")
    return sensitivity.value / budget.epsilon


def sample_laplace(scale: float, rng: RngState, size: int | tuple[int, ...]) -> np.ndarray:
    """An array of shape ``size`` drawn from Lap(0, scale); variance is 2*scale**2."""
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    return rng.generator.laplace(0.0, scale, size=size)


def gaussian_sigma(sensitivity: Sensitivity, budget: PrivacyBudget) -> float:
    """Gaussian sigma = (S/epsilon) * sqrt(2 ln(1.25/delta)).

    The classical (epsilon, delta) calibration; undefined for delta = 0,
    hence requires an approximate-DP budget and an L2 sensitivity.

    Known limit: the calibration is proven only for epsilon < 1. At
    delta = 1e-5 the exact delta of this sigma (Balle & Wang 2018, Thm 8) is
    2.27e-5 at epsilon = 10, and about 1 from epsilon = 100 up.
    """
    if sensitivity.norm is not SensitivityNorm.L2:
        raise ValueError("Gaussian calibration requires an L2 sensitivity")
    if sensitivity.value <= 0:
        raise ValueError(f"sensitivity must be positive, got {sensitivity.value}")
    if budget.delta <= 0.0:
        raise ValueError("Gaussian mechanism requires delta > 0")
    return (sensitivity.value / budget.epsilon) * math.sqrt(2.0 * math.log(1.25 / budget.delta))


@dataclass(frozen=True)
class DpCheckReport:
    """Outcome of one empirical distinguishability check: the worst bin
    ratio, the bound it is held to, whether it held, and the bins compared."""

    max_ratio: float
    bound: float
    passed: bool
    eligible_bins: int


# empirical_dp_check's one release and its fixed settings: the count of the
# records above 0.5 on two datasets that differ in one record (ten records,
# five above 0.5, and the same ten with one of those five flipped below), the
# count's L1 sensitivity, the histogram's bins, the slack on exp(epsilon) that
# absorbs the ratio's sampling error, and the hits both histograms need in a
# bin before its ratio is compared.
_DP_CHECK_COUNTS = (5.0, 4.0)
_DP_CHECK_SENSITIVITY = Sensitivity(1.0, SensitivityNorm.L1)
_DP_CHECK_BINS = 40
_DP_CHECK_TOLERANCE = 1.2
_DP_CHECK_MIN_BIN_HITS = 1000


def empirical_dp_check(budget: PrivacyBudget, trials: int = 100_000, *,
                       rng: RngState) -> DpCheckReport:
    """Empirically test the epsilon bound of the Laplace calibration.

    Releases a count of the records above 0.5 (L1 sensitivity 1) plus
    Lap(1/epsilon), noised by ``laplace_scale`` and ``sample_laplace``,
    ``trials`` times on each of two datasets that differ in one record (their
    counts are 5 and 4; ``rng`` draws the first sample, then the second). It
    histograms both output samples over 40 shared bins and takes the worst
    two-sided frequency ratio across bins where both histograms record at
    least ``_DP_CHECK_MIN_BIN_HITS`` outcomes (low-count bins are excluded
    because finite-sample ratio estimates blow up there). The check passes
    when

        max_ratio <= bound = exp(epsilon) * 1.2.

    It tests the calibration alone: no pipeline's release is run.
    Raises if ``trials`` < 10_000 or no bin reaches the hit threshold.
    """
    if trials < 10_000:
        raise ValueError(f"need at least 10_000 trials for a stable estimate, got {trials}")

    scale = laplace_scale(_DP_CHECK_SENSITIVITY, budget)
    out_a, out_b = (count + sample_laplace(scale, rng, size=trials) for count in _DP_CHECK_COUNTS)
    edges = np.linspace(min(out_a.min(), out_b.min()), max(out_a.max(), out_b.max()),
                        _DP_CHECK_BINS + 1)
    hist_a, hist_b = (np.histogram(out, bins=edges)[0] for out in (out_a, out_b))

    eligible = (hist_a >= _DP_CHECK_MIN_BIN_HITS) & (hist_b >= _DP_CHECK_MIN_BIN_HITS)
    if not eligible.any():
        raise ValueError("no histogram bin reached the minimum hit count; increase trials")

    pa, pb = hist_a[eligible], hist_b[eligible]
    max_ratio = float(np.maximum(pa / pb, pb / pa).max())
    bound = math.exp(budget.epsilon) * _DP_CHECK_TOLERANCE
    return DpCheckReport(max_ratio=max_ratio, bound=bound, passed=max_ratio <= bound,
                         eligible_bins=int(eligible.sum()))
