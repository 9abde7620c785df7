"""Core epsilon-DP primitives.

Implements the pieces every private pipeline in this package is built from:
privacy budgets, query sensitivity, calibrated Laplace/Gaussian noise, and an
empirical distinguishability check that validates the epsilon bound

    Pr[M(D) in T] <= exp(epsilon) * Pr[M(D') in T]

on a concrete noised query by histogramming its outputs over neighbouring
datasets.

Calibrations used here:
    Laplace scale   b = S / epsilon                      (pure epsilon-DP)
    Gaussian sigma  S * sqrt(2 ln(1.25/delta)) / epsilon ((epsilon, delta)-DP)
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Sequence

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

_MASK64 = (1 << 64) - 1


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

    Wraps a counter-based Philox generator keyed by a 64-bit seed plus an
    optional label path. Identical (seed, path) pairs yield identical sample
    streams; :meth:`substream` derives independent child streams, so every
    sweep cell can own a reproducible generator keyed by its coordinates.
    The generator is built on first use, so a state that only derives
    substreams never hashes its labels or seeds a Philox.
    """

    def __init__(self, seed: int, _path: tuple = ()):
        self.seed = int(seed) & _MASK64
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
    """Outcome of one empirical distinguishability check."""

    max_ratio: float
    passed: bool
    epsilon: float
    tolerance_factor: float
    eligible_bins: int
    trials: int


def _neighbour_kind(data: Sequence[float], neighbour: Sequence[float]) -> str:
    """Classify the pair as 'identical', 'substitution' or 'add_remove'; raise otherwise."""
    a, b = Counter(data), Counter(neighbour)
    if len(data) == len(neighbour):
        n_changed = sum((a - b).values())
        if n_changed == 0:
            return "identical"
        if n_changed == 1:
            return "substitution"
        raise ValueError("datasets of equal size must differ in at most one record")
    if abs(len(data) - len(neighbour)) == 1:
        small, large = (a, b) if len(data) < len(neighbour) else (b, a)
        if not (small - large):
            return "add_remove"
        raise ValueError("size-1 difference must be a pure record addition/removal")
    raise ValueError("datasets are not neighbours (size difference exceeds one record)")


def empirical_dp_check(
    query: Callable[[Sequence[float]], float],
    data: Sequence[float],
    neighbour: Sequence[float],
    budget: PrivacyBudget,
    bins: int = 40,
    trials: int = 100_000,
    rng: RngState | None = None,
    *,
    sensitivity: float = 1.0,
    tolerance_factor: float = 1.2,
    min_bin_hits: int = 1000,
) -> DpCheckReport:
    """Empirically test the epsilon bound of a Laplace-noised query.

    Runs the query + Lap(sensitivity/epsilon) release ``trials`` times on each
    of two neighbouring datasets, histograms both output samples over shared
    bin edges, and takes the worst two-sided frequency ratio across bins where
    both histograms record at least ``min_bin_hits`` outcomes (low-count bins
    are excluded because finite-sample ratio estimates blow up there). The
    check passes when

        max_ratio <= exp(epsilon) * tolerance_factor.

    Raises if the datasets are not neighbours, ``trials`` < 10_000, or no bin
    reaches the hit threshold.
    """
    _neighbour_kind(data, neighbour)
    if trials < 10_000:
        raise ValueError(f"need at least 10_000 trials for a stable estimate, got {trials}")
    if bins < 2:
        raise ValueError(f"bins must be >= 2, got {bins}")
    if rng is None:
        rng = RngState(0)

    scale = laplace_scale(Sensitivity(sensitivity, SensitivityNorm.L1), budget)
    out_a = float(query(data)) + sample_laplace(scale, rng, size=trials)
    out_b = float(query(neighbour)) + sample_laplace(scale, rng, size=trials)

    lo = min(out_a.min(), out_b.min())
    hi = max(out_a.max(), out_b.max())
    edges = np.linspace(lo, hi, bins + 1)
    hist_a, _ = np.histogram(out_a, bins=edges)
    hist_b, _ = np.histogram(out_b, bins=edges)

    eligible = (hist_a >= min_bin_hits) & (hist_b >= min_bin_hits)
    n_eligible = int(eligible.sum())
    if n_eligible == 0:
        raise ValueError("no histogram bin reached the minimum hit count; increase trials or reduce bins")

    pa = hist_a[eligible].astype(float)
    pb = hist_b[eligible].astype(float)
    ratios = np.maximum(pa / pb, pb / pa)
    max_ratio = float(ratios.max())
    passed = max_ratio <= math.exp(budget.epsilon) * tolerance_factor
    return DpCheckReport(
        max_ratio=max_ratio,
        passed=passed,
        epsilon=budget.epsilon,
        tolerance_factor=tolerance_factor,
        eligible_bins=n_eligible,
        trials=trials,
    )
