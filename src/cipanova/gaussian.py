"""Numeric kernels: the log of 2 pi, seeded RNG streams and log-sum-exp."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class RandomSource:
    """Seed plus stream path; equal sources yield identical draw sequences."""

    seed: int
    stream: tuple[int, ...] = ()

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=self.stream))


def logsumexp(a) -> float:
    """log(sum(exp(a))) over every entry, shifted by the maximum so no term overflows.

    All entries -inf give -inf; an entry +inf gives +inf and a nan gives nan.
    """
    a = np.asarray(a, dtype=float)
    peak = a.max()
    if not np.isfinite(peak):
        peak = 0.0
    total = np.exp(a - peak).sum()
    return -np.inf if total == 0.0 else np.log(total) + peak
