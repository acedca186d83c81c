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


def logsumexp(a, axis=None):
    """log(sum(exp(a))) over axis, shifted by the maximum so no term overflows.

    A slice whose entries are all -inf gives -inf.
    """
    a = np.asarray(a, dtype=float)
    peak = np.max(a, axis=axis, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    with np.errstate(divide="ignore"):
        total = np.log(np.sum(np.exp(a - peak), axis=axis))
    return total + np.squeeze(peak, axis=axis)
