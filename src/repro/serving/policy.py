"""Broker policies: retry backoff, synthetic service latencies, hedging.

Everything here is deterministic by construction:

* :class:`RetryPolicy` — exponential backoff with *seeded* jitter.  The
  jitter RNG for attempt ``a`` of request ``seq`` is derived via
  :func:`repro.runtime.parallel.stable_seed`, so two executions of the
  same serve run back off by bit-identical delays.
* :class:`LatencyModel` — per-(slot, seq) virtual service times.  Real
  inference is milliseconds: on a 2-core Xeon with one BLAS thread, a
  batch-1 replica call in the ``serve-chaos`` benchmark takes about
  1.1–1.2 ms at p50 and 1.4–1.5 ms at p98 (quartiles over 5 runs), and a
  ``closed-loop`` ACC tick (render, median blur, CAP-Attack, predict,
  control) about 10.0–10.7 ms at p50 and 11.8–13.5 ms at p98 (quartiles
  over 10 runs).  Wall-clock
  readings are banned from results (lint R002), so the broker runs on a
  *virtual clock*: service times are drawn from a seeded long-tailed
  distribution (lognormal body + occasional straggler) that gives
  deadlines, hedging and queue modeling something realistic to push
  against while keeping runs bit-reproducible.  The defaults are not yet
  fitted to those measurements.
* :class:`LatencyTracker` — streaming percentile estimate over completed
  request latencies; the broker hedges a request once its primary has been
  outstanding longer than the tracked percentile (the classic
  tail-at-scale recipe).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..runtime.parallel import stable_seed


@dataclass
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter (the retry
    budget itself is ``BrokerConfig.retries``)."""

    base_ms: float = 2.0        # backoff before the first retry
    multiplier: float = 2.0     # growth per attempt
    max_ms: float = 50.0        # backoff cap
    jitter_frac: float = 0.25   # uniform jitter as a fraction of the delay
    seed: int = 0

    def delay_ms(self, seq: int, attempt: int) -> float:
        """Virtual backoff before retry ``attempt`` (1-based) of ``seq``.

        Monotone non-decreasing in ``attempt`` up to the cap even with
        jitter: the jitter is strictly additive and bounded by a fraction
        of one *base* step, so it can never invert the exponential order
        (property-tested in ``tests/serving/test_policy.py``).
        """
        if attempt < 1:
            return 0.0
        delay = min(self.base_ms * self.multiplier ** (attempt - 1),
                    self.max_ms)
        rng = np.random.default_rng(
            stable_seed("backoff", seq, attempt, base=self.seed))
        jitter = float(rng.uniform(0.0, self.jitter_frac * self.base_ms))
        return delay + jitter


@dataclass
class LatencyModel:
    """Deterministic synthetic service-time distribution (virtual ms)."""

    base_ms: float = 8.0        # median service time
    sigma: float = 0.25         # lognormal shape of the body
    straggler_prob: float = 0.02
    straggler_factor: float = 8.0
    defended_extra_ms: float = 12.0   # defense purify + heavier variant cost
    seed: int = 0

    def service_ms(self, slot: int, seq: int, attempt: int,
                   defended: bool = False) -> float:
        """Service time for attempt ``attempt`` of ``seq`` on ``slot``."""
        rng = np.random.default_rng(
            stable_seed("latency", slot, seq, attempt, base=self.seed))
        latency = self.base_ms * float(rng.lognormal(0.0, self.sigma))
        if float(rng.random()) < self.straggler_prob:
            latency *= self.straggler_factor
        if defended:
            latency += self.defended_extra_ms
        return latency


class LatencyTracker:
    """Rolling percentile over completed request latencies (virtual ms)."""

    def __init__(self, percentile: float = 95.0, min_samples: int = 20,
                 window: int = 256):
        self.percentile = float(percentile)
        self.min_samples = int(min_samples)
        self.window = int(window)
        self._samples: List[float] = []

    def record(self, latency_ms: float) -> None:
        self._samples.append(float(latency_ms))
        if len(self._samples) > self.window:
            del self._samples[:len(self._samples) - self.window]

    def hedge_after_ms(self) -> Optional[float]:
        """Hedge threshold, or ``None`` while warming up / disabled."""
        if self.percentile >= 100.0:
            return None
        if len(self._samples) < self.min_samples:
            return None
        return float(np.percentile(np.array(self._samples), self.percentile))
