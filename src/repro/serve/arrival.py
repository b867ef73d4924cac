"""Seeded open-loop arrival processes.

Both generators yield absolute arrival times in simulated nanoseconds,
starting from 0, and never touch the ``random`` module's global state: the
caller hands in a private :class:`random.Random` so two identical-seed serve
runs produce byte-identical request streams (the crashmc determinism
pattern).
"""

from __future__ import annotations

import random
from typing import Iterator

#: The bursty (on/off Markov-modulated Poisson) process: ON and OFF rates
#: as multiples of the mean, and the mean ON+OFF cycle length.
BURSTY_PEAK_TO_MEAN = 8.0
BURSTY_TROUGH_TO_MEAN = 0.25
BURSTY_CYCLE_NS = 2e6


def poisson_arrivals(rng: random.Random, rate_per_ns: float,
                     ) -> Iterator[float]:
    """A Poisson process: i.i.d. exponential inter-arrival times.

    ``rate_per_ns`` is the offered load λ in requests per simulated
    nanosecond (requests/s divided by 1e9).
    """
    if rate_per_ns <= 0:
        raise ValueError("arrival rate must be positive")
    t = 0.0
    while True:
        t += rng.expovariate(rate_per_ns)
        yield t


def bursty_arrivals(rng: random.Random, rate_per_ns: float,
                    ) -> Iterator[float]:
    """An on/off Markov-modulated Poisson process with the same mean rate.

    Alternates exponentially-distributed ON phases (rate
    :data:`BURSTY_PEAK_TO_MEAN` x the mean) with OFF phases
    (:data:`BURSTY_TROUGH_TO_MEAN` x); phase durations are
    chosen so the long-run average equals ``rate_per_ns``.  Restarting the
    exponential draw at each phase boundary is exact (memorylessness), so
    the clipped draws introduce no bias.
    """
    if rate_per_ns <= 0:
        raise ValueError("arrival rate must be positive")
    hi = rate_per_ns * BURSTY_PEAK_TO_MEAN
    lo = rate_per_ns * BURSTY_TROUGH_TO_MEAN
    on_fraction = (rate_per_ns - lo) / (hi - lo)
    t = 0.0
    on = True
    while True:
        share = on_fraction if on else 1.0 - on_fraction
        mean_phase = BURSTY_CYCLE_NS * share
        end = t + rng.expovariate(1.0 / mean_phase)
        rate = hi if on else lo
        while True:
            nxt = t + rng.expovariate(rate)
            if nxt >= end:
                break
            t = nxt
            yield t
        t = end
        on = not on
