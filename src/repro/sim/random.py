"""Named, independently seeded random streams.

A simulation draws randomness for many unrelated purposes (per-node compute
times, communication destinations, failure times...).  Using a single RNG
couples them: adding one draw anywhere shifts every subsequent draw, making
experiments impossible to compare across configurations.  C++SIM's "random
flows" solve this with one stream per purpose; we do the same.

Streams are derived deterministically from a root seed and the stream name
via SHA-256, so stream independence does not depend on creation order.
"""

from __future__ import annotations

import hashlib
import math
import random as _stdlib_random
from typing import Any, Optional, Sequence

__all__ = ["RandomStreams", "Stream"]


def _derive_seed(root_seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class Stream:
    """A single random stream with the distributions the simulator needs."""

    __slots__ = ("name", "_rng", "_seed")

    def __init__(self, name: str, seed: int):
        self.name = name
        self._seed = seed
        self._rng = _stdlib_random.Random(seed)

    # -- distributions --------------------------------------------------
    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._rng.random()

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high]."""
        return self._rng.uniform(low, high)

    def exponential(self, mean: float) -> float:
        """Exponential variate with the given *mean* (not rate).

        Used for compute phases and MTBF-driven failure inter-arrival times.
        """
        if mean <= 0:
            raise ValueError(f"exponential mean must be > 0, got {mean}")
        # Inverse-CDF with guard against log(0).
        u = self._rng.random()
        while u <= 0.0:  # pragma: no cover - probability ~0
            u = self._rng.random()
        return -mean * math.log(u)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        return self._rng.randint(low, high)

    def choice(self, seq: Sequence[Any], weights: Optional[Sequence[float]] = None) -> Any:
        """Pick one element, optionally with relative weights."""
        if not seq:
            raise IndexError("choice from empty sequence")
        if weights is None:
            return seq[self._rng.randrange(len(seq))]
        if len(weights) != len(seq):
            raise ValueError("weights length must match sequence length")
        return self._rng.choices(seq, weights=weights, k=1)[0]

    def bernoulli(self, p: float) -> bool:
        """True with probability ``p``."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability must be in [0,1], got {p}")
        return self._rng.random() < p

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Stream {self.name!r} seed={self._seed}>"


class RandomStreams:
    """Factory and registry of named random streams.

    ``streams.stream("cluster0/node3/compute")`` always returns the same
    object for the same name, seeded independently of every other name.
    """

    def __init__(self, root_seed: int = 0):
        self.root_seed = root_seed
        self._streams: dict[str, Stream] = {}

    def stream(self, name: str) -> Stream:
        st = self._streams.get(name)
        if st is None:
            st = Stream(name, _derive_seed(self.root_seed, name))
            self._streams[name] = st
        return st

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __len__(self) -> int:
        return len(self._streams)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<RandomStreams root_seed={self.root_seed} n={len(self._streams)}>"
