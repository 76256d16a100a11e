"""Hierarchical deterministic random streams.

Every run owns exactly one seed. All randomness is pulled from named
substreams derived from that seed, so that switching one component on or
off (an ablation) cannot perturb the draws seen by any other component.
Substreams also count their draw calls, which lets tests assert that an
ablation left the other streams untouched.
"""

from __future__ import annotations

import numpy as np

# Fixed substream identifiers. Order matters: it defines the derivation key,
# so adding new streams must append, never reorder.
STREAM_IDS: dict[str, int] = {
    "env": 0,
    "agent": 1,
    "adversary": 2,
    "verifier": 3,
    "bootstrap": 4,
}


class Substream:
    """Counting wrapper around a PCG64 generator bound to (seed, stream)."""

    def __init__(self, seed: int, name: str):
        if name not in STREAM_IDS:
            raise KeyError(f"unknown stream name: {name!r}")
        self.name = name
        self.seed = int(seed)
        seq = np.random.SeedSequence(entropy=int(seed), spawn_key=(STREAM_IDS[name],))
        self._gen = np.random.Generator(np.random.PCG64(seq))
        self.draws = 0

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        self.draws += 1
        return self._gen.uniform(low, high, size)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        self.draws += 1
        return self._gen.normal(loc, scale, size)

    def integers(self, low: int, high: int | None = None, size=None):
        self.draws += 1
        return self._gen.integers(low, high, size)

    def random(self, size=None):
        self.draws += 1
        return self._gen.random(size)

    def choice(self, a, size=None, replace: bool = True):
        self.draws += 1
        return self._gen.choice(a, size=size, replace=replace)

    def permutation(self, n: int):
        self.draws += 1
        return self._gen.permutation(n)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Substream(seed={self.seed}, name={self.name!r}, draws={self.draws})"


class RunStreams:
    """The substreams one run draws from. The report's bootstrap draws from
    its own `Substream(seed_start, "bootstrap")`: one index matrix per seed
    count, which every metric with that many seeds resamples with."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.env = Substream(seed, "env")
        self.agent = Substream(seed, "agent")
        self.adversary = Substream(seed, "adversary")
        self.verifier = Substream(seed, "verifier")

    def draw_counts(self) -> dict[str, int]:
        """Snapshot of per-stream draw-call counts, for ablation-purity checks."""
        return {
            name: getattr(self, name).draws
            for name in ("env", "agent", "adversary", "verifier")
        }
