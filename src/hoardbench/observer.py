"""Adversary inference over cache locations.

The belief is a probability grid over a 20x20 arena. Sighting events update
it multiplicatively with a mixture likelihood: a kernel of weight w spread
uniformly over the cells near the sighting, plus weight (1 - w) spread over
the whole grid (the observer never fully trusts a single glimpse). Quiet
steps diffuse the belief toward uniform.

The kernel is 1/cnt on the block of cnt cells around the sighting (clipped
to the grid) and 0 elsewhere, so the likelihood takes only two values:
a = (1 - w)/n outside the block and b = a + w * (1/cnt) inside it. The update
multiplies by these two scalars instead of building a 20x20 likelihood
array. The result is bit-identical to the array form: outside the block that
form computed a + w * 0.0, which is exactly a, and inside it computed
a + w * (1.0/cnt) from the same operands in the same order; each cell is
then one multiplication by the same double, and the normalizing sum runs
over the same array.

The adversary runs the update on what it actually saw. An observer-aware
agent logs the visibility bit of every action it takes and knows this prior
and this rule, so the belief it could compute is exactly the adversary's;
family C therefore keeps one belief per run and lets the aware agent read it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core.state import InputError
from .trusted import trusted

OBSERVER_GRID = 20
CACHE_KERNEL_WIDTH = 3
CACHE_KERNEL_WEIGHT = 0.9
PRESENCE_KERNEL_WIDTH = 5
PRESENCE_KERNEL_WEIGHT = 0.5
NORMALIZATION_TOL = 1e-12

Cell = tuple[int, int]


@dataclass(frozen=True)
class SawCache:
    cell: Cell


@dataclass(frozen=True)
class SawPresence:
    cell: Cell


@dataclass(frozen=True)
class SawNothing:
    pass


ObservedEvent = SawCache | SawPresence | SawNothing


@trusted
@dataclass(frozen=True)
class ObserverBelief:
    """Probability mass over grid cells; sums to one once evidence or a prior
    exists, zero before initialization."""

    grid: np.ndarray
    observations_seen: int = 0
    diffusion_rate: float = 0.0

    def __post_init__(self):
        if self.grid.shape != (OBSERVER_GRID, OBSERVER_GRID):
            raise InputError("observer grid must be 20x20")
        if np.any(self.grid < 0):
            raise InputError("observer mass must be non-negative")
        if not (0.0 <= self.diffusion_rate <= 1.0):
            raise InputError("diffusion_rate must lie in [0, 1]")

    @classmethod
    def uniform(cls, diffusion_rate: float = 0.0) -> "ObserverBelief":
        n = OBSERVER_GRID * OBSERVER_GRID
        return cls(np.full((OBSERVER_GRID, OBSERVER_GRID), 1.0 / n), 0, diffusion_rate)

    @classmethod
    def empty(cls, diffusion_rate: float = 0.0) -> "ObserverBelief":
        return cls(np.zeros((OBSERVER_GRID, OBSERVER_GRID)), 0, diffusion_rate)

    def total_mass(self) -> float:
        return float(self.grid.sum())

    def mass_at(self, cell: Cell) -> float:
        return float(self.grid[cell[0], cell[1]])

    def dump_row_major(self) -> list[float]:
        return [float(v) for v in self.grid.reshape(-1)]


def _check_cell(cell: Cell) -> Cell:
    r, c = cell
    if not (0 <= r < OBSERVER_GRID and 0 <= c < OBSERVER_GRID):
        raise InputError(f"cell {cell} outside the {OBSERVER_GRID}x{OBSERVER_GRID} grid")
    return int(r), int(c)


def _sighting_update(grid: np.ndarray, cell: Cell, width: int, weight: float) -> np.ndarray:
    """grid times the mixture likelihood of a sighting at `cell`: the uniform
    part a everywhere, plus the kernel's 1/cnt share of weight on the
    width x width block centered at `cell`, clipped to the grid."""
    half = width // 2
    r, c = cell
    r0, r1 = max(0, r - half), min(OBSERVER_GRID, r + half + 1)
    c0, c1 = max(0, c - half), min(OBSERVER_GRID, c + half + 1)
    # A numpy scalar, so a float32 or integer grid is promoted to float64
    # exactly as the product with a float64 likelihood array promoted it.
    a = np.float64((1.0 - weight) / (OBSERVER_GRID * OBSERVER_GRID))
    b = a + weight * (1.0 / ((r1 - r0) * (c1 - c0)))
    out = grid * a
    out[r0:r1, c0:c1] = grid[r0:r1, c0:c1] * b
    return out


def observer_update(belief: ObserverBelief, event: ObservedEvent) -> ObserverBelief:
    """Condition the belief on one sighting event and renormalize.

    The result is built without `ObserverBelief`'s checks: its grid is the
    checked 20x20 grid of `belief` (or a uniform one) times non-negative
    factors, divided by a positive total, and the rate is `belief`'s.
    """
    grid = belief.grid
    if belief.total_mass() == 0.0:
        # No prior yet: initialize to uniform before conditioning.
        grid = np.full_like(grid, 1.0 / grid.size)

    if isinstance(event, SawCache):
        cell = _check_cell(event.cell)
        grid = _sighting_update(grid, cell, CACHE_KERNEL_WIDTH, CACHE_KERNEL_WEIGHT)
    elif isinstance(event, SawPresence):
        cell = _check_cell(event.cell)
        grid = _sighting_update(grid, cell, PRESENCE_KERNEL_WIDTH, PRESENCE_KERNEL_WEIGHT)
    elif isinstance(event, SawNothing):
        rate = belief.diffusion_rate
        if rate == 0.0:
            # Exact identity; skip the renormalization round-off.
            return ObserverBelief._trusted(belief.grid, belief.observations_seen + 1, rate)
        grid = (1.0 - rate) * grid + rate / grid.size
    else:
        raise InputError(f"unknown observed event {event!r}")

    total = grid.sum()
    if total <= 0:
        raise InputError("observer update produced zero total mass")
    return ObserverBelief._trusted(
        grid / total, belief.observations_seen + 1, belief.diffusion_rate
    )


@functools.lru_cache(maxsize=1)
def _cell_indices(cells: tuple[Cell, ...]) -> np.ndarray:
    """Row-major flat indices of the distinct cells, in the iteration order
    of the set of int cells. Memoised on the tuple: equal tuples convert to
    equal int cells, so they share one result; an invalid tuple raises and
    is not cached. The result is read-only because every caller shares it."""
    distinct = {(int(r), int(c)) for r, c in cells}
    for cell in distinct:
        _check_cell(cell)
    idx = np.array([r * OBSERVER_GRID + c for r, c in distinct], dtype=np.intp)
    idx.flags.writeable = False
    return idx


def leakage_score(belief: ObserverBelief, true_caches: list[Cell]) -> float:
    """Observer mass sitting on ground-truth cache cells, clipped to [0, 1].

    A uniform belief over G cells scores len(true_caches)/G (the no-information
    baseline); a belief concentrated on the true cells scores near one.
    Duplicate cells count once. Cells must be hashable (r, c) pairs; repeat
    calls with an equal cell sequence reuse its compiled flat indices. The
    masses are added as Python floats in the set order of the distinct cells.
    """
    if not true_caches:
        raise InputError("leakage_score requires a non-empty cache list")
    idx = _cell_indices(tuple(true_caches))
    total = sum(belief.grid.ravel()[idx].tolist())
    return max(0.0, min(1.0, total))


def pilfer_select(belief: ObserverBelief, m: int) -> list[Cell]:
    """The m highest-mass cells, ties broken by row-major order."""
    n = OBSERVER_GRID * OBSERVER_GRID
    if not (1 <= m <= n):
        raise InputError(f"pilfer budget must lie in [1, {n}]")
    flat = belief.grid.reshape(-1)
    order = np.lexsort((np.arange(n), -flat))
    out = []
    for k in order[:m]:
        out.append((int(k) // OBSERVER_GRID, int(k) % OBSERVER_GRID))
    return out
