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

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .core.state import InputError

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


class ObserverBelief(NamedTuple("ObserverBelief", (("grid", np.ndarray),
                                                    ("diffusion_rate", float)))):
    """Probability mass over grid cells, summing to one, and the rate at
    which quiet steps diffuse it toward uniform. The constructor checks
    both; `observer_update` builds its results with `tuple.__new__`, which
    checks nothing."""

    __slots__ = ()

    def __new__(cls, grid: np.ndarray, diffusion_rate: float = 0.0) -> "ObserverBelief":
        if grid.shape != (OBSERVER_GRID, OBSERVER_GRID):
            raise InputError("observer grid must be 20x20")
        if np.any(grid < 0):
            raise InputError("observer mass must be non-negative")
        total = grid.sum()
        if not total > 0.0:
            raise InputError(f"observer grid must hold some mass, total is {float(total)}")
        if not (0.0 <= diffusion_rate <= 1.0):
            raise InputError("diffusion_rate must lie in [0, 1]")
        return tuple.__new__(cls, (grid, diffusion_rate))

    @classmethod
    def uniform(cls, diffusion_rate: float = 0.0) -> "ObserverBelief":
        n = OBSERVER_GRID * OBSERVER_GRID
        return cls(np.full((OBSERVER_GRID, OBSERVER_GRID), 1.0 / n), diffusion_rate)

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

    The result is built without `ObserverBelief`'s checks, which would
    cost more than the update: its grid is the checked 20x20 grid of
    `belief` times non-negative factors, divided by a positive total, and
    the rate is `belief`'s. With rate 0 a quiet step returns `belief`
    itself.
    """
    grid = belief.grid
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
            return belief
        grid = (1.0 - rate) * grid + rate / grid.size
    else:
        raise InputError(f"unknown observed event {event!r}")

    total = grid.sum()
    if total <= 0:
        raise InputError("observer update produced zero total mass")
    return tuple.__new__(ObserverBelief, (grid / total, belief.diffusion_rate))


class CacheLayout:
    """The distinct cells that hide something and their row-major flat
    indices, in the iteration order of the set of int cells.

    `add` adds one cell to the set as a set built from the whole sequence
    adds it in turn, so the order, and with it `leakage_score`'s sum, is
    that of a layout built from the same cells at once. A set that lost a
    cell can iterate in another order, so a layout never drops one: when a
    cache moves, build a new layout from the cells in order. Each cell is
    checked as it comes in.
    """

    __slots__ = ("cells", "flat")

    def __init__(self, cells: Iterable[Cell] = ()):
        self.cells = {(int(r), int(c)) for r, c in cells}
        for cell in self.cells:
            _check_cell(cell)
        self._index()

    def add(self, cell: Cell) -> None:
        cell = _check_cell((int(cell[0]), int(cell[1])))
        if cell not in self.cells:
            self.cells.add(cell)
            self._index()

    def _index(self) -> None:
        self.flat = np.array([r * OBSERVER_GRID + c for r, c in self.cells], dtype=np.intp)


def leakage_score(belief: ObserverBelief, true_caches: Sequence[Cell] | CacheLayout) -> float:
    """Observer mass sitting on ground-truth cache cells, clipped to [0, 1].

    A uniform belief over G cells scores len(true_caches)/G (the no-information
    baseline); a belief concentrated on the true cells scores near one.
    Duplicate cells count once. Cells are (r, c) pairs; a caller that scores
    one layout at many steps passes its `CacheLayout`. The masses are added
    as Python floats in the set order of the distinct cells.
    """
    if not isinstance(true_caches, CacheLayout):
        true_caches = CacheLayout(true_caches)
    if not true_caches.cells:
        raise InputError("leakage_score requires a non-empty cache list")
    total = sum(belief.grid.ravel()[true_caches.flat].tolist())
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
