import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hoardbench.core.state import InputError
from hoardbench.observer import (
    CACHE_KERNEL_WIDTH,
    CACHE_KERNEL_WEIGHT,
    NORMALIZATION_TOL,
    OBSERVER_GRID,
    PRESENCE_KERNEL_WIDTH,
    PRESENCE_KERNEL_WEIGHT,
    CacheLayout,
    ObserverBelief,
    SawCache,
    SawNothing,
    SawPresence,
    leakage_score,
    observer_update,
    pilfer_select,
)
from hoardbench.rng import Substream

N_CELLS = OBSERVER_GRID * OBSERVER_GRID


def test_saw_cache_puts_maximum_at_the_cell():
    belief = observer_update(ObserverBelief.uniform(), SawCache((5, 5)))
    assert belief.mass_at((5, 5)) == belief.grid.max()


def test_saw_nothing_with_zero_diffusion_is_identity():
    belief = observer_update(ObserverBelief.uniform(0.0), SawCache((3, 7)))
    after = observer_update(belief, SawNothing())
    assert after is belief


def test_two_disjoint_sightings_leave_equal_modes():
    # Kernel arithmetic oracle: by symmetry the two modes carry equal mass.
    belief = ObserverBelief.uniform()
    belief = observer_update(belief, SawCache((2, 2)))
    belief = observer_update(belief, SawCache((17, 17)))
    assert abs(belief.mass_at((2, 2)) - belief.mass_at((17, 17))) < 1e-9


def test_normalization_preserved_by_every_update():
    stream = Substream(4, "adversary")
    belief = ObserverBelief.uniform(0.05)
    for k in range(200):
        u = stream.random()
        if u < 0.4:
            cell = (int(stream.integers(0, 20)), int(stream.integers(0, 20)))
            belief = observer_update(belief, SawCache(cell))
        elif u < 0.7:
            cell = (int(stream.integers(0, 20)), int(stream.integers(0, 20)))
            belief = observer_update(belief, SawPresence(cell))
        else:
            belief = observer_update(belief, SawNothing())
        assert abs(belief.grid.sum() - 1.0) < 1e-12


def test_constructor_refuses_a_grid_with_no_mass():
    with pytest.raises(InputError, match="total is 0.0"):
        ObserverBelief(np.zeros((OBSERVER_GRID, OBSERVER_GRID)))


def test_cell_outside_grid_rejected():
    with pytest.raises(InputError):
        observer_update(ObserverBelief.uniform(), SawCache((20, 0)))


def test_leakage_uniform_baseline():
    belief = ObserverBelief.uniform()
    caches = [(1, 1), (5, 9), (12, 3), (18, 18)]
    assert leakage_score(belief, caches) == pytest.approx(4 / 400, abs=1e-15)


def test_leakage_maximal_when_mass_on_single_true_cache():
    grid = np.zeros((20, 20))
    grid[7, 7] = 1.0
    belief = ObserverBelief(grid)
    assert leakage_score(belief, [(7, 7)]) == 1.0


def test_leakage_after_one_sighting_matches_kernel_arithmetic():
    # 0.1 * (1/400) + 0.9 * (1/9) = 0.10025 for an interior cell.
    belief = observer_update(ObserverBelief.uniform(), SawCache((10, 10)))
    assert leakage_score(belief, [(10, 10)]) == pytest.approx(0.10025, abs=1e-12)


def test_leakage_requires_caches():
    with pytest.raises(InputError):
        leakage_score(ObserverBelief.uniform(), [])


def test_monotone_leakage_single_cache():
    # With one true cache, sighting it never decreases leakage.
    stream = Substream(11, "adversary")
    for trial in range(40):
        cell = int(stream.integers(0, N_CELLS))
        cache = (cell // 20, cell % 20)
        belief = ObserverBelief.uniform(0.03)
        for _ in range(30):
            before = leakage_score(belief, [cache])
            if stream.random() < 0.5:
                belief = observer_update(belief, SawCache(cache))
                assert leakage_score(belief, [cache]) >= before - 1e-12
            else:
                belief = observer_update(belief, SawNothing())


def test_sighted_cell_mass_never_decreases():
    # The general monotone form: a sighting never lowers the observer's mass
    # on the sighted cell itself, whatever else is cached. (With several
    # caches, total mass-on-truth can legitimately fall: evidence for one
    # cache drains suspicion from the others under any normalized posterior.)
    stream = Substream(12, "adversary")
    for trial in range(40):
        k = int(stream.integers(2, 8))
        cells = stream.choice(N_CELLS, size=k, replace=False)
        caches = [(int(c) // 20, int(c) % 20) for c in cells]
        belief = ObserverBelief.uniform(0.03)
        for _ in range(30):
            u = stream.random()
            if u < 0.5:
                target = caches[int(stream.integers(0, k))]
                before = belief.mass_at(target)
                belief = observer_update(belief, SawCache(target))
                assert belief.mass_at(target) >= before - 1e-15
            else:
                belief = observer_update(belief, SawNothing())


def test_pilfer_single_peak():
    grid = np.zeros((20, 20))
    grid[5, 5] = 1.0
    assert pilfer_select(ObserverBelief(grid), 1) == [(5, 5)]


def test_pilfer_uniform_ties_break_row_major():
    assert pilfer_select(ObserverBelief.uniform(), 3) == [(0, 0), (0, 1), (0, 2)]


def test_pilfer_after_sighting_takes_the_kernel_cells():
    belief = observer_update(ObserverBelief.uniform(), SawCache((5, 5)))
    cells = pilfer_select(belief, 9)
    expected = [(r, c) for r in (4, 5, 6) for c in (4, 5, 6)]
    assert cells == expected


def test_pilfer_budget_validated():
    with pytest.raises(InputError):
        pilfer_select(ObserverBelief.uniform(), 0)
    with pytest.raises(InputError):
        pilfer_select(ObserverBelief.uniform(), 401)


def test_agent_and_adversary_updates_are_bit_identical():
    # Same event log, same update code: the two beliefs agree exactly.
    stream = Substream(21, "adversary")
    a = ObserverBelief.uniform(0.02)
    b = ObserverBelief.uniform(0.02)
    for _ in range(60):
        u = stream.random()
        if u < 0.4:
            event = SawCache((int(stream.integers(0, 20)), int(stream.integers(0, 20))))
        elif u < 0.6:
            event = SawPresence((int(stream.integers(0, 20)), int(stream.integers(0, 20))))
        else:
            event = SawNothing()
        a = observer_update(a, event)
        b = observer_update(b, event)
    assert np.array_equal(a.grid, b.grid)


def test_edge_kernel_clips_and_renormalizes():
    belief = observer_update(ObserverBelief.uniform(), SawCache((0, 0)))
    assert abs(belief.grid.sum() - 1.0) < 1e-12
    # Clipped kernel spreads over 4 cells instead of 9.
    assert belief.mass_at((0, 0)) > 0.2


# Frozen copy of the array-form update that the two-scalar update replaced:
# a 20x20 kernel and likelihood grid built per sighting. The oracle tests
# below require exact equality with it, byte for byte.
def _ref_kernel(cell, width):
    half = width // 2
    r, c = cell
    grid = np.zeros((OBSERVER_GRID, OBSERVER_GRID))
    r0, r1 = max(0, r - half), min(OBSERVER_GRID, r + half + 1)
    c0, c1 = max(0, c - half), min(OBSERVER_GRID, c + half + 1)
    grid[r0:r1, c0:c1] = 1.0
    return grid / grid.sum()


def _ref_likelihood(cell, width, weight):
    n = OBSERVER_GRID * OBSERVER_GRID
    return (1.0 - weight) / n + weight * _ref_kernel(cell, width)


def _ref_update(grid, rate, event):
    """Next grid, or None where the update must raise for zero total mass."""
    prior = grid
    if isinstance(event, SawCache):
        grid = grid * _ref_likelihood(event.cell, CACHE_KERNEL_WIDTH, CACHE_KERNEL_WEIGHT)
    elif isinstance(event, SawPresence):
        grid = grid * _ref_likelihood(event.cell, PRESENCE_KERNEL_WIDTH, PRESENCE_KERNEL_WEIGHT)
    elif rate == 0.0:
        return prior
    else:
        grid = (1.0 - rate) * grid + rate / grid.size
    total = grid.sum()
    return None if total <= 0 else grid / total


# Frozen copy of the leakage sum over the set of int cells, in set order.
def _ref_leakage(grid, caches):
    cells = {(int(r), int(c)) for r, c in caches}
    for r, c in cells:
        if not (0 <= r < OBSERVER_GRID and 0 <= c < OBSERVER_GRID):
            raise InputError("outside")
    total = sum(float(grid[r, c]) for r, c in cells)
    return max(0.0, min(1.0, total))


def _non_uniform_grid(seed):
    grid = Substream(seed, "adversary").uniform(0.0, 1.0, size=(OBSERVER_GRID, OBSERVER_GRID))
    grid[grid < 0.3] = 0.0
    return grid / grid.sum()


def test_sighting_update_matches_array_form_on_every_cell():
    priors = {
        "uniform": ObserverBelief.uniform().grid,
        "non_uniform": _non_uniform_grid(5),
        "float32": _non_uniform_grid(6).astype(np.float32),
    }
    for name, prior in priors.items():
        belief = ObserverBelief(prior, 0.02)
        for r in range(OBSERVER_GRID):
            for c in range(OBSERVER_GRID):
                for event in (SawCache((r, c)), SawPresence((r, c))):
                    after = observer_update(belief, event)
                    expected = _ref_update(prior, 0.02, event)
                    assert after.grid.dtype == expected.dtype, (name, event)
                    assert after.grid.tobytes() == expected.tobytes(), (name, event)
                    assert after.diffusion_rate == 0.02


_GRIDS = st.one_of(
    st.just(ObserverBelief.uniform().grid),
    arrays(np.float64, (OBSERVER_GRID, OBSERVER_GRID), elements=st.floats(0.0, 1e3)).filter(
        lambda grid: grid.sum() > 0.0
    ),
)
_COORD = st.integers(-2, OBSERVER_GRID + 1)
_IN_GRID = st.tuples(st.integers(0, OBSERVER_GRID - 1), st.integers(0, OBSERVER_GRID - 1))
_EVENTS = st.one_of(
    _IN_GRID.map(SawCache), _IN_GRID.map(SawPresence), st.just(SawNothing())
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_GRIDS, st.sampled_from([0.0, 0.02, 0.5, 1.0]), st.lists(_EVENTS, max_size=12))
def test_update_sequences_match_array_form(prior, rate, events):
    belief = ObserverBelief(prior, rate)
    grid = prior
    for event in events:
        grid = _ref_update(grid, rate, event)
        if grid is None:
            with pytest.raises(InputError):
                observer_update(belief, event)
            return
        belief = observer_update(belief, event)
        assert belief.grid.tobytes() == grid.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.sampled_from([0.0, 0.01, 0.05, 0.3, 1.0]),
    st.lists(_EVENTS, max_size=40),
)
def test_mass_stays_one_and_cells_non_negative(rate, events):
    belief = ObserverBelief.uniform(rate)
    for event in events:
        before = belief
        belief = observer_update(belief, event)
        if isinstance(event, SawNothing) and rate == 0.0:
            assert belief is before
        assert abs(belief.grid.sum() - 1.0) <= NORMALIZATION_TOL
        assert np.all(belief.grid >= 0.0)
        assert belief.diffusion_rate == rate
        # The update skips ObserverBelief's checks; the public constructor
        # re-runs them on its result.
        ObserverBelief(belief.grid, belief.diffusion_rate)


def _as(kind, v):
    return {"int": v, "np": np.int64(v), "float": float(v), "frac": v + 0.25}[kind]


_CELLS = st.lists(
    st.tuples(_COORD, _COORD, st.sampled_from(["int", "np", "float", "frac"])).map(
        lambda t: (_as(t[2], t[0]), _as(t[2], t[1]))
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_GRIDS, _CELLS)
@example(ObserverBelief.uniform().grid, [(3, 4), (3, 4), (np.int64(3), 4.0), (3.0, np.int64(4))])
@example(ObserverBelief.uniform().grid, [(0, 0), (19, 19), (-1, 5)])
@example(ObserverBelief.uniform().grid, [(5, 5), (20, 0)])
def test_leakage_matches_set_order_sum(grid, cells):
    belief = ObserverBelief(grid)
    try:
        expected = _ref_leakage(grid, cells)
    except InputError:
        expected = None
    # The list, an equal tuple, a second equal but distinct tuple and a
    # layout built from the list all score alike; an invalid list raises
    # every time.
    for arg in (cells, tuple(cells), tuple(list(cells))):
        if expected is None:
            with pytest.raises(InputError):
                leakage_score(belief, arg)
        else:
            assert leakage_score(belief, arg) == expected
    if expected is None:
        with pytest.raises(InputError):
            CacheLayout(cells)
    else:
        assert leakage_score(belief, CacheLayout(cells)) == expected


def test_leakage_adds_masses_in_set_order():
    cells = [(0, 1), (19, 19), (10, 3), (5, 17), (2, 2)]
    grid = np.zeros((OBSERVER_GRID, OBSERVER_GRID))
    for (r, c), mass in zip(cells, (0.1, 0.2, 1e-17, 1e-16, 0.05)):
        grid[r, c] = mass
    expected = _ref_leakage(grid, cells)
    # The example only discriminates if sorted and input order round
    # differently from set order.
    assert expected != sum(float(grid[r, c]) for r, c in sorted(cells))
    assert expected != sum(float(grid[r, c]) for r, c in cells)
    assert leakage_score(ObserverBelief(grid), cells) == expected
    assert leakage_score(ObserverBelief(grid), tuple(cells)) == expected


def test_leakage_memo_never_admits_out_of_grid_cells():
    belief = ObserverBelief.uniform()
    valid = ((1, 1), (5, 9))
    assert leakage_score(belief, valid) == 2 / N_CELLS
    for bad in ([(20, 0)], [(0, 20)], [(-1, 0)], [*valid, (19, 20)], [(np.int64(20), 3)]):
        for _ in range(2):
            with pytest.raises(InputError):
                leakage_score(belief, bad)
        assert leakage_score(belief, valid) == 2 / N_CELLS
    # Equal cells in another representation score alike.
    assert leakage_score(belief, ((np.int64(1), 1.0), (5.0, np.int64(9)))) == 2 / N_CELLS
    assert leakage_score(belief, tuple(list(valid))) == 2 / N_CELLS


# A few cells, so that placements and moves repeat them.
_FEW_CELLS = st.sampled_from([(0, 0), (0, 1), (3, 7), (7, 3), (12, 12), (19, 19), (19, 0)])
# ("place", cell) appends a cache; ("move", k, cell) moves the cache k-th
# from the end of the placed list, if there is one.
_LAYOUT_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("place"), _FEW_CELLS),
        st.tuples(st.just("move"), st.integers(1, 8), _FEW_CELLS),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_GRIDS, _LAYOUT_OPS)
def test_a_kept_layout_scores_as_the_layout_rebuilt_from_scratch(grid, ops):
    # As family C keeps it: a placed cache adds its cell, a moved one
    # rebuilds the layout from the placed cells in order.
    belief = ObserverBelief(grid)
    placed = []
    layout = CacheLayout()
    for op in ops:
        if op[0] == "place":
            placed.append(op[1])
            layout.add(op[1])
        elif len(placed) >= op[1]:
            placed[-op[1]] = op[2]
            layout = CacheLayout(placed)
        if not placed:
            assert not layout.cells
            continue
        fresh = CacheLayout(tuple(placed))
        assert list(layout.cells) == list(fresh.cells) == list(set(placed))
        assert layout.flat.tobytes() == fresh.flat.tobytes()
        assert leakage_score(belief, layout) == leakage_score(belief, tuple(placed))
        assert leakage_score(belief, layout) == _ref_leakage(grid, placed)


def test_a_layout_refuses_an_out_of_grid_cell_and_keeps_its_cells():
    layout = CacheLayout([(1, 1)])
    for bad in ((20, 0), (0, -1), (np.int64(20), 3)):
        with pytest.raises(InputError):
            layout.add(bad)
    assert list(layout.cells) == [(1, 1)]
    assert leakage_score(ObserverBelief.uniform(), layout) == 1 / N_CELLS
