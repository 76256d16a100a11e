import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hoardbench import memory
from hoardbench.core.state import Action, InputError, Observation
from hoardbench.envs.family_b import FamilyBConfig, run_family_b
from hoardbench.ledger import CostLedger
from hoardbench.memory import (
    BEARING_SCALE,
    COLLINEAR_TOL,
    DIST_SCALE,
    EARLY_STOP_SCORE,
    GRID_DIV,
    CueVector,
    EpisodeRecord,
    LandmarkSet,
    MemoryStore,
    Query,
    StoreVariant,
    _NO_PICK,
    _cue_anchor_positions,
    _decode,
    _fold_best,
    _ring_cells,
    _flat_scores,
    brute_force_retrieve,
    cue_similarity,
    decode_location,
    encode_cue,
    encode_cues,
    grid_cell,
    retrieve,
    trilaterate,
    write,
    write_many,
)
from hoardbench.rng import RunStreams, Substream


def _landmarks(seed=0, count=25):
    return LandmarkSet.sample(count, Substream(seed, "env"))


def _store_with(episodes, variant=StoreVariant.CLUSTERED):
    store = MemoryStore(variant)
    for e in episodes:
        store.append(e)
    return store


def _episode(i, item_type, loc, landmarks, value=1.0):
    return EpisodeRecord(
        id=i,
        written_at=i,
        item_type=item_type,
        item_value=value,
        location=loc,
        cue=encode_cue(loc, landmarks),
    )


def index_partition(store: MemoryStore) -> dict[tuple[int, tuple[int, int]], tuple[int, ...]]:
    """Flatten the clustered index for comparison against a reference partition."""
    out: dict[tuple[int, tuple[int, int]], tuple[int, ...]] = {}
    for item_type, cells in store.index.items():
        for cell, ids in cells.items():
            out[(item_type, cell)] = tuple(ids)
    return out


def reference_partition(
    episodes: list[EpisodeRecord],
) -> dict[tuple[int, tuple[int, int]], tuple[int, ...]]:
    """Brute-force (type, grid cell) partition of an episode list."""
    out: dict[tuple[int, tuple[int, int]], list[int]] = {}
    for e in episodes:
        out.setdefault((e.item_type, grid_cell(e.location)), []).append(e.id)
    return {k: tuple(v) for k, v in out.items()}


def _random_episodes(n, landmarks, stream, types=4):
    eps = []
    t = stream.integers(1, types + 1, size=n)
    locs = stream.uniform(0.05, 0.95, size=(n, 2))
    for i in range(n):
        eps.append(_episode(i, int(t[i]), (float(locs[i, 0]), float(locs[i, 1])), landmarks))
    return eps


# --- Cues -------------------------------------------------------------------


def test_cue_references_three_distinct_nearest_landmarks():
    lm = _landmarks()
    cue = encode_cue((0.25, 0.75), lm)
    assert len(set(cue.landmark_ids)) == 3
    # Oracle: brute-force nearest three.
    d = np.hypot(lm.positions[:, 0] - 0.25, lm.positions[:, 1] - 0.75)
    assert set(cue.landmark_ids) == set(np.argsort(d)[:3].tolist())


def test_cue_self_similarity_is_one():
    lm = _landmarks()
    cue = encode_cue((0.4, 0.6), lm)
    assert cue_similarity(cue, cue) == pytest.approx(1.0, abs=1e-12)


def test_cue_requires_distinct_landmarks():
    with pytest.raises(InputError):
        CueVector((1, 1, 2), (0.1, 0.2, 0.3), (0.0, 0.1, 0.2))


def _scalar_encode_cue(location, landmarks):
    """Frozen copy of `encode_cue` as it was before `encode_cues`: one point,
    the ids wrapped in an array on every call. The oracle for both forms."""
    if len(landmarks.ids) < 3:
        raise InputError("need at least three landmarks to encode a cue")
    p = np.asarray(location, dtype=float)
    deltas = landmarks.positions - p
    dist = np.hypot(deltas[:, 0], deltas[:, 1])
    order = np.lexsort((np.asarray(landmarks.ids), dist))[:3]
    ids = tuple(int(landmarks.ids[i]) for i in order)
    ds = tuple(float(dist[i]) for i in order)
    bearings = tuple(float(math.atan2(deltas[i, 1], deltas[i, 0])) for i in order)
    return CueVector(ids, ds, bearings)


def _cue_bits(cue):
    return (
        cue.landmark_ids,
        tuple(v.hex() for v in cue.distances),
        tuple(v.hex() for v in cue.bearings),
    )


@st.composite
def _encode_cases(draw):
    """A landmark set and 1-40 points. Ids are 0..L-1 or shuffled and
    non-contiguous; on a 1/8 lattice, landmarks and points sit at exactly
    equal distances (and landmarks may coincide). Points may sit exactly on a
    landmark or outside the unit square."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    count = draw(st.integers(3, 30))
    if draw(st.booleans()):
        ids = tuple(int(i) for i in rng.permutation(rng.choice(1000, size=count, replace=False)))
    else:
        ids = tuple(range(count))
    lattice = draw(st.booleans())
    if lattice:
        positions = rng.integers(0, 9, size=(count, 2)) / 8.0
    else:
        positions = rng.uniform(0.0, 1.0, size=(count, 2))
    points = []
    for _ in range(draw(st.integers(1, 40))):
        kind = int(rng.integers(3))
        if kind == 0:
            point = positions[int(rng.integers(count))]
        elif kind == 1 and lattice:
            point = rng.integers(0, 9, size=2) / 8.0
        else:
            point = rng.uniform(-0.2, 1.2, size=2)
        points.append((float(point[0]), float(point[1])))
    return LandmarkSet(ids, positions), points


_TIE = LandmarkSet((7, 3, 5, 1), np.array([[0.25, 0.5], [0.75, 0.5], [0.5, 0.25], [0.5, 0.75]]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_encode_cases())
@example((_TIE, [(0.5, 0.5)]))  # four landmarks at exactly 0.25: ties by id
@example((_TIE, [(0.25, 0.5), (0.5, 0.5), (0.9, 0.1)]))  # on a landmark, tie, plain
def test_cue_encoders_are_bit_identical_to_the_scalar_form(case):
    landmarks, points = case
    expected = [_cue_bits(_scalar_encode_cue(p, landmarks)) for p in points]
    assert [_cue_bits(c) for c in encode_cues(points, landmarks)] == expected
    assert [_cue_bits(encode_cue(p, landmarks)) for p in points] == expected
    assert [_cue_bits(c) for c in encode_cues(points[-1:], landmarks)] == expected[-1:]


def test_cue_encoders_need_three_landmarks():
    two = LandmarkSet((0, 1), np.array([[0.1, 0.1], [0.9, 0.9]]))
    for encode in (lambda: encode_cue((0.5, 0.5), two), lambda: encode_cues([(0.5, 0.5)], two)):
        with pytest.raises(InputError, match="three landmarks"):
            encode()
    assert encode_cues([], _landmarks()) == []


# --- Trilateration -----------------------------------------------------------


def test_decode_zero_drift_is_exact():
    lm = _landmarks(3)
    for loc in [(0.2, 0.3), (0.8, 0.1), (0.5, 0.55)]:
        rec = _episode(0, 1, loc, lm)
        decoded = decode_location(rec, lm)
        assert math.hypot(decoded[0] - loc[0], decoded[1] - loc[1]) < 1e-9


def test_decode_translation_equivariance():
    lm = _landmarks(4)
    loc = (0.4, 0.45)
    rec = _episode(0, 1, loc, lm)
    shifted = LandmarkSet(lm.ids, lm.positions + np.array([0.1, 0.0]))
    decoded = decode_location(rec, shifted)
    assert decoded[0] == pytest.approx(loc[0] + 0.1, abs=1e-9)
    assert decoded[1] == pytest.approx(loc[1], abs=1e-9)


def test_decode_collinear_falls_back_to_stored_location():
    lm = LandmarkSet(
        (0, 1, 2), np.array([[0.1, 0.1], [0.5, 0.5], [0.9, 0.9]])
    )
    loc = (0.3, 0.7)
    # Cue built by hand against the collinear anchors.
    d = [math.hypot(loc[0] - x, loc[1] - y) for x, y in lm.positions]
    b = [math.atan2(y - loc[1], x - loc[0]) for x, y in lm.positions]
    rec = EpisodeRecord(0, 0, 1, 1.0, loc, CueVector((0, 1, 2), tuple(d), tuple(b)))
    assert decode_location(rec, lm) == loc


def test_decode_drift_error_band():
    # Monte Carlo oracle fixed ahead of the assertion: mean decode error for
    # drift sigma 0.02 over 1000 fixtures lies in [0.01, 0.04].
    stream = Substream(77, "env")
    errors = []
    for k in range(1000):
        lm = LandmarkSet.sample(12, stream)
        loc = (float(stream.uniform(0.1, 0.9)), float(stream.uniform(0.1, 0.9)))
        rec = _episode(0, 1, loc, lm)
        drifted = lm.drifted(0.02, stream)
        decoded = decode_location(rec, drifted)
        errors.append(math.hypot(decoded[0] - loc[0], decoded[1] - loc[1]))
    mean_error = float(np.mean(errors))
    assert 0.01 <= mean_error <= 0.04


def test_trilateration_rejects_collinear():
    anchors = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]])
    point, degenerate = trilaterate(anchors, np.array([0.1, 0.1, 0.1]))
    assert degenerate and point is None


def _numpy_scalar_trilaterate(anchors, distances):
    """Frozen copy of the trilateration that worked on numpy scalars."""
    a = np.asarray(anchors, dtype=float)
    d = np.asarray(distances, dtype=float)
    cross = (a[1, 0] - a[0, 0]) * (a[2, 1] - a[0, 1]) - (a[1, 1] - a[0, 1]) * (
        a[2, 0] - a[0, 0]
    )
    if abs(cross) < COLLINEAR_TOL:
        return None, True
    rows = []
    rhs = []
    for j in (1, 2):
        rows.append([2.0 * (a[j, 0] - a[0, 0]), 2.0 * (a[j, 1] - a[0, 1])])
        rhs.append(
            (a[j, 0] ** 2 - a[0, 0] ** 2)
            + (a[j, 1] ** 2 - a[0, 1] ** 2)
            - (d[j] ** 2 - d[0] ** 2)
        )
    m = np.asarray(rows)
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    x = (rhs[0] * m[1, 1] - rhs[1] * m[0, 1]) / det
    y = (m[0, 0] * rhs[1] - m[1, 0] * rhs[0]) / det
    return (float(x), float(y)), False


def _hex_point(point):
    return None if point is None else tuple(v.hex() for v in point)


def _hex(result):
    point, degenerate = result
    return _hex_point(point), degenerate


_coord = st.floats(-1.5, 1.5, allow_nan=False)


@st.composite
def _trilateration_cases(draw):
    """(anchors, distances); near_collinear puts the third anchor within a
    few COLLINEAR_TOL of the line through the first two."""
    if draw(st.booleans()):
        anchors = draw(st.lists(st.tuples(_coord, _coord), min_size=3, max_size=3))
    else:
        (x0, y0), (dx, dy) = draw(st.lists(st.tuples(_coord, _coord), min_size=2, max_size=2))
        t, u = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
        eps = draw(st.floats(-4 * COLLINEAR_TOL, 4 * COLLINEAR_TOL))
        anchors = [(x0, y0), (x0 + t * dx, y0 + t * dy), (x0 + u * dx - eps, y0 + u * dy + eps)]
    distances = draw(st.lists(st.floats(0.0, 2.0), min_size=3, max_size=3))
    return anchors, distances


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_trilateration_cases())
@example(([(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)], [0.1, 0.1, 0.1]))  # exactly collinear
@example(([(0.0, 0.0), (1.0, 0.0), (0.0, 1e-6)], [0.5, 0.6, 0.7]))  # cross == COLLINEAR_TOL
def test_trilaterate_is_bit_identical_to_numpy_scalar_form(case):
    anchors, distances = case
    assert _hex(trilaterate(anchors, distances)) == _hex(
        _numpy_scalar_trilaterate(anchors, distances)
    )


# --- Writes ------------------------------------------------------------------


def _dig(x, y, item_type=1, value=2.0, step=0):
    return Action(
        "dig",
        {"x": x, "y": y, "item_type": float(item_type), "item_value": value,
         "step": float(step)},
    )


def test_single_write_builds_cue_from_three_nearest():
    lm = _landmarks()
    store = MemoryStore(StoreVariant.CLUSTERED)
    obs = Observation({"phase": 0.0}, landmarks=lm.as_obs_tuples())
    write(store, obs, _dig(0.25, 0.75))
    assert len(store) == 1
    ep = store.episodes[0]
    assert ep.item_type == 1 and ep.item_value == 2.0
    assert ep.location == (0.25, 0.75)
    assert ep.cue == encode_cue((0.25, 0.75), lm)


def test_duplicate_episode_id_aborts():
    lm = _landmarks()
    store = MemoryStore(StoreVariant.FLAT)
    store.append(_episode(0, 1, (0.5, 0.5), lm))
    with pytest.raises(RuntimeError):
        store.append(_episode(0, 1, (0.4, 0.4), lm))


def test_thousand_writes_match_brute_force_partition():
    lm = _landmarks(5)
    store = MemoryStore(StoreVariant.CLUSTERED)
    stream = Substream(11, "env")
    obs = Observation({"phase": 0.0}, landmarks=lm.as_obs_tuples())
    types = stream.integers(1, 5, size=1000)
    locs = stream.uniform(0.0, 1.0, size=(1000, 2))
    for i in range(1000):
        write(store, obs, _dig(float(locs[i, 0]), float(locs[i, 1]), int(types[i]), step=i))
    partition = index_partition(store)
    assert sum(len(v) for v in partition.values()) == 1000
    assert partition == reference_partition(store.episodes)


def test_write_many_stores_what_one_write_per_action_stores():
    lm = _landmarks(6)
    obs = Observation({"phase": 0.0}, landmarks=lm.as_obs_tuples())
    stream = Substream(12, "env")
    locs = stream.uniform(0.0, 1.0, size=(70, 2))
    actions = [
        _dig(float(x), float(y), 1 + k % 3, value=0.5 + k, step=2 * k)
        for k, (x, y) in enumerate(locs)
    ]
    for variant in StoreVariant:
        one, many = MemoryStore(variant), MemoryStore(variant)
        for action in actions:
            write(one, obs, action)
        write_many(many, obs, actions[:5])
        write_many(many, obs, actions[5:])
        assert [
            (e.id, e.written_at, e.item_type, e.item_value, e.location, _cue_bits(e.cue))
            for e in many.episodes
        ] == [
            (e.id, e.written_at, e.item_type, e.item_value, e.location, _cue_bits(e.cue))
            for e in one.episodes
        ]
        assert index_partition(many) == index_partition(one)


def test_write_many_rejects_what_write_rejects():
    lm = _landmarks()
    obs = Observation({"phase": 0.0}, landmarks=lm.as_obs_tuples())
    store = MemoryStore(StoreVariant.FLAT)
    # The kind and the snapshot are checked before anything is stored.
    with pytest.raises(InputError, match="dig"):
        write_many(store, obs, [_dig(0.1, 0.2), Action("noop", {}), _dig(0.3, 0.4)])
    with pytest.raises(InputError, match="landmark snapshot"):
        write_many(store, Observation({"phase": 0.0}), [_dig(0.1, 0.2)])
    assert len(store) == 0
    # A bad payload stops the batch at its own action, as a loop of `write` does.
    with pytest.raises(InputError, match="item_type"):
        write_many(store, obs, [_dig(0.1, 0.2), _dig(0.3, 0.4, item_type=0)])
    assert len(store) == 1


# --- Retrieval ---------------------------------------------------------------


def test_singleton_store_probes_one_for_both_variants():
    lm = _landmarks()
    for variant in StoreVariant:
        store = _store_with([_episode(0, 2, (0.3, 0.3), lm)], variant)
        q = Query(2, encode_cue((0.3, 0.3), lm))
        r = retrieve(store, q, lm)
        assert r.episode.id == 0
        assert r.probes_used == 1
        assert store.probe_counter == 1


def test_absent_type_returns_empty():
    lm = _landmarks()
    for variant in StoreVariant:
        store = _store_with([_episode(0, 2, (0.3, 0.3), lm)], variant)
        query = Query(5, encode_cue((0.3, 0.3), lm))
        for search in (retrieve, brute_force_retrieve):
            r = search(store, query, lm)
            assert (r.episode, r.decoded_location, r.probes_used) == (None, None, 0)
        assert store.probe_counter == 0


def test_empty_query_rejected():
    lm = _landmarks()
    cue = encode_cue((0.3, 0.3), lm)
    for variant in StoreVariant:
        store = _store_with([_episode(0, 2, (0.3, 0.3), lm)], variant)
        for query in (Query(None, cue), Query(2, None), Query(None, None)):
            for search in (retrieve, brute_force_retrieve):
                with pytest.raises(InputError, match="item type and a cue"):
                    search(store, query, lm)


def test_probe_counts_at_n1024_match_reference():
    # N=1024 uniform over 8 types, zero drift: the flat archive examines all
    # same-type episodes (roughly 128), the clustered index a handful.
    lm = _landmarks(9)
    stream = Substream(21, "env")
    episodes = _random_episodes(1024, lm, stream, types=8)
    flat = _store_with(episodes, StoreVariant.FLAT)
    clustered = _store_with(episodes, StoreVariant.CLUSTERED)
    flat_probes, clust_probes = [], []
    for e in episodes[::31]:
        q = Query(e.item_type, encode_cue(e.location, lm))
        rf = retrieve(flat, q, lm)
        rc = retrieve(clustered, q, lm)
        ref = brute_force_retrieve(flat, q, lm)
        assert rf.episode.id == ref.episode.id == rc.episode.id
        same_type = sum(1 for x in episodes if x.item_type == e.item_type)
        assert rf.probes_used == same_type
        flat_probes.append(rf.probes_used)
        clust_probes.append(rc.probes_used)
    assert np.mean(flat_probes) == pytest.approx(128, rel=0.25)
    assert max(clust_probes) <= 16


def test_equal_content_equivalence_up_to_64_episodes():
    # Identical episode sets, zero drift: flat, clustered, and the
    # brute-force reference agree on every query.
    stream = Substream(31, "env")
    for trial in range(6):
        lm = LandmarkSet.sample(15, stream)
        n = 8 * (trial + 1)
        episodes = _random_episodes(n, lm, stream, types=3)
        flat = _store_with(episodes, StoreVariant.FLAT)
        clustered = _store_with(episodes, StoreVariant.CLUSTERED)
        for e in episodes:
            q = Query(e.item_type, encode_cue(e.location, lm))
            ids = {
                retrieve(flat, q, lm).episode.id,
                retrieve(clustered, q, lm).episode.id,
                brute_force_retrieve(flat, q, lm).episode.id,
            }
            assert ids == {e.id}


def _agrees(result, reference):
    """Same episode and same decoded location."""
    same_episode = (result.episode is None) == (reference.episode is None) and (
        result.episode is None or result.episode.id == reference.episode.id
    )
    return same_episode and result.decoded_location == reference.decoded_location


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 90),
    types=st.integers(1, 4),
    landmark_count=st.integers(4, 25),
    drift=st.sampled_from([0.0, 0.005, 0.02, 0.05, 0.2]),
)
def test_retrieval_under_landmark_drift_matches_brute_force(
    seed, n, types, landmark_count, drift
):
    # Episodes are encoded against the landmarks at write time; queries and
    # decodes use the drifted set, as in family B's query phase.
    stream = Substream(seed, "env")
    written = LandmarkSet.sample(landmark_count, stream)
    episodes = _random_episodes(n, written, stream, types=types)
    flat = _store_with(episodes, StoreVariant.FLAT)
    clustered = _store_with(episodes, StoreVariant.CLUSTERED)
    current = written.drifted(drift, stream)
    for k in range(8):
        if k % 2 == 0:
            episode = episodes[int(stream.integers(0, n))]
            location, item_type = episode.location, episode.item_type
        else:
            location = tuple(float(v) for v in stream.uniform(0.0, 1.0, size=2))
            item_type = int(stream.integers(1, types + 2))  # may be absent
        query = Query(item_type, encode_cue(location, current))
        reference = brute_force_retrieve(flat, query, current)
        assert _agrees(retrieve(flat, query, current), reference)
        result = retrieve(clustered, query, current)
        same_type = sum(1 for e in episodes if e.item_type == item_type)
        if result.probes_used == same_type:
            assert _agrees(result, reference)


def _frozen_slot_scores(store, item_type, query):
    """Frozen copy of `_slot_scores`, the flat scorer before its index kept
    every landmark's entries in one table: one array of (rows, distances,
    cos, sin) per landmark id, and one `exp` and one indexed add per slot."""
    idx = [i for i, e in enumerate(store.episodes) if e.item_type == item_type]
    grouped = {}
    for row, i in enumerate(idx):
        cue = store.episodes[i].cue
        for k, lid in enumerate(cue.landmark_ids):
            grouped.setdefault(lid, []).append((row, cue.distances[k], cue.bearings[k]))
    slots = {}
    for lid, entries in grouped.items():
        bear = np.array([e[2] for e in entries])
        slots[lid] = (np.array([e[0] for e in entries], dtype=int),
                      np.array([e[1] for e in entries]), np.cos(bear), np.sin(bear))
    total = np.zeros(len(idx))
    for j in range(3):
        hit = slots.get(query.landmark_ids[j])
        if hit is None:
            continue
        rows, dist, bcos, bsin = hit
        qc, qs = math.cos(query.bearings[j]), math.sin(query.bearings[j])
        dd = (dist - query.distances[j]) / DIST_SCALE
        dc = bcos - qc
        ds = bsin - qs
        total[rows] += np.exp(-0.5 * (dd * dd + (dc * dc + ds * ds) / BEARING_SCALE**2))
    return total / 3


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 120),
    landmark_count=st.integers(3, 25),
    queries=st.integers(1, 12),
    drift=st.sampled_from([0.0, 0.01, 0.2]),
)
def test_flat_kernel_is_bit_identical_to_the_per_slot_scorer(
    seed, n, landmark_count, queries, drift
):
    stream = Substream(seed, "env")
    written = LandmarkSet.sample(landmark_count, stream)
    store = _store_with(_random_episodes(n, written, stream, types=2), StoreVariant.FLAT)
    current = written.drifted(drift, stream)
    cues = [
        encode_cue(tuple(float(v) for v in stream.uniform(0.0, 1.0, size=2)), current)
        for _ in range(queries)
    ]
    for item_type in (1, 2):
        if not any(e.item_type == item_type for e in store.episodes):
            continue
        index = store._type_index(item_type)
        for cue in cues:
            expected = _frozen_slot_scores(store, item_type, cue)
            assert _flat_scores(index, cue).tobytes() == expected.tobytes()


# --- Clustered retrieval against its former numpy scoring ---------------------


def _frozen_batch_scores(store, rows, query):
    """Frozen copy of the vectorized scorer the clustered path used before it
    scored with `cue_similarity`, over the rows' (ids, distances, bearings)
    feature matrix."""
    cues = [store.episodes[r].cue for r in rows]
    feats = np.array([[*c.landmark_ids, *c.distances, *c.bearings] for c in cues], dtype=float)
    e_ids = feats[:, 0:3]
    e_d = feats[:, 3:6]
    e_b = feats[:, 6:9]
    e_cos = np.cos(e_b)
    e_sin = np.sin(e_b)
    total = np.zeros(len(feats))
    bscale2 = BEARING_SCALE * BEARING_SCALE
    for j in range(3):
        match = e_ids == float(query.landmark_ids[j])
        if not match.any():
            continue
        qc, qs = math.cos(query.bearings[j]), math.sin(query.bearings[j])
        dd = (e_d - query.distances[j]) / DIST_SCALE
        dc = e_cos - qc
        ds = e_sin - qs
        contrib = np.exp(-0.5 * (dd * dd + (dc * dc + ds * ds) / bscale2))
        total += np.where(match, contrib, 0.0).sum(axis=1)
    return total / 3


def _frozen_clustered_retrieve(store, query, current):
    """Frozen copy of the former clustered path: (episode id, probes,
    decoded location). Each ring is scored as one batch and folded in probe
    order; without usable geometry the whole type bucket is scored in sorted
    cell order and picked by argmax."""
    bucket = store.index.get(query.item_type, {})
    if not bucket:
        return None, 0, None
    rank = store._id_to_index
    anchors, ok = _cue_anchor_positions(query.cue, current)
    predicted = None
    if ok:
        predicted, degenerate = trilaterate(anchors, np.asarray(query.cue.distances))
        if degenerate:
            predicted = None
    if predicted is None:
        rows = [rank[i] for cell in sorted(bucket) for i in bucket[cell]]
        scores = _frozen_batch_scores(store, rows, query.cue)
        best_idx = rows[int(np.argmax(scores))]
        probes = len(rows)
    else:
        center = grid_cell(predicted)
        best_idx, best, probes = None, -1.0, 0
        for ring in range(GRID_DIV + 1):
            rows = [rank[i] for cell in _ring_cells(center, ring) for i in bucket.get(cell, ())]
            if rows:
                scores = _frozen_batch_scores(store, rows, query.cue)
                probes += len(rows)
                for pos, row in enumerate(rows):
                    s = float(scores[pos])
                    if s > best:
                        best_idx, best = row, s
            if best >= EARLY_STOP_SCORE or (ring >= 1 and probes > 0):
                break
    episode = store.episodes[best_idx]
    return episode.id, probes, _decode(episode, current)


def _collinear_landmarks(count, stream):
    """Landmarks on one line: every cue triple is collinear to within
    floating-point error, so clustered retrieval falls back to a bucket
    scan until drift breaks the line."""
    origin = stream.uniform(0.2, 0.8, size=2)
    angle = float(stream.uniform(0.0, math.pi))
    t = stream.uniform(-0.6, 0.6, size=count)
    positions = origin + np.outer(t, [math.cos(angle), math.sin(angle)])
    return LandmarkSet(tuple(range(count)), positions)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 60),
    copies=st.integers(0, 12),
    types=st.integers(1, 3),
    landmark_count=st.integers(3, 20),
    collinear=st.booleans(),
    drift=st.sampled_from([0.0, 0.0, 0.005, 0.02, 0.05, 0.2]),
)
@example(seed=1, n=30, copies=10, types=1, landmark_count=3, collinear=True, drift=0.0)
@example(seed=2, n=40, copies=12, types=2, landmark_count=5, collinear=False, drift=0.0)
def test_clustered_retrieval_matches_its_former_numpy_scoring(
    seed, n, copies, types, landmark_count, collinear, drift
):
    # Copies reuse an earlier episode's cue and type, at the same location or
    # at another one, so equal scores occur within a cell and across cells:
    # the first in probe order must win, as before.
    stream = Substream(seed, "env")
    sample = _collinear_landmarks if collinear else LandmarkSet.sample
    written = sample(landmark_count, stream)
    episodes = _random_episodes(n, written, stream, types=types)
    for k in range(copies):
        source = episodes[int(stream.integers(0, len(episodes)))]
        location = source.location
        if k % 2:
            location = tuple(float(v) for v in stream.uniform(0.05, 0.95, size=2))
        episodes.append(replace(source, id=len(episodes), location=location))
    store = _store_with(episodes, StoreVariant.CLUSTERED)
    current = written.drifted(drift, stream)
    for k in range(8):
        if k % 2 == 0:
            episode = episodes[int(stream.integers(0, len(episodes)))]
            location, item_type = episode.location, episode.item_type
        else:
            location = tuple(float(v) for v in stream.uniform(0.0, 1.0, size=2))
            item_type = int(stream.integers(1, types + 2))  # may be absent
        query = Query(item_type, encode_cue(location, current))
        episode_id, probes, decoded = _frozen_clustered_retrieve(store, query, current)
        result = retrieve(store, query, current)
        assert (None if result.episode is None else result.episode.id) == episode_id
        assert result.probes_used == probes
        assert result.decoded_location == decoded


def test_probe_scaling_ladder():
    # Flat probes grow linearly with same-type count; clustered probes stay
    # bounded by the populated-bucket sizes.
    stream = Substream(41, "env")
    lm = LandmarkSet.sample(25, stream)
    flat_means = {}
    clust_maxes = {}
    for n in (64, 256, 1024, 4096):
        episodes = _random_episodes(n, lm, stream, types=4)
        flat = _store_with(episodes, StoreVariant.FLAT)
        clustered = _store_with(episodes, StoreVariant.CLUSTERED)
        fp, cp = [], []
        for e in episodes[:: max(1, n // 32)]:
            q = Query(e.item_type, encode_cue(e.location, lm))
            fp.append(retrieve(flat, q, lm).probes_used)
            cp.append(retrieve(clustered, q, lm).probes_used)
        flat_means[n] = np.mean(fp)
        max_bucket = max(
            len(ids) for cells in clustered.index.values() for ids in cells.values()
        )
        clust_maxes[n] = (max(cp), max_bucket)
    for n in (64, 256, 1024):
        ratio = flat_means[4 * n] / flat_means[n]
        assert 2.5 <= ratio <= 6.0  # linear growth in same-type count
    for n, (worst, max_bucket) in clust_maxes.items():
        assert worst <= 9 * max_bucket


def test_storage_parity_between_variants():
    lm = _landmarks()
    stream = Substream(51, "env")
    episodes = _random_episodes(40, lm, stream)
    flat = _store_with(episodes, StoreVariant.FLAT)
    clustered = _store_with(episodes, StoreVariant.CLUSTERED)
    assert flat.episodes == clustered.episodes


def test_probe_counter_monotone_and_consistent():
    lm = _landmarks()
    stream = Substream(53, "env")
    store = _store_with(_random_episodes(30, lm, stream))
    last = 0
    for e in store.episodes[:10]:
        q = Query(e.item_type, encode_cue(e.location, lm))
        r = retrieve(store, q, lm)
        assert store.probe_counter == last + r.probes_used
        last = store.probe_counter


def test_grid_cell_clipping():
    assert grid_cell((0.0, 0.0)) == (0, 0)
    assert grid_cell((1.0, 1.0)) == (15, 15)
    assert grid_cell((0.51, 0.49)) == (8, 7)


# --- Python-float decode against the numpy-scalar form ------------------------


def _numpy_scalar_decode(record, landmarks, stops=None):
    """Frozen copy of the decode that indexed numpy arrays: anchors as an
    (3, 2) float64 array, ids looked up with `tuple.index`. `stops`, when
    given, collects why each solve that ended on its line search ended."""
    try:
        anchors = np.asarray(
            [
                (
                    float(landmarks.positions[landmarks.ids.index(i), 0]),
                    float(landmarks.positions[landmarks.ids.index(i), 1]),
                )
                for i in record.cue.landmark_ids
            ]
        )
    except ValueError:
        return record.location
    cue = record.cue
    cross = (anchors[1, 0] - anchors[0, 0]) * (anchors[2, 1] - anchors[0, 1]) - (
        anchors[1, 1] - anchors[0, 1]
    ) * (anchors[2, 0] - anchors[0, 0])
    if abs(cross) < COLLINEAR_TOL:
        return record.location
    x = y = 0.0
    for k in range(3):
        x += anchors[k, 0] - cue.distances[k] * math.cos(cue.bearings[k])
        y += anchors[k, 1] - cue.distances[k] * math.sin(cue.bearings[k])
    x, y = x / 3, y / 3

    def cost_at(px, py):
        res = []
        total = 0.0
        for k in range(3):
            f = math.hypot(px - anchors[k, 0], py - anchors[k, 1]) - cue.distances[k]
            res.append(f)
            total += f * f
        return total, res

    cost, res = cost_at(x, y)
    for _ in range(30):
        gx = gy = hxx = hxy = hyy = 0.0
        for k in range(3):
            dx = x - anchors[k, 0]
            dy = y - anchors[k, 1]
            r = math.hypot(dx, dy)
            if r < 1e-12:
                continue
            jx, jy = dx / r, dy / r
            gx += jx * res[k]
            gy += jy * res[k]
            hxx += jx * jx
            hxy += jx * jy
            hyy += jy * jy
        hxx += 1e-8
        hyy += 1e-8
        det = hxx * hyy - hxy * hxy
        if det <= 0.0:
            break
        sx = (gx * hyy - gy * hxy) / det
        sy = (hxx * gy - hxy * gx) / det
        t = 1.0
        new_cost, new_res, nx, ny = cost, res, x, y
        accepted = False
        for _ in range(20):
            cx, cy = x - t * sx, y - t * sy
            c, rr = cost_at(cx, cy)
            if c <= cost:
                new_cost, new_res, nx, ny = c, rr, cx, cy
                accepted = True
                break
            t *= 0.5
        if new_cost > cost or (nx == x and ny == y):
            if stops is not None:
                stops.append("same point" if accepted else "no trial accepted")
            break
        moved = math.hypot(nx - x, ny - y)
        x, y, cost, res = nx, ny, new_cost, new_res
        if moved < 1e-12:
            if stops is not None:
                stops.append("moved")
            break
    return x, y


_unit = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def _decode_cases(draw):
    """(record, current landmarks): a cue written against one landmark set,
    decoded against a drifted, possibly degenerate, copy of it."""
    shape = draw(st.sampled_from(("free", "near_collinear", "on_anchor", "unknown_id")))
    count = 3 if shape == "near_collinear" else draw(st.integers(3, 6))
    points = draw(st.lists(st.tuples(_unit, _unit), min_size=count, max_size=count))
    if shape == "near_collinear":
        # Three landmarks on a line, the middle one nudged off it, so the
        # anchors' cross product straddles the collinearity tolerance.
        t0, t1, t2 = (draw(_unit) for _ in range(3))
        slope = draw(st.floats(-2.0, 2.0))
        nudge = draw(st.floats(-1e-4, 1e-4))
        points = [(t0, slope * t0), (t1, slope * t1 + nudge), (t2, slope * t2)]
    written = LandmarkSet(tuple(range(count)), np.array(points, dtype=float))
    location = (draw(_unit), draw(_unit))
    if shape == "on_anchor":
        # The bearing-fix start lands within 1e-12 of this anchor.
        ax, ay = points[draw(st.integers(0, count - 1))]
        location = (ax + draw(st.floats(-1e-13, 1e-13)), ay)
    cue = encode_cue(location, written)
    drift = draw(st.sampled_from((0.0, 1e-9, 0.01, 0.1)))
    noise = np.array(
        draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * count, max_size=2 * count))
    ).reshape(count, 2)
    ids = written.ids
    if shape == "unknown_id":
        ids = tuple(i + 100 if i == cue.landmark_ids[1] else i for i in ids)
    current = LandmarkSet(ids, written.positions + drift * noise)
    return EpisodeRecord(0, 0, 1, 1.0, location, cue), current


_COLLINEAR = LandmarkSet((0, 1, 2), np.array([[0.1, 0.1], [0.5, 0.5], [0.9, 0.9]]))
_HAND_CUE = EpisodeRecord(
    0, 0, 1, 1.0, (0.3, 0.7), CueVector((0, 1, 2), (0.1, 0.2, 0.3), (0.0, 1.0, 2.0))
)
_ON_ANCHOR = LandmarkSet((0, 1, 2, 3), np.array([[0.2, 0.3], [0.6, 0.1], [0.5, 0.9], [0.9, 0.8]]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_decode_cases())
@example((_HAND_CUE, _COLLINEAR))  # collinear anchors
@example((_HAND_CUE, LandmarkSet((0, 1, 7), _COLLINEAR.positions + 0.2)))  # unknown id
@example((_episode(0, 1, (0.2, 0.3), _ON_ANCHOR), _ON_ANCHOR))  # starts on an anchor
def test_decode_is_bit_identical_to_numpy_scalar_form(case):
    record, current = case
    assert _hex_point(_decode(record, current)) == _hex_point(_numpy_scalar_decode(record, current))


def test_decode_of_a_real_query_phase_is_bit_identical(monkeypatch):
    # Every decode of a 512-event B cell of each variant. Its converged
    # solves end on line searches in which every trial point costs more, or
    # the accepted one is the current point, which random cases rarely reach.
    calls = []

    def recording(record, landmarks):
        calls.append((record, landmarks))
        return _decode(record, landmarks)

    monkeypatch.setattr(memory, "_decode", recording)
    env = FamilyBConfig(n_events=512, landmark_drift=0.01, conflict_rate=0.5)
    for variant in ("clustered", "flat"):
        run_family_b(env, variant, CostLedger(), 0)
    assert len(calls) == 1024
    stops = []
    for record, landmarks in calls:
        expected = _numpy_scalar_decode(record, landmarks, stops)
        assert _hex_point(_decode(record, landmarks)) == _hex_point(expected)
    assert {"no trial accepted", "same point", "moved"} <= set(stops)


def test_position_of_matches_index_lookup():
    lm = LandmarkSet((4, 2, 4, 9), np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6], [0.7, 0.8]]))
    assert lm.position_of(4) == (0.1, 0.2)  # first of a duplicated id, as ids.index
    assert lm.position_of(9) == (0.7, 0.8)
    assert all(type(v) is float for v in lm.position_of(2))
    with pytest.raises(ValueError):
        lm.position_of(5)
    moved = lm.drifted(0.1, Substream(1, "env"))
    assert moved.position_of(9) == tuple(float(v) for v in moved.positions[3])


# --- Memoized snapshot parse ---------------------------------------------------


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(0, 4), min_size=1, max_size=12),
    st.lists(st.tuples(_unit, _unit), min_size=12, max_size=12),
)
def test_memoized_snapshot_parse_matches_fresh_parse(picks, locations):
    base = _landmarks(21, 6).as_obs_tuples()
    zeroed = tuple((i, 0.0 if i == 2 else x, y) for i, x, y in base)
    snapshots = [
        base,
        _landmarks(22, 6).as_obs_tuples(),
        tuple(tuple(t) for t in base),  # equal to `base`, another object
        zeroed,
        # Equal to `zeroed` as a tuple, yet it parses to a -0.0 coordinate.
        tuple((i, -0.0 if i == 2 else x, y) for i, x, y in base),
    ]
    store = MemoryStore(StoreVariant.FLAT)
    for step, (pick, loc) in enumerate(zip(picks, locations)):
        snapshot = snapshots[pick]
        write(store, Observation({"phase": 0.0}, landmarks=snapshot), _dig(*loc, step=step))
        fresh = LandmarkSet.from_obs_tuples(snapshot)
        memo = store.landmarks_of(snapshot)
        assert memo.ids == fresh.ids
        assert memo.positions.tobytes() == fresh.positions.tobytes()
        assert store.episodes[-1].cue == encode_cue(loc, fresh)


# --- The similarity rule, split into query terms and a scorer ------------------


def _frozen_cue_similarity(a, b):
    """Frozen copy of `cue_similarity` before it was split into the query's
    terms and a scorer of one stored cue against them."""
    total = 0.0
    for j, qid in enumerate(a.landmark_ids):
        qc, qs = math.cos(a.bearings[j]), math.sin(a.bearings[j])
        for k, eid in enumerate(b.landmark_ids):
            if qid != eid:
                continue
            dd = (b.distances[k] - a.distances[j]) / DIST_SCALE
            dc = math.cos(b.bearings[k]) - qc
            ds = math.sin(b.bearings[k]) - qs
            total += math.exp(
                -0.5 * (dd * dd + (dc * dc + ds * ds) / (BEARING_SCALE * BEARING_SCALE))
            )
            break
    return total / 3


_bearing = st.floats(-math.pi, math.pi) | st.sampled_from((0.0, -0.0, math.pi, -math.pi))
_ID_POOL = tuple(range(7))


@st.composite
def _query_cue(draw):
    ids = tuple(draw(st.permutations(_ID_POOL))[:3])
    return CueVector(ids, tuple(draw(st.floats(0.0, 1.5)) for _ in ids),
                     tuple(draw(_bearing) for _ in ids))


@st.composite
def _stored_cue(draw, query):
    """A cue that shares 0 to 3 landmark ids with `query`, each shared id in
    any slot; a shared landmark's distance and bearing are near the query's
    or anywhere."""
    shared = draw(st.integers(0, 3))
    others = [i for i in _ID_POOL if i not in query.landmark_ids]
    picked = list(draw(st.permutations(range(3)))[:shared])
    ids = [query.landmark_ids[j] for j in picked] + others[: 3 - shared]
    order = draw(st.permutations(range(3)))
    distances, bearings = [], []
    for slot in order:
        if slot < shared and draw(st.booleans()):
            j = picked[slot]
            distances.append(query.distances[j] + draw(st.floats(-0.1, 0.1)))
            bearings.append(query.bearings[j] + draw(st.floats(-0.5, 0.5)))
        else:
            distances.append(draw(st.floats(0.0, 1.5)))
            bearings.append(draw(_bearing))
    return CueVector(tuple(ids[slot] for slot in order), tuple(distances), tuple(bearings))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_cue_similarity_is_bit_identical_to_the_unsplit_rule(data):
    query = data.draw(_query_cue())
    stored = data.draw(_stored_cue(query))
    for a, b in ((query, stored), (stored, query), (query, query)):
        assert cue_similarity(a, b).hex() == _frozen_cue_similarity(a, b).hex()


def _frozen_fold(store, cue, rows, picked):
    best_idx, best = picked
    for i in rows:
        s = _frozen_cue_similarity(cue, store.episodes[i].cue)
        if s > best:
            best_idx, best = i, s
    return best_idx, best


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_fold_matches_the_unsplit_rule_and_keeps_the_first_of_equal_scores(data):
    # Episodes repeat a few cues, so many scores are equal; the rows come in
    # a shuffled order and in two folds, as ring after ring of a retrieve.
    query = data.draw(_query_cue())
    cues = data.draw(st.lists(_stored_cue(query), min_size=1, max_size=4))
    picks = data.draw(st.lists(st.integers(0, len(cues) - 1), min_size=1, max_size=12))
    store = _store_with(
        [EpisodeRecord(i, i, 1, 1.0, (0.5, 0.5), cues[k]) for i, k in enumerate(picks)]
    )
    rows = data.draw(st.permutations(range(len(picks))))
    cut = data.draw(st.integers(0, len(rows)))
    picked = _fold_best(store, query, rows[:cut], _NO_PICK)
    picked = _fold_best(store, query, rows[cut:], picked)
    expected = _frozen_fold(store, query, rows[:cut], _NO_PICK)
    expected = _frozen_fold(store, query, rows[cut:], expected)
    assert [v if isinstance(v, int) else v.hex() for v in picked] == [
        v if isinstance(v, int) else v.hex() for v in expected
    ]
    scores = [_frozen_cue_similarity(query, store.episodes[i].cue) for i in rows]
    assert picked[0] == rows[scores.index(max(scores))]
