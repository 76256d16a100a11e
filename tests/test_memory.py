import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hoardbench.core.state import Action, InputError, Observation
from hoardbench.memory import (
    BEARING_SCALE,
    COLLINEAR_TOL,
    DEGENERATE_CONFIDENCE,
    DIST_SCALE,
    EARLY_STOP_SCORE,
    GRID_DIV,
    CueVector,
    EpisodeRecord,
    LandmarkSet,
    MemoryStore,
    Query,
    StoreVariant,
    _cue_anchor_positions,
    _decode,
    _ring_cells,
    brute_force_retrieve,
    cue_similarity,
    decode_location,
    encode_cue,
    grid_cell,
    retrieve,
    trilaterate,
    write,
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


def test_absent_type_returns_empty_with_zero_confidence():
    lm = _landmarks()
    for variant in StoreVariant:
        store = _store_with([_episode(0, 2, (0.3, 0.3), lm)], variant)
        r = retrieve(store, Query(5, encode_cue((0.3, 0.3), lm)), lm)
        assert r.episode is None and r.confidence == 0.0


def test_empty_query_rejected():
    lm = _landmarks()
    store = _store_with([_episode(0, 2, (0.3, 0.3), lm)])
    with pytest.raises(InputError):
        retrieve(store, Query(), lm)


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


def _agrees(result, reference, tolerance=0.0):
    """Same episode, same decoded location, and confidence within
    `tolerance`."""
    same_episode = (result.episode is None) == (reference.episode is None) and (
        result.episode is None or result.episode.id == reference.episode.id
    )
    return (
        same_episode
        and result.decoded_location == reference.decoded_location
        and abs(result.confidence - reference.confidence) <= tolerance
    )


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
        # Flat scoring uses numpy's exp and the reference `math.exp`, which
        # can differ in the last bit; clustered scoring is the reference's
        # own `cue_similarity`, so its confidence must match exactly.
        assert _agrees(retrieve(flat, query, current), reference, 1e-12)
        result = retrieve(clustered, query, current)
        same_type = sum(1 for e in episodes if e.item_type == item_type)
        if result.probes_used == same_type:
            assert _agrees(result, reference)


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
    decoded location, confidence). Each ring is scored as one batch and
    folded in probe order; without usable geometry the whole type bucket is
    scored in sorted cell order and picked by argmax and partition."""
    bucket = store.index.get(query.item_type, {})
    if not bucket:
        return None, 0, None, 0.0
    rank = store._id_to_index
    anchors, ok = _cue_anchor_positions(query.cue, current)
    predicted = None
    if ok:
        predicted, degenerate = trilaterate(anchors, np.asarray(query.cue.distances))
        if degenerate:
            predicted = None
    cap = 1.0
    if predicted is None:
        rows = [rank[i] for cell in sorted(bucket) for i in bucket[cell]]
        scores = _frozen_batch_scores(store, rows, query.cue)
        best_pos = int(np.argmax(scores))
        best_idx, best = rows[best_pos], float(scores[best_pos])
        second = float(np.partition(scores, -2)[-2]) if len(scores) > 1 else 0.0
        probes, cap = len(rows), DEGENERATE_CONFIDENCE
    else:
        center = grid_cell(predicted)
        best_idx, best, second, probes = None, -1.0, 0.0, 0
        for ring in range(GRID_DIV + 1):
            rows = [rank[i] for cell in _ring_cells(center, ring) for i in bucket.get(cell, ())]
            if rows:
                scores = _frozen_batch_scores(store, rows, query.cue)
                probes += len(rows)
                for pos, row in enumerate(rows):
                    s = float(scores[pos])
                    if s > best:
                        best_idx, second, best = row, best, s
                    elif s > second:
                        second = s
            if best >= EARLY_STOP_SCORE or (ring >= 1 and probes > 0):
                break
        second = max(second, 0.0)
    episode = store.episodes[best_idx]
    confidence = 1.0 if best <= 0.0 else max(0.0, min(1.0, (best - second) / best))
    decoded, degenerate = _decode(episode, current)
    if degenerate:
        confidence = min(confidence, DEGENERATE_CONFIDENCE)
    return episode.id, probes, decoded, min(confidence, cap)


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
        episode_id, probes, decoded, confidence = _frozen_clustered_retrieve(
            store, query, current
        )
        result = retrieve(store, query, current)
        assert (None if result.episode is None else result.episode.id) == episode_id
        assert result.probes_used == probes
        assert result.decoded_location == decoded
        assert abs(result.confidence - confidence) <= 1e-12


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


def _numpy_scalar_decode(record, landmarks):
    """Frozen copy of the decode that indexed numpy arrays: anchors as an
    (3, 2) float64 array, ids looked up with `tuple.index`."""
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
        return record.location, True
    cue = record.cue
    cross = (anchors[1, 0] - anchors[0, 0]) * (anchors[2, 1] - anchors[0, 1]) - (
        anchors[1, 1] - anchors[0, 1]
    ) * (anchors[2, 0] - anchors[0, 0])
    if abs(cross) < COLLINEAR_TOL:
        return record.location, True
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
        for _ in range(20):
            cx, cy = x - t * sx, y - t * sy
            c, rr = cost_at(cx, cy)
            if c <= cost:
                new_cost, new_res, nx, ny = c, rr, cx, cy
                break
            t *= 0.5
        if new_cost > cost or (nx == x and ny == y):
            break
        moved = math.hypot(nx - x, ny - y)
        x, y, cost, res = nx, ny, new_cost, new_res
        if moved < 1e-12:
            break
    return (x, y), False


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
    assert _decode(record, current) == _numpy_scalar_decode(record, current)


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
