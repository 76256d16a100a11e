"""Episodic memory: one-shot cache writes, cue encoding, and retrieval.

Two interchangeable store variants hold identical episode records and differ
only in access structure:

* ``flat``      - an archive scanned in insertion order.
* ``clustered`` - a two-level index, item type then 16x16 spatial grid cell,
                  probed outward from the cue-predicted location.

Retrieval latency is structural: the probe count is the number of episodes
examined while answering a query, tracked on the store's monotone counter.

A cue is the write-time encoding of a location against the three nearest
landmarks: their ids, distances, and bearings. Matching aligns two cues by
landmark id: each landmark both cues reference adds a Gaussian score of the
distance mismatch and the bearing chord, and a landmark only one cue
references adds nothing. Decoding re-derives a stored cue's location against
the current, possibly drifted, landmark positions of its three ids by
least-squares trilateration.

`cue_similarity` is the one scoring rule. The clustered path folds it over
the few episodes it probes (about 4 per query), where numpy's per-call set-up
would cost more than the arithmetic; the flat path scores every same-type
episode at once with `_slot_scores`, its vectorized form over an inverted
landmark index, which tests pin to the rule through `brute_force_retrieve`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .core.state import Action, InputError, Observation
from .rng import Substream

CUE_LANDMARKS = 3
GRID_DIV = 16
# Scales for cue matching: distances in arena units, bearings in radians.
# Chosen so landmark drift of a few percent degrades match scores smoothly
# instead of cliff-edging.
DIST_SCALE = 0.05
BEARING_SCALE = 0.5
BEARING_SCALE2 = BEARING_SCALE * BEARING_SCALE
COLLINEAR_TOL = 1e-6
DEGENERATE_CONFIDENCE = 0.5
# Clustered retrieval stops expanding its cell search once a candidate this
# strong has been seen; an uncorrupted cue scores 1.0.
EARLY_STOP_SCORE = 0.5


class StoreVariant(str, Enum):
    FLAT = "flat"
    CLUSTERED = "clustered"


# ---------------------------------------------------------------------------
# Landmarks and cues
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LandmarkSet:
    """Named anchor points in the unit square."""

    ids: tuple[int, ...]
    positions: np.ndarray  # shape (L, 2)
    # id -> (x, y) as Python floats, built once; the first of duplicate ids
    # wins, as with `ids.index`.
    _xy: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.positions.shape != (len(self.ids), 2):
            raise InputError("landmark positions must be (L, 2)")
        xy: dict = {}
        for i, (x, y) in zip(self.ids, self.positions.tolist()):
            xy.setdefault(i, (float(x), float(y)))
        object.__setattr__(self, "_xy", xy)

    @classmethod
    def sample(cls, count: int, stream: Substream) -> "LandmarkSet":
        pos = stream.uniform(0.0, 1.0, size=(count, 2))
        return cls(tuple(range(count)), np.asarray(pos, dtype=float))

    def drifted(self, sigma: float, stream: Substream) -> "LandmarkSet":
        """Independent Gaussian displacement of every landmark."""
        if sigma == 0.0:
            return self
        noise = stream.normal(0.0, sigma, size=self.positions.shape)
        return replace(self, positions=self.positions + noise)

    def position_of(self, landmark_id: int) -> tuple[float, float]:
        """Position of one landmark; ValueError for an id not in the set."""
        try:
            return self._xy[landmark_id]
        except KeyError:
            raise ValueError(f"unknown landmark id {landmark_id!r}") from None

    def as_obs_tuples(self) -> tuple[tuple[int, float, float], ...]:
        return tuple(
            (i, float(x), float(y)) for i, (x, y) in zip(self.ids, self.positions)
        )

    @classmethod
    def from_obs_tuples(cls, tuples) -> "LandmarkSet":
        ids = tuple(int(t[0]) for t in tuples)
        pos = np.asarray([[t[1], t[2]] for t in tuples], dtype=float)
        return cls(ids, pos)


@dataclass(frozen=True)
class CueVector:
    """Write-time encoding of a location: three nearest landmarks, each with
    distance and bearing from the encoded point."""

    landmark_ids: tuple[int, int, int]
    distances: tuple[float, float, float]
    bearings: tuple[float, float, float]

    def __post_init__(self):
        if len(set(self.landmark_ids)) != CUE_LANDMARKS:
            raise InputError("cue must reference three distinct landmarks")


def encode_cue(location: tuple[float, float], landmarks: LandmarkSet) -> CueVector:
    """Encode a point against its three nearest landmarks (ties by id)."""
    if len(landmarks.ids) < CUE_LANDMARKS:
        raise InputError("need at least three landmarks to encode a cue")
    p = np.asarray(location, dtype=float)
    deltas = landmarks.positions - p
    dist = np.hypot(deltas[:, 0], deltas[:, 1])
    order = np.lexsort((np.asarray(landmarks.ids), dist))[:CUE_LANDMARKS]
    ids = tuple(int(landmarks.ids[i]) for i in order)
    ds = tuple(float(dist[i]) for i in order)
    bearings = tuple(float(math.atan2(deltas[i, 1], deltas[i, 0])) for i in order)
    return CueVector(ids, ds, bearings)


def cue_similarity(a: CueVector, b: CueVector) -> float:
    """Similarity in [0, 1]: landmark ids align the comparison, mismatched
    distance and bearing accumulate as Gaussian penalties, and a landmark the
    other cue never saw contributes nothing. The bearing mismatch uses the
    chord 2*sin(db/2), which is wrap-free and matches db for small angles."""
    total = 0.0
    for j, qid in enumerate(a.landmark_ids):
        qc, qs = math.cos(a.bearings[j]), math.sin(a.bearings[j])
        for k, eid in enumerate(b.landmark_ids):
            if qid != eid:
                continue
            dd = (b.distances[k] - a.distances[j]) / DIST_SCALE
            dc = math.cos(b.bearings[k]) - qc
            ds = math.sin(b.bearings[k]) - qs
            total += math.exp(-0.5 * (dd * dd + (dc * dc + ds * ds) / BEARING_SCALE2))
            break
    return total / CUE_LANDMARKS


def _slot_scores(count: int, slots: dict, query: CueVector) -> np.ndarray:
    """`cue_similarity` of one query against `count` episodes at once,
    through their inverted landmark index (see `MemoryStore._type_index`).

    The vectorized form of the scalar rule: the same terms, summed in the
    same order, but with numpy's `cos` and `exp`, which may differ from the
    `math` functions in the last bit.
    """
    total = np.zeros(count)
    for j in range(CUE_LANDMARKS):
        hit = slots.get(query.landmark_ids[j])
        if hit is None:
            continue
        rows, dist, bcos, bsin = hit
        qc, qs = math.cos(query.bearings[j]), math.sin(query.bearings[j])
        dd = (dist - query.distances[j]) / DIST_SCALE
        dc = bcos - qc
        ds = bsin - qs
        total[rows] += np.exp(-0.5 * (dd * dd + (dc * dc + ds * ds) / BEARING_SCALE2))
    return total / CUE_LANDMARKS


# ---------------------------------------------------------------------------
# Trilateration
# ---------------------------------------------------------------------------


def trilaterate(
    anchors: np.ndarray, distances: np.ndarray
) -> tuple[tuple[float, float] | None, bool]:
    """Least-squares intersection of three distance constraints.

    Linearizes by subtracting the first circle equation from the others,
    which is exact when the constraints are consistent. Returns
    (point, degenerate); degenerate means the anchors are collinear within
    tolerance and no reliable solution exists.
    """
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


# ---------------------------------------------------------------------------
# Episodes and queries
# ---------------------------------------------------------------------------


@dataclass
class EpisodeRecord:
    """One cached item: what, how valuable, where, and how the where was
    encoded at write time."""

    id: int
    written_at: int
    item_type: int
    item_value: float
    location: tuple[float, float]
    cue: CueVector

    def __post_init__(self):
        if self.item_type < 1:
            raise InputError("item_type must be >= 1")
        if self.item_value < 0:
            raise InputError("item_value must be non-negative")


@dataclass(frozen=True)
class Query:
    """Retrieval probe: item type and a cue."""

    item_type: int | None = None
    cue: CueVector | None = None

    @property
    def empty(self) -> bool:
        return self.item_type is None and self.cue is None


EMPTY_QUERY = Query()


@dataclass(frozen=True)
class Retrieval:
    """Result of a memory probe, with structural latency accounting."""

    episode: EpisodeRecord | None
    decoded_location: tuple[float, float] | None
    probes_used: int
    confidence: float


def grid_cell(location: tuple[float, float]) -> tuple[int, int]:
    gx = min(GRID_DIV - 1, max(0, int(location[0] * GRID_DIV)))
    gy = min(GRID_DIV - 1, max(0, int(location[1] * GRID_DIV)))
    return gx, gy


class MemoryStore:
    """Append-only episode store with a flat or clustered access path."""

    def __init__(self, variant: StoreVariant | str = StoreVariant.CLUSTERED):
        self.variant = StoreVariant(variant)
        self.episodes: list[EpisodeRecord] = []
        self.index: dict[int, dict[tuple[int, int], list[int]]] = {}
        self.probe_counter = 0
        self._id_to_index: dict[int, int] = {}
        # item type -> (episode indices, inverted landmark index), built on
        # the first flat scan of the type and dropped by a write of it.
        self._by_type: dict[int, tuple[list[int], dict]] = {}
        # The landmark snapshot the last write was encoded against, parsed.
        self._snapshot: tuple[tuple, LandmarkSet] | None = None

    def __len__(self) -> int:
        return len(self.episodes)

    def _type_index(self, item_type: int) -> tuple[list[int], dict]:
        """Episode indices of one item type, in insertion order, and their
        inverted landmark index: id -> (rows, distances, cos b, sin b), where
        a row is a position in the index list."""
        hit = self._by_type.get(item_type)
        if hit is not None:
            return hit
        idx = [i for i, e in enumerate(self.episodes) if e.item_type == item_type]
        grouped: dict[int, list[tuple[int, float, float]]] = {}
        for row, i in enumerate(idx):
            cue = self.episodes[i].cue
            for k, lid in enumerate(cue.landmark_ids):
                grouped.setdefault(lid, []).append((row, cue.distances[k], cue.bearings[k]))
        slots = {}
        for lid, entries in grouped.items():
            rows = np.array([e[0] for e in entries], dtype=int)
            dist = np.array([e[1] for e in entries])
            bear = np.array([e[2] for e in entries])
            slots[lid] = (rows, dist, np.cos(bear), np.sin(bear))
        hit = self._by_type[item_type] = (idx, slots)
        return hit

    def append(self, record: EpisodeRecord) -> None:
        if record.id in self._id_to_index:
            raise RuntimeError(f"duplicate episode id {record.id}")
        self._id_to_index[record.id] = len(self.episodes)
        self.episodes.append(record)
        if self.variant is StoreVariant.CLUSTERED:
            cell = grid_cell(record.location)
            self.index.setdefault(record.item_type, {}).setdefault(cell, []).append(
                record.id
            )
        self._by_type.pop(record.item_type, None)

    def landmarks_of(self, snapshot: tuple) -> LandmarkSet:
        """`LandmarkSet.from_obs_tuples(snapshot)`, parsed once per run of
        writes against the same snapshot object.

        The memo holds one entry and is keyed by identity, not equality:
        equal tuples may still differ in the sign of a zero coordinate,
        which can change a bearing.
        """
        memo = self._snapshot
        if memo is None or memo[0] is not snapshot:
            memo = self._snapshot = (snapshot, LandmarkSet.from_obs_tuples(snapshot))
        return memo[1]

    def episode_by_id(self, episode_id: int) -> EpisodeRecord | None:
        idx = self._id_to_index.get(episode_id)
        return None if idx is None else self.episodes[idx]

    def next_id(self) -> int:
        return len(self.episodes)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def write(store: MemoryStore, observation: Observation, action: Action) -> MemoryStore:
    """Record a completed cache action.

    The action must be a dig with a concrete location and item payload, and
    the cue is encoded from the observation's landmark snapshot.
    """
    if action.kind != "dig":
        raise InputError("memory writes require a completed dig action")
    if not observation.landmarks:
        raise InputError("cache write requires a landmark snapshot")
    location = (action.params["x"], action.params["y"])
    landmarks = store.landmarks_of(observation.landmarks)
    record = EpisodeRecord(
        id=store.next_id(),
        written_at=int(action.params.get("step", 0)),
        item_type=int(action.params["item_type"]),
        item_value=float(action.params["item_value"]),
        location=location,
        cue=encode_cue(location, landmarks),
    )
    store.append(record)
    return store


# (best episode index, best score, second score) before any candidate.
_NO_PICK: tuple[int | None, float, float] = (None, -1.0, 0.0)


def _fold_best_two(
    store: MemoryStore, cue: CueVector, rows: list[int], picked: tuple
) -> tuple[int | None, float, float]:
    """Fold `cue_similarity` over episode indices, in probe order, into the
    running `picked` (best index, best score, second score); the first of
    equal scores wins."""
    best_idx, best, second = picked
    episodes = store.episodes
    for i in rows:
        s = cue_similarity(cue, episodes[i].cue)
        if s > best:
            best_idx, second, best = i, best, s
        elif s > second:
            second = s
    return best_idx, best, second


def _finish(
    store: MemoryStore, picked: tuple, probes: int, current_landmarks: LandmarkSet
) -> Retrieval:
    store.probe_counter += probes
    best_idx, best, second = picked
    second = max(second, 0.0)
    episode = store.episodes[best_idx]
    confidence = 1.0 if best <= 0.0 else max(0.0, min(1.0, (best - second) / best))
    decoded, degenerate = _decode(episode, current_landmarks)
    if degenerate:
        confidence = min(confidence, DEGENERATE_CONFIDENCE)
    return Retrieval(episode, decoded, probes, confidence)


def retrieve(
    store: MemoryStore, query: Query, current_landmarks: LandmarkSet
) -> Retrieval:
    """Answer a non-empty query against the store's access structure."""
    if query.empty:
        raise InputError("retrieve requires a non-empty query")
    if query.cue is None or query.item_type is None:
        raise InputError("query must carry an item type and a cue")

    if store.variant is StoreVariant.FLAT:
        idx, slots = store._type_index(query.item_type)
        if not idx:
            return Retrieval(None, None, 0, 0.0)
        scores = _slot_scores(len(idx), slots, query.cue)
        best_pos = int(np.argmax(scores))
        second = float(np.partition(scores, -2)[-2]) if len(scores) > 1 else 0.0
        picked = (idx[best_pos], float(scores[best_pos]), second)
        return _finish(store, picked, len(idx), current_landmarks)

    # Clustered: predict the target location from the query cue, then probe
    # grid cells outward by Chebyshev ring until candidates appear.
    bucket = store.index.get(query.item_type, {})
    if not bucket:
        return Retrieval(None, None, 0, 0.0)
    rank = store._id_to_index
    anchors, ok = _cue_anchor_positions(query.cue, current_landmarks)
    predicted = None
    if ok:
        predicted, degenerate = trilaterate(anchors, np.asarray(query.cue.distances))
        if degenerate:
            predicted = None
    if predicted is None:
        # No usable geometry: fall back to scanning the type bucket in
        # deterministic row-major cell order.
        rows = [rank[i] for cell in sorted(bucket) for i in bucket[cell]]
        picked = _fold_best_two(store, query.cue, rows, _NO_PICK)
        ret = _finish(store, picked, len(rows), current_landmarks)
        return replace(ret, confidence=min(ret.confidence, DEGENERATE_CONFIDENCE))

    # Probe cells outward from the predicted location, nearest ring first.
    # Stop as soon as a strong match appears (the predicted cell almost
    # always holds the right episode), or, failing that, at the first
    # non-empty ring beyond the immediate neighbourhood. Ring 15 reaches
    # every cell, so a non-empty bucket always yields a pick.
    center = grid_cell(predicted)
    picked, probes = _NO_PICK, 0
    for ring in range(GRID_DIV + 1):
        rows = [rank[i] for cell in _ring_cells(center, ring) for i in bucket.get(cell, ())]
        picked = _fold_best_two(store, query.cue, rows, picked)
        probes += len(rows)
        if picked[1] >= EARLY_STOP_SCORE or (ring >= 1 and probes > 0):
            break
    return _finish(store, picked, probes, current_landmarks)


def _ring_cells(center: tuple[int, int], ring: int) -> list[tuple[int, int]]:
    """Cells at exact Chebyshev distance `ring`, row-major, clipped to grid."""
    cx, cy = center
    cells = []
    for gx in range(cx - ring, cx + ring + 1):
        for gy in range(cy - ring, cy + ring + 1):
            if max(abs(gx - cx), abs(gy - cy)) != ring:
                continue
            if 0 <= gx < GRID_DIV and 0 <= gy < GRID_DIV:
                cells.append((gx, gy))
    return cells


def _cue_anchor_positions(
    cue: CueVector, landmarks: LandmarkSet
) -> tuple[tuple[tuple[float, float], ...], bool]:
    """Current (x, y) of the cue's three landmarks, or ((), False) when the
    set lacks one of them."""
    try:
        return tuple(landmarks.position_of(i) for i in cue.landmark_ids), True
    except ValueError:
        return (), False


def _bearing_fix(
    cue: CueVector, anchors: tuple[tuple[float, float], ...]
) -> tuple[float, float]:
    """Average of the three single-landmark position fixes (anchor minus the
    stored range along the stored bearing)."""
    x = y = 0.0
    for (ax, ay), d, b in zip(anchors, cue.distances, cue.bearings):
        x += ax - d * math.cos(b)
        y += ay - d * math.sin(b)
    return x / CUE_LANDMARKS, y / CUE_LANDMARKS


def _range_least_squares(
    cue: CueVector,
    anchors: tuple[tuple[float, float], ...],
    init: tuple[float, float],
) -> tuple[float, float]:
    """Damped Gauss-Newton on the three range residuals |x - a_k| - d_k.

    The bearing-fix initialization keeps the poorly determined direction of
    near-collinear anchor triples anchored to a sane estimate; along
    well-determined directions the iteration converges to the least-squares
    intersection of the stored distance constraints.

    Invariant: everything runs on Python floats, with the operations of the
    numpy-scalar form this replaced in the same order (accumulators start
    at 0.0, so signed zeros match too). The result is therefore
    bit-identical to it, and `runs.jsonl` does not depend on which of the
    two ran; a test keeps the numpy-scalar form as the oracle.
    """
    (x0, y0), (x1, y1), (x2, y2) = anchors
    d0, d1, d2 = cue.distances
    hypot = math.hypot
    x, y = init

    def cost_at(px: float, py: float) -> tuple[float, tuple[float, float, float]]:
        f0 = hypot(px - x0, py - y0) - d0
        f1 = hypot(px - x1, py - y1) - d1
        f2 = hypot(px - x2, py - y2) - d2
        # A sum started at 0.0 would equal this bit for bit: a square is
        # never -0.0.
        return f0 * f0 + f1 * f1 + f2 * f2, (f0, f1, f2)

    cost, res = cost_at(x, y)
    for _ in range(30):
        gx = gy = hxx = hxy = hyy = 0.0
        for (ax, ay), f in zip(anchors, res):
            dx = x - ax
            dy = y - ay
            r = hypot(dx, dy)
            if r < 1e-12:
                continue
            jx, jy = dx / r, dy / r
            gx += jx * f
            gy += jy * f
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
    return x, y


def _decode(
    record: EpisodeRecord, current_landmarks: LandmarkSet
) -> tuple[tuple[float, float], bool]:
    anchors, ok = _cue_anchor_positions(record.cue, current_landmarks)
    if not ok:
        return record.location, True
    (x0, y0), (x1, y1), (x2, y2) = anchors
    cross = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
    if abs(cross) < COLLINEAR_TOL:
        # Collinear anchors: fall back to the stored absolute location.
        return record.location, True
    init = _bearing_fix(record.cue, anchors)
    return _range_least_squares(record.cue, anchors, init), False


def decode_location(
    record: EpisodeRecord, current_landmarks: LandmarkSet
) -> tuple[float, float]:
    """Re-derive a stored location from its cue under current landmarks."""
    point, _ = _decode(record, current_landmarks)
    return point


def brute_force_retrieve(
    store: MemoryStore, query: Query, current_landmarks: LandmarkSet
) -> Retrieval:
    """Reference retrieval: scan every episode, no index, no early stop.

    Shares only the scoring rule with the production paths; used as the
    oracle for equivalence checks. Does not touch the probe counter.
    """
    if query.empty or query.cue is None:
        raise InputError("retrieve requires a non-empty query")
    best_idx, best, second = None, -1.0, 0.0
    for i, e in enumerate(store.episodes):
        if e.item_type != query.item_type:
            continue
        s = cue_similarity(query.cue, e.cue)
        if s > best:
            best_idx, second, best = i, best, s
        elif s > second:
            second = s
    if best_idx is None:
        return Retrieval(None, None, 0, 0.0)
    episode = store.episodes[best_idx]
    confidence = max(0.0, min(1.0, (best - max(second, 0.0)) / best)) if best > 0 else 1.0
    decoded, degenerate = _decode(episode, current_landmarks)
    if degenerate:
        confidence = min(confidence, DEGENERATE_CONFIDENCE)
    return Retrieval(episode, decoded, 0, confidence)
