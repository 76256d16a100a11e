"""Episodic memory: one-shot cache writes, cue encoding, and retrieval.

Two interchangeable store variants hold identical episode records and differ
only in access structure:

* ``flat``      - an archive scanned in insertion order.
* ``clustered`` - a two-level index, item type then 16x16 spatial grid cell,
                  probed outward from the cue-predicted location.

Retrieval latency is structural: the probe count is the number of episodes
examined while answering a query, reported as its `Retrieval.probes_used`.

A cue is the write-time encoding of a location against the three nearest
landmarks: their ids, distances, and bearings. Matching aligns two cues by
landmark id: each landmark both cues reference adds a Gaussian score of the
distance mismatch and the bearing chord, and a landmark only one cue
references adds nothing. Decoding re-derives a stored cue's location against
the current, possibly drifted, landmark positions of its three ids by
least-squares trilateration.

`cue_similarity` is the one scoring rule: the query's terms, computed once
per query, scored against each stored cue. A retrieval answers with the
best-scoring episode of the query's type (the first of equal scores), its
decoded location and the probes spent. The clustered path folds the rule
over the few episodes it probes (about 4 per query), keeping the running
best, where numpy's per-call set-up would cost more than the arithmetic; the
flat path scores every same-type episode at once with `_flat_scores`, its
vectorized form over an inverted landmark index, which tests pin to the rule
through `brute_force_retrieve`.

A write takes the landmark set the item was cached against, the item's
type, its (x, y) and, if the caller encoded it already (`encode_cues` does
many points in one pass), its cue. A landmark set keeps what each cue
decoded to against it, so no cue is solved twice against one set.

An episode's id is its position in the store: `write` numbers episodes in
insertion order and `MemoryStore.append` refuses any other id. So the
clustered index's id lists are rows of `episodes` as they stand.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from .core.state import InputError
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
# Clustered retrieval stops expanding its cell search once a candidate this
# strong has been seen; an uncorrupted cue scores 1.0.
EARLY_STOP_SCORE = 0.5
# The most landmarks a family's config may ask for, 16 to a grid cell.
# Encoding a cue measures its distance to every landmark: a 256-event
# family B cell takes 0.24 s at 4,096 landmarks against 0.02 s at 25, and
# 4.7 s and 194 MB at 65,536; at 1e20 the landmark draw asks numpy for more
# values than an array can hold.
MAX_LANDMARKS = 4096


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
    # The ids as an array and the x and y columns, contiguous, built once
    # for cue encoding.
    _id_array: np.ndarray = field(init=False, repr=False, compare=False)
    _xs: np.ndarray = field(init=False, repr=False, compare=False)
    _ys: np.ndarray = field(init=False, repr=False, compare=False)
    # cue -> the point `_decode` solved it to against this set, or () where
    # it falls back to the record's own location.
    _decoded: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.positions.shape != (len(self.ids), 2):
            raise InputError("landmark positions must be (L, 2)")
        xy: dict = {}
        for i, (x, y) in zip(self.ids, self.positions.tolist()):
            xy.setdefault(i, (float(x), float(y)))
        object.__setattr__(self, "_xy", xy)
        object.__setattr__(self, "_id_array", np.asarray(self.ids))
        object.__setattr__(self, "_xs", np.ascontiguousarray(self.positions[:, 0], dtype=float))
        object.__setattr__(self, "_ys", np.ascontiguousarray(self.positions[:, 1], dtype=float))
        object.__setattr__(self, "_decoded", {})

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

    def to_json(self) -> str:
        """The landmarks as compact JSON, a list of [id, x, y]: a trace
        record's landmark snapshot."""
        return json.dumps([[i, x, y] for i, (x, y) in zip(self.ids, self.positions.tolist())],
                          separators=(",", ":"))


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


def _check_landmark_count(landmarks: LandmarkSet) -> None:
    if len(landmarks.ids) < CUE_LANDMARKS:
        raise InputError("need at least three landmarks to encode a cue")


def encode_cue(location: tuple[float, float], landmarks: LandmarkSet) -> CueVector:
    """Encode a point against its three nearest landmarks (ties by id).

    The one-point form of `encode_cues`, bit for bit, without its batch
    set-up, for callers that encode one point between steps.
    """
    _check_landmark_count(landmarks)
    dx = landmarks._xs - location[0]
    dy = landmarks._ys - location[1]
    dist = np.hypot(dx, dy)
    a, b, c = np.lexsort((landmarks._id_array, dist))[:CUE_LANDMARKS].tolist()
    ids = landmarks.ids
    atan2 = math.atan2
    return CueVector(
        (int(ids[a]), int(ids[b]), int(ids[c])),
        (float(dist[a]), float(dist[b]), float(dist[c])),
        (atan2(dy[a], dx[a]), atan2(dy[b], dx[b]), atan2(dy[c], dx[c])),
    )


def encode_cues(
    locations: list[tuple[float, float]], landmarks: LandmarkSet
) -> list[CueVector]:
    """`encode_cue` of every point, in order, with one distance matrix and
    one row-wise sort by (distance, id) for all of them. The bearings stay
    `math.atan2` on Python floats, as in the one-point form."""
    _check_landmark_count(landmarks)
    points = np.asarray(locations, dtype=float).reshape(-1, 2)
    dx = landmarks._xs - points[:, :1]
    dy = landmarks._ys - points[:, 1:]
    dist = np.hypot(dx, dy)
    ids = np.broadcast_to(landmarks._id_array, dist.shape)
    order = np.lexsort((ids, dist))[:, :CUE_LANDMARKS]
    rows = np.arange(len(points))[:, None]
    atan2 = math.atan2
    return [
        CueVector(tuple(i), tuple(d), (atan2(y0, x0), atan2(y1, x1), atan2(y2, x2)))
        for i, d, (x0, x1, x2), (y0, y1, y2) in zip(
            landmarks._id_array[order].tolist(),
            dist[rows, order].tolist(),
            dx[rows, order].tolist(),
            dy[rows, order].tolist(),
        )
    ]


def cue_similarity(a: CueVector, b: CueVector) -> float:
    """Similarity in [0, 1]: landmark ids align the comparison, mismatched
    distance and bearing accumulate as Gaussian penalties, and a landmark the
    other cue never saw contributes nothing. The bearing mismatch uses the
    chord 2*sin(db/2), which is wrap-free and matches db for small angles.
    It is `_similarity` of `a`'s `_query_terms` and `b`: a fold over many
    stored cues computes the query's terms once."""
    return _similarity(_query_terms(a), b)


def _query_terms(cue: CueVector) -> tuple[tuple[int, float, float, float], ...]:
    """(landmark id, distance, cos and sin of the bearing) of each slot."""
    b = cue.bearings
    return tuple(zip(cue.landmark_ids, cue.distances, map(math.cos, b), map(math.sin, b)))


def _similarity(terms: tuple, cue: CueVector) -> float:
    """`cue_similarity` of a query, given as its `_query_terms`, and `cue`."""
    ids = cue.landmark_ids
    total = 0.0
    for qid, qd, qc, qs in terms:
        if qid in ids:
            k = ids.index(qid)
            dd = (cue.distances[k] - qd) / DIST_SCALE
            dc = math.cos(cue.bearings[k]) - qc
            ds = math.sin(cue.bearings[k]) - qs
            total += math.exp(-0.5 * (dd * dd + (dc * dc + ds * ds) / BEARING_SCALE2))
    return total / CUE_LANDMARKS


class _TypeIndex(NamedTuple):
    """The episodes of one item type and their inverted landmark index.

    A row is a position in `episodes` (store indices, in insertion order).
    Column k of `table` is one landmark of one row's cue: its distance and
    the cosine and sine of its bearing; `rows[k]` is that row. The columns
    of one landmark id lie together; `spans` maps the id to their slice.
    """

    episodes: list[int]
    spans: dict[int, slice]
    rows: np.ndarray
    table: np.ndarray


_NO_SPAN = slice(0, 0)


def _flat_scores(index: _TypeIndex, cue: CueVector) -> np.ndarray:
    """`cue_similarity` of one cue against every episode of one item type,
    through the type's inverted index.

    The vectorized form of the scalar rule: it gathers the columns of the
    landmark the cue names in slot 0, then slot 1, then slot 2, and
    `bincount` adds each column's term to its row in that order, so every
    score is the same terms summed in the same order. A row appears at most
    once per slot, since a cue names distinct landmarks. The terms use
    numpy's `cos` and `exp`, which may differ from the `math` functions in
    the last bit.
    """
    spans = [index.spans.get(lid, _NO_SPAN) for lid in cue.landmark_ids]
    block = np.concatenate([index.table[:, span] for span in spans], axis=1)
    rows = np.concatenate([index.rows[span] for span in spans])
    _, dists, coss, sins = zip(*_query_terms(cue))
    query = np.array([dists, coss, sins]).repeat(
        [span.stop - span.start for span in spans], axis=1)
    diff = block - query
    dd = diff[0] / DIST_SCALE
    dc, ds = diff[1], diff[2]
    terms = np.exp(-0.5 * (dd * dd + (dc * dc + ds * ds) / BEARING_SCALE2))
    return np.bincount(rows, terms, minlength=len(index.episodes)) / CUE_LANDMARKS


# ---------------------------------------------------------------------------
# Trilateration
# ---------------------------------------------------------------------------


def trilaterate(
    anchors: tuple[tuple[float, float], ...], distances: tuple[float, float, float]
) -> tuple[tuple[float, float] | None, bool]:
    """Least-squares intersection of three distance constraints.

    Linearizes by subtracting the first circle equation from the others,
    which is exact when the constraints are consistent. Returns
    (point, degenerate); degenerate means the anchors are collinear within
    tolerance and no reliable solution exists. Takes Python floats, as
    `_cue_anchor_positions` and `CueVector` hold them. `**2` on a float is libm
    `pow`, which can differ from `x * x` in the last bit; keep it, or
    runs.jsonl bytes change.
    """
    (x0, y0), (x1, y1), (x2, y2) = anchors
    d0, d1, d2 = distances
    cross = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
    if abs(cross) < COLLINEAR_TOL:
        return None, True
    m00, m01 = 2.0 * (x1 - x0), 2.0 * (y1 - y0)
    m10, m11 = 2.0 * (x2 - x0), 2.0 * (y2 - y0)
    r0 = (x1 ** 2 - x0 ** 2) + (y1 ** 2 - y0 ** 2) - (d1 ** 2 - d0 ** 2)
    r1 = (x2 ** 2 - x0 ** 2) + (y2 ** 2 - y0 ** 2) - (d2 ** 2 - d0 ** 2)
    det = m00 * m11 - m01 * m10
    return ((r0 * m11 - r1 * m01) / det, (m00 * r1 - m10 * r0) / det), False


# ---------------------------------------------------------------------------
# Episodes and queries
# ---------------------------------------------------------------------------


@dataclass
class EpisodeRecord:
    """One cached item: what, where, and how the where was encoded at write
    time."""

    id: int
    item_type: int
    location: tuple[float, float]
    cue: CueVector

    def __post_init__(self):
        if self.item_type < 1:
            raise InputError("item_type must be >= 1")


@dataclass(frozen=True)
class Query:
    """Retrieval probe: item type and a cue."""

    item_type: int
    cue: CueVector


@dataclass(frozen=True)
class Retrieval:
    """Result of a memory probe: the best episode of the query's type and its
    decoded location, both None when the store holds none of that type, and
    the probes spent finding it."""

    episode: EpisodeRecord | None
    decoded_location: tuple[float, float] | None
    probes_used: int


def grid_cell(location: tuple[float, float]) -> tuple[int, int]:
    gx = min(GRID_DIV - 1, max(0, int(location[0] * GRID_DIV)))
    gy = min(GRID_DIV - 1, max(0, int(location[1] * GRID_DIV)))
    return gx, gy


class MemoryStore:
    """Append-only episode store with a flat or clustered access path. Each
    episode's id is its position in `episodes`."""

    def __init__(self, variant: StoreVariant | str = StoreVariant.CLUSTERED):
        self.variant = StoreVariant(variant)
        self.episodes: list[EpisodeRecord] = []
        # item type -> grid cell -> the ids, so the rows, of its episodes.
        self.index: dict[int, dict[tuple[int, int], list[int]]] = {}
        # item type -> its `_TypeIndex`, built on the first flat scan of the
        # type and dropped by a write of it.
        self._by_type: dict[int, _TypeIndex] = {}

    def __len__(self) -> int:
        return len(self.episodes)

    def _type_index(self, item_type: int) -> _TypeIndex:
        hit = self._by_type.get(item_type)
        if hit is not None:
            return hit
        idx = [i for i, e in enumerate(self.episodes) if e.item_type == item_type]
        grouped: dict[int, list[tuple[int, float, float]]] = {}
        for row, i in enumerate(idx):
            cue = self.episodes[i].cue
            for k, lid in enumerate(cue.landmark_ids):
                grouped.setdefault(lid, []).append((row, cue.distances[k], cue.bearings[k]))
        spans = {}
        entries: list[tuple[int, float, float]] = []
        for lid, group in grouped.items():
            spans[lid] = slice(len(entries), len(entries) + len(group))
            entries += group
        bear = np.array([e[2] for e in entries])
        hit = self._by_type[item_type] = _TypeIndex(
            idx,
            spans,
            np.array([e[0] for e in entries], dtype=np.intp),
            np.array([[e[1] for e in entries], np.cos(bear), np.sin(bear)]),
        )
        return hit

    def append(self, record: EpisodeRecord) -> None:
        """Store `record`, whose id must be its position, `next_id()`:
        RuntimeError for any other id, a duplicate included."""
        if record.id != len(self.episodes):
            raise RuntimeError(
                f"episode id {record.id} is not the next position {len(self.episodes)}")
        self.episodes.append(record)
        if self.variant is StoreVariant.CLUSTERED:
            cell = grid_cell(record.location)
            self.index.setdefault(record.item_type, {}).setdefault(cell, []).append(
                record.id
            )
        self._by_type.pop(record.item_type, None)

    def next_id(self) -> int:
        return len(self.episodes)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def write(
    store: MemoryStore,
    landmarks: LandmarkSet,
    item_type: int,
    location: tuple[float, float],
    cue: CueVector | None = None,
) -> MemoryStore:
    """Record an item of `item_type` cached at `location`, its cue encoded
    against `landmarks`. A caller that has encoded it already, say with
    `encode_cues` for a batch, passes it as `cue`."""
    record = EpisodeRecord(
        id=store.next_id(),
        item_type=item_type,
        location=location,
        cue=encode_cue(location, landmarks) if cue is None else cue,
    )
    store.append(record)
    return store


# (best episode index, best score) before any candidate.
_NO_PICK: tuple[int | None, float] = (None, -1.0)


def _fold_best(
    store: MemoryStore, cue: CueVector, rows: list[int], picked: tuple
) -> tuple[int | None, float]:
    """Fold `cue_similarity` over episode indices, in probe order, into the
    running `picked` (best index, best score); the first of equal scores
    wins. The query's terms are computed once per fold."""
    best_idx, best = picked
    episodes = store.episodes
    terms = _query_terms(cue)
    for i in rows:
        s = _similarity(terms, episodes[i].cue)
        if s > best:
            best_idx, best = i, s
    return best_idx, best


def _finish(
    store: MemoryStore, best_idx: int, probes: int, current_landmarks: LandmarkSet
) -> Retrieval:
    episode = store.episodes[best_idx]
    return Retrieval(episode, _decode(episode, current_landmarks), probes)


def _check_query(query: Query) -> None:
    if query.item_type is None or query.cue is None:
        raise InputError("query must carry an item type and a cue")


def retrieve(
    store: MemoryStore, query: Query, current_landmarks: LandmarkSet
) -> Retrieval:
    """Answer a query against the store's access structure."""
    _check_query(query)

    if store.variant is StoreVariant.FLAT:
        index = store._type_index(query.item_type)
        count = len(index.episodes)
        if not count:
            return Retrieval(None, None, 0)
        best_pos = int(_flat_scores(index, query.cue).argmax())
        return _finish(store, index.episodes[best_pos], count, current_landmarks)

    # Clustered: predict the target location from the query cue, then probe
    # grid cells outward by Chebyshev ring until candidates appear.
    bucket = store.index.get(query.item_type, {})
    if not bucket:
        return Retrieval(None, None, 0)
    anchors, ok = _cue_anchor_positions(query.cue, current_landmarks)
    predicted = None
    if ok:
        predicted, degenerate = trilaterate(anchors, query.cue.distances)
        if degenerate:
            predicted = None
    if predicted is None:
        # No usable geometry: fall back to scanning the type bucket in
        # deterministic row-major cell order.
        rows = [i for cell in sorted(bucket) for i in bucket[cell]]
        best_idx, _ = _fold_best(store, query.cue, rows, _NO_PICK)
        return _finish(store, best_idx, len(rows), current_landmarks)

    # Probe cells outward from the predicted location, nearest ring first.
    # Stop as soon as a strong match appears (the predicted cell almost
    # always holds the right episode), or, failing that, at the first
    # non-empty ring beyond the immediate neighbourhood. Ring 15 reaches
    # every cell, so a non-empty bucket always yields a pick.
    center = grid_cell(predicted)
    picked, probes = _NO_PICK, 0
    for ring in range(GRID_DIV + 1):
        rows = [i for cell in _ring_cells(center, ring) for i in bucket.get(cell, ())]
        picked = _fold_best(store, query.cue, rows, picked)
        probes += len(rows)
        if picked[1] >= EARLY_STOP_SCORE or (ring >= 1 and probes > 0):
            break
    return _finish(store, picked[0], probes, current_landmarks)


@functools.lru_cache(maxsize=None)
def _ring_cells(center: tuple[int, int], ring: int) -> tuple[tuple[int, int], ...]:
    """Cells at exact Chebyshev distance `ring`, row-major, clipped to grid.
    Memoized: at most GRID_DIV**2 centres times GRID_DIV + 1 rings, each
    computed on its first use."""
    cx, cy = center
    cells = []
    for gx in range(cx - ring, cx + ring + 1):
        for gy in range(cy - ring, cy + ring + 1):
            if max(abs(gx - cx), abs(gy - cy)) != ring:
                continue
            if 0 <= gx < GRID_DIV and 0 <= gy < GRID_DIV:
                cells.append((gx, gy))
    return tuple(cells)


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
    intersection of the stored distance constraints. It stops after 30
    iterations, on `det <= 0`, when the line search accepts no trial point
    or accepts the current one, or on a step shorter than 1e-12.

    Invariant: everything runs on Python floats, with the operations of the
    numpy-scalar form this replaced in the same order (accumulators start
    at 0.0, so signed zeros match too). An accepted trial point's offsets,
    distances and residuals carry over to the next Jacobian, which would
    recompute the same values. The result is therefore bit-identical to
    that form, and `runs.jsonl` does not depend on which of the two ran; a
    test keeps the numpy-scalar form as the oracle.
    """
    (x0, y0), (x1, y1), (x2, y2) = anchors
    d0, d1, d2 = cue.distances
    hypot = math.hypot
    x, y = init
    dx0, dy0, dx1, dy1, dx2, dy2 = x - x0, y - y0, x - x1, y - y1, x - x2, y - y2
    r0, r1, r2 = hypot(dx0, dy0), hypot(dx1, dy1), hypot(dx2, dy2)
    f0, f1, f2 = r0 - d0, r1 - d1, r2 - d2
    # Equal bit for bit to a sum started at 0.0: a square is never -0.0.
    cost = f0 * f0 + f1 * f1 + f2 * f2
    for _ in range(30):
        gx = gy = hxx = hxy = hyy = 0.0
        if not r0 < 1e-12:
            jx, jy = dx0 / r0, dy0 / r0
            gx, gy = gx + jx * f0, gy + jy * f0
            hxx, hxy, hyy = hxx + jx * jx, hxy + jx * jy, hyy + jy * jy
        if not r1 < 1e-12:
            jx, jy = dx1 / r1, dy1 / r1
            gx, gy = gx + jx * f1, gy + jy * f1
            hxx, hxy, hyy = hxx + jx * jx, hxy + jx * jy, hyy + jy * jy
        if not r2 < 1e-12:
            jx, jy = dx2 / r2, dy2 / r2
            gx, gy = gx + jx * f2, gy + jy * f2
            hxx, hxy, hyy = hxx + jx * jx, hxy + jx * jy, hyy + jy * jy
        hxx += 1e-8
        hyy += 1e-8
        det = hxx * hyy - hxy * hxy
        if det <= 0.0:
            break
        sx = (gx * hyy - gy * hxy) / det
        sy = (hxx * gy - hxy * gx) / det
        t = 1.0
        for _ in range(20):
            cx, cy = x - t * sx, y - t * sy
            dx0, dy0, dx1, dy1, dx2, dy2 = cx - x0, cy - y0, cx - x1, cy - y1, cx - x2, cy - y2
            r0, r1, r2 = hypot(dx0, dy0), hypot(dx1, dy1), hypot(dx2, dy2)
            f0, f1, f2 = r0 - d0, r1 - d1, r2 - d2
            c = f0 * f0 + f1 * f1 + f2 * f2
            if c <= cost:
                break
            t *= 0.5
        else:
            break
        if cx == x and cy == y:
            break
        moved = hypot(cx - x, cy - y)
        x, y, cost = cx, cy, c
        if moved < 1e-12:
            break
    return x, y


def _decode(record: EpisodeRecord, current_landmarks: LandmarkSet) -> tuple[float, float]:
    """Re-derive a stored location from its cue under current landmarks; the
    stored location itself when the set lacks one of the cue's landmarks or
    they are collinear. The set's memo solves each cue once, keyed by value:
    cues equal under `==` hold the same numbers up to the sign of a zero,
    which moves no bit of the solve."""
    cue = record.cue
    point = current_landmarks._decoded.get(cue)
    if point is None:
        point = ()
        anchors, ok = _cue_anchor_positions(cue, current_landmarks)
        if ok:
            (x0, y0), (x1, y1), (x2, y2) = anchors
            cross = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
            if not abs(cross) < COLLINEAR_TOL:
                point = _range_least_squares(cue, anchors, _bearing_fix(cue, anchors))
        current_landmarks._decoded[cue] = point
    return point or record.location


decode_location = _decode


def brute_force_retrieve(
    store: MemoryStore, query: Query, current_landmarks: LandmarkSet
) -> Retrieval:
    """Reference retrieval: scan every episode, no index, no early stop.

    Shares only the scoring rule with the production paths; used as the
    oracle for equivalence checks. It reports 0 probes: what it scans is
    not a retrieval's cost.
    """
    _check_query(query)
    best_idx, best = None, -1.0
    terms = _query_terms(query.cue)
    for i, e in enumerate(store.episodes):
        if e.item_type != query.item_type:
            continue
        s = _similarity(terms, e.cue)
        if s > best:
            best_idx, best = i, s
    if best_idx is None:
        return Retrieval(None, None, 0)
    episode = store.episodes[best_idx]
    return Retrieval(episode, _decode(episode, current_landmarks), 0)
