import hashlib
import json
import math

import numpy as np
import pytest

from hoardbench.core.policy import PolicyContext, form_queries, form_query
from hoardbench.core.state import ConfigurationError, OptionChoice, OptionKind, Trace
from hoardbench.envs import family_b
from hoardbench.envs.family_b import (
    MAX_CONFLICT_RATE,
    MAX_EVENTS,
    MAX_ITEM_TYPES,
    MAX_LANDMARK_DRIFT,
    FamilyBConfig,
    _world,
    run_family_b,
)
from hoardbench.harness import parse_config, run_grid, write_report
from hoardbench.ledger import CostLedger
from hoardbench.memory import MAX_LANDMARKS, LandmarkSet, StoreVariant, brute_force_retrieve
from hoardbench.rng import RunStreams


def _ledger():
    return CostLedger()


def test_singleton_store_is_perfect():
    env = FamilyBConfig(n_events=1)
    for variant in ("flat", "clustered"):
        record = run_family_b(env, variant, _ledger(), seed=0)
        assert record.metrics["precision"] == 1.0
        assert record.metrics["confusion_rate"] == 0.0
        assert record.metrics["probes_mean"] == 1.0


def test_noiseless_recall_is_exact_for_both_variants():
    env = FamilyBConfig(n_events=256, landmark_drift=0.0, conflict_rate=0.0)
    for variant in ("flat", "clustered"):
        record = run_family_b(env, variant, _ledger(), seed=1)
        assert record.metrics["precision"] == 1.0
        assert record.metrics["confusion_rate"] == 0.0


def test_variants_store_identical_episode_sets():
    # The indexing ablation changes access structure only.
    env = FamilyBConfig(n_events=128, conflict_rate=0.25)
    flat = run_family_b(env, "flat", _ledger(), seed=3)
    clustered = run_family_b(env, "clustered", _ledger(), seed=3)
    assert flat.metrics["episodes_stored"] == clustered.metrics["episodes_stored"]
    # Same ground truth, same queries: precision under zero drift matches.
    assert flat.metrics["precision"] == clustered.metrics["precision"]


def test_degradation_monotone_in_drift_and_conflict():
    # Precision is non-increasing along each axis of a 3x3 stress grid,
    # ties allowed. Drift levels sit in the graded-degradation regime; at
    # extreme drift a wrong-but-nearby episode can outscore a doomed decode
    # of the right one, which is interference, not monotone degradation.
    drifts = (0.0, 0.01, 0.02)
    conflicts = (0.0, 0.5, 1.0)
    seeds = range(10)
    grid = {}
    for d in drifts:
        for c in conflicts:
            env = FamilyBConfig(n_events=192, landmark_drift=d, conflict_rate=c)
            vals = [
                run_family_b(env, "clustered", _ledger(), s).metrics["precision"]
                for s in seeds
            ]
            grid[(d, c)] = float(np.mean(vals))
    tie_tol = 0.008  # distractor draws differ across conflict levels
    for c in conflicts:
        assert grid[(0.0, c)] + tie_tol >= grid[(0.01, c)]
        assert grid[(0.01, c)] + tie_tol >= grid[(0.02, c)]
    for d in drifts:
        assert grid[(d, 0.0)] + tie_tol >= grid[(d, 0.5)]
        assert grid[(d, 0.5)] + tie_tol >= grid[(d, 1.0)]


def test_probe_accounting_flat_scans_same_type():
    env = FamilyBConfig(n_events=200, item_types=4)
    record = run_family_b(env, "flat", _ledger(), seed=2)
    assert record.metrics["probes_mean"] == pytest.approx(200 / 4, rel=0.3)


def test_kappa_conservation_and_costs():
    env = FamilyBConfig(n_events=64, conflict_rate=0.5)
    record = run_family_b(env, "clustered", _ledger(), seed=0)
    assert sum(record.kappa_by_source.values()) == pytest.approx(
        record.costs["compute_used"]
    )


# 32 writes then 32 queries, seed 0. The costs were recorded when every write
# and every query charged the ledger through `accrue`. At budget 20 the
# writes run it out; at 32 they meet it exactly and the first query crosses
# it. Latency is charged whatever the budget, since B never stops early.
@pytest.mark.parametrize("budget", [20, 32, 40, 60])
def test_a_spent_budget_exhausts_the_run_and_every_step_still_runs(budget):
    record = run_family_b(FamilyBConfig(n_events=32), "clustered", CostLedger(budget=budget),
                          seed=0)
    assert record.status == "budget_exhausted"
    assert record.costs == {"task_cost": 0.0, "latency_cost": 64.0, "leak_cost": 0.0,
                            "repair_cost": 0.0, "compute_used": float(budget)}
    assert record.objective == 0.64


@pytest.mark.parametrize("variant, compute_used", [("clustered", 64.0), ("flat", 166.0)])
def test_a_budget_the_run_never_reaches_charges_every_write_and_probe(variant, compute_used):
    record = run_family_b(FamilyBConfig(n_events=32), variant, CostLedger(budget=1e5), seed=0)
    assert record.status == "completed"
    assert record.costs == {"task_cost": 0.0, "latency_cost": 64.0, "leak_cost": 0.0,
                            "repair_cost": 0.0, "compute_used": compute_used}
    assert record.objective == 0.64
    assert sum(record.kappa_by_source.values()) == compute_used


def test_goal_verdict_follows_precision_target():
    good = run_family_b(FamilyBConfig(n_events=64), "clustered", _ledger(), 0)
    assert good.goal_verdict == 1
    bad = run_family_b(
        FamilyBConfig(n_events=512, landmark_drift=0.08, conflict_rate=1.0,
                      precision_target=0.95),
        "flat", _ledger(), 0,
    )
    assert bad.goal_verdict == 0


def test_reproducible_including_trace():
    env = FamilyBConfig(n_events=32)
    t1, t2 = Trace(), Trace()
    r1 = run_family_b(env, "clustered", _ledger(), 5, trace=t1)
    r2 = run_family_b(env, "clustered", _ledger(), 5, trace=t2)
    assert r1.to_json_line() == r2.to_json_line()
    assert t1.to_jsonl() == t2.to_jsonl()


# sha256 of `run_family_b`'s record JSON line and trace JSONL at landmark
# drift 0.02, seed 7. The trace digests were recorded when family B made one
# memory call per write and per query; the record digests were re-recorded
# when the goal signal's emission moved from segment end + 1 to segment end,
# its only change. 63, 64 and 65 events straddle the chunk size of 64. At one
# event, conflict 0.5 writes no distractor and both variants give the same
# bytes, so one case stands for all four.
GOLDEN = {
    (1, "flat", 0.0): (
        "69244add4c32dc2c6ef5a7307bb170b8e6815402d1df512c10f288414631b87e",
        "4ce9762e292235bbbb780b5d2039e9c0da2b5e2b84180b6cae11ecd102488ea8",
    ),
    (63, "flat", 0.0): (
        "097948b546971e468998bc0da91222c2324f7cbdce8a9866a4c9db15826805af",
        "75d0d2e26ad52ecac864a29edf349503faf850743f7101d5b985f2fa77f11090",
    ),
    (63, "flat", 0.5): (
        "dbd0d422706caa8b70205bf239fc3492237c97ccd401dc5c04074a3674f0130c",
        "22e328e50c464281a2f04cf19480d0d1cd7c2590e726e6a3bca296382595f50e",
    ),
    (63, "clustered", 0.0): (
        "c2b66f26c3b9d48b350e3cbee64362c63305ea477dc9550e419a5aebc7e40a27",
        "75d0d2e26ad52ecac864a29edf349503faf850743f7101d5b985f2fa77f11090",
    ),
    (63, "clustered", 0.5): (
        "86423e3cce380604ecccf292393e2b8112f9695731730bc583cd4f19fda3b92b",
        "e02d54166584f2adf18f4dc5a4955f920e6022223c7267563da3d3c17b6bc365",
    ),
    (64, "flat", 0.0): (
        "0deba309fd15d06952fa5a91d42cb0b31e8ec43629fb5d964d07daca8aa2c7b6",
        "fb6a50cec9775d0c98f3f2e39cb768afd4c3271b6250b69288a88277e08ce4d5",
    ),
    (64, "flat", 0.5): (
        "1eb6396682f843446c9c10435ae506d954222d7ab58b2e7d303b67d90b5355f2",
        "dbf052991d65c8db1a9de296bdbb127eda6b458a18b2806b546309b10087e384",
    ),
    (64, "clustered", 0.0): (
        "ef5460700eca017f0c95109353cb3d30d967847caccb1d3801c6a48838ea1e43",
        "9ee0e83dd50aaab9d540981576cbe328978e2e0bad7083dea8816dca93d01779",
    ),
    (64, "clustered", 0.5): (
        "792025132b4d6b92e60360aa32dd1cdcd597973e6980b2d617956b5e671d8584",
        "502d3b53f039385fc314e8c8df6ae3705f98afb805f617facb338df03edca320",
    ),
    (65, "flat", 0.0): (
        "d4c8e08031bb7128d2b51b597556e34da65abb51f356ca1c08cc89d67a0f4f40",
        "ae602afa446577f4fbb0140faf73f7ddca2207322a449184a324e3f7569a9a10",
    ),
    (65, "flat", 0.5): (
        "02a782e6bbaddc59b7658403ff4b41e3ee642e78075611451a1a4af11eb6bc1d",
        "66437b9a4f466ba253b9bb041227528ecd2be4e48e7747bd80f72acd3d9f7909",
    ),
    (65, "clustered", 0.0): (
        "cf73d6741cd7b7d9b8f5339288a1ee2f3854d9c5c103773c7b9288332a43ced6",
        "ae602afa446577f4fbb0140faf73f7ddca2207322a449184a324e3f7569a9a10",
    ),
    (65, "clustered", 0.5): (
        "d1a3611e2fb6d6c7133130904544e21e13d3009824144547a2d25991ddd17503",
        "7045353264aff1ca5e5641cb4adecf3e827e02e23299096492865437ac35ef29",
    ),
}


def _run_bytes(n_events, variant, conflict, seed=7):
    env = FamilyBConfig(n_events=n_events, landmark_drift=0.02, conflict_rate=conflict)
    trace = Trace()
    record = run_family_b(env, variant, _ledger(), seed, trace=trace)
    return record.to_json_line(), trace.to_jsonl()


@pytest.mark.parametrize("n_events, variant, conflict", sorted(GOLDEN))
def test_output_bytes_match_one_memory_call_per_item(n_events, variant, conflict):
    got = _run_bytes(n_events, variant, conflict)
    sha = tuple(hashlib.sha256(text.encode()).hexdigest() for text in got)
    assert sha == GOLDEN[n_events, variant, conflict]


# sha256 of every file the report writes for the grid below, but timing.json
# and resolved_config.json: two seeds make summary.csv rows, the per-cell
# quantiles `probes_median` and `probes_p95` among them.
ARCHIVE_REPORT_SHA256 = {
    "runs.jsonl": "e3e8f5f489074efabf617177bfc4e66f20420830503a6caba1aa9d07d739011f",
    "summary.csv": "657fb59f9c6e423968feaa35c250b55a459ea15d53d75a8966448872ad3e1e30",
    "constraint_report.json": "90b70459772cf684e533d7787f3b11496c4f5ac2f8fc489d8b2215aa1c45f199",
    "failures.md": "de2c378125844a0f67867554c01bb604f84c144b08b3902e4bfbaa9acf13aacf",
    "traces/baseline/seed_0_steps_0_119.jsonl": "f10e187c1fe6d59d5c8dc04a69b17ac28d29acdb85652cd284f3a7f5ee721320",
    "traces/baseline/seed_1_steps_0_119.jsonl": "4e53010a309fe3f9e58134f23ae33dd7696d3c68d42940505090d751c5647fad",
    "traces/flat_archive/seed_0_steps_0_119.jsonl": "e08568a33d16941db9e1f8e1704606ae202222d2d30c1ea9494f4f26d1ea169a",
    "traces/flat_archive/seed_1_steps_0_119.jsonl": "4e53010a309fe3f9e58134f23ae33dd7696d3c68d42940505090d751c5647fad",
}


def test_output_bytes_of_a_two_seed_archive_grid(tmp_path, report_sha256):
    config = parse_config(json.dumps({
        "family": "B", "seeds": "0..1",
        "env": {"n_events": 48, "landmark_drift": 0.02, "conflict_rate": 0.5},
        "ablations": ["flat_archive"],
    }))
    write_report(run_grid(config, jobs=1), tmp_path)
    summary = (tmp_path / "summary.csv").read_text()
    assert "flat_archive/probes_median," in summary and "baseline/probes_p95," in summary
    assert report_sha256(tmp_path) == ARCHIVE_REPORT_SHA256


def test_chunk_size_changes_no_output(monkeypatch):
    expected = {v: _run_bytes(40, v, 0.5, seed=3) for v in ("flat", "clustered")}
    for chunk in (1, 7, 1000):
        monkeypatch.setattr(family_b, "CHUNK", chunk)
        _world.cache_clear()  # the world encodes the write cues a chunk at a time
        for variant, want in expected.items():
            assert _run_bytes(40, variant, 0.5, seed=3) == want


@pytest.mark.parametrize("variant, other", [("clustered", "flat"), ("flat", "clustered")])
def test_cell_on_a_cold_memo_matches_one_after_another_variant(variant, other):
    env = FamilyBConfig(n_events=48, landmark_drift=0.02, conflict_rate=0.5)
    _world.cache_clear()
    cold = _run_bytes(48, variant, 0.5, seed=5)
    run_family_b(env, other, _ledger(), 5)
    hits = _world.cache_info().hits
    warm = _run_bytes(48, variant, 0.5, seed=5)
    assert _world.cache_info().hits == hits + 1
    assert warm == cold


def test_grid_builds_each_seeds_world_once():
    config = parse_config(json.dumps({
        "family": "B", "seeds": "0..1", "env": {"n_events": 48},
        "ablations": ["flat_archive"],
    }))
    _world.cache_clear()
    result = run_grid(config, jobs=1)
    assert [c.record.status for c in result.cells] == ["completed"] * 4
    assert (_world.cache_info().misses, _world.cache_info().hits) == (2, 2)


def test_form_queries_matches_form_query_per_option():
    streams = RunStreams(5)
    landmarks = LandmarkSet.sample(25, streams.env)
    ctx = PolicyContext(rng=streams.agent, landmark_estimates=landmarks)
    locs = streams.env.uniform(0.0, 1.0, size=(20, 2))
    options = [
        OptionChoice(OptionKind.RETRIEVE, {"item_type": 1.0 + k % 4, "x": float(x), "y": float(y)})
        for k, (x, y) in enumerate(locs)
    ]
    batch = form_queries(None, options, ctx)
    assert [(q.item_type, q.cue) for q in batch] == [
        (q.item_type, q.cue) for q in (form_query(None, o, ctx) for o in options)
    ]


def test_flat_queries_agree_with_brute_force(monkeypatch):
    # Every 16th query of a real flat cell, through the reference scan.
    answered = []
    mismatches = []
    original = family_b.retrieve

    def checked(store, query, landmarks):
        assert store.variant is StoreVariant.FLAT
        result = original(store, query, landmarks)
        if len(answered) % 16 == 0:
            expected = brute_force_retrieve(store, query, landmarks)
            if (result.episode.id, result.decoded_location) != (
                expected.episode.id, expected.decoded_location
            ):
                mismatches.append(len(answered))
        answered.append(query)
        return result

    monkeypatch.setattr(family_b, "retrieve", checked)
    env = FamilyBConfig(n_events=512, landmark_drift=0.01, conflict_rate=0.5)
    run_family_b(env, "flat", _ledger(), 0)
    assert len(answered) == 512
    assert mismatches == []


def test_config_validation():
    with pytest.raises(ConfigurationError, match="n_events"):
        FamilyBConfig(n_events=0)
    with pytest.raises(ConfigurationError, match="dig_radius"):
        FamilyBConfig(dig_radius=0.0)
    with pytest.raises(ConfigurationError, match="landmark_count"):
        FamilyBConfig(landmark_count=2)
    with pytest.raises(ConfigurationError, match="verifier_fp"):
        FamilyBConfig(verifier_fp=0.5, verifier_fn=0.5)


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_events", 2.5),
        ("n_events", True),
        ("item_types", 3.5),
        ("item_types", 0),
        ("landmark_count", 4.0),
        ("query_delay", -5),
        ("query_delay", 1.5),
        ("landmark_drift", math.nan),
        ("landmark_drift", -0.01),
        ("landmark_drift", True),
        ("conflict_rate", math.inf),
        ("conflict_rate", -1.0),
        ("conflict_rate", "0.5"),
        # Accepted before they had caps, then crashed the cell: a distractor
        # draw beyond numpy's largest array, and an overflowing decode.
        ("conflict_rate", 1e30),
        ("conflict_rate", 1e300),
        ("landmark_drift", 1e300),
        # Int keys accepted before they had caps, then crashed the cell: the
        # event and landmark draws beyond numpy's largest array, and a type
        # draw beyond int64.
        ("n_events", 10**20),
        ("n_events", MAX_EVENTS + 1),
        ("item_types", 10**20),
        ("item_types", MAX_ITEM_TYPES + 1),
        ("landmark_count", 10**20),
        ("landmark_count", MAX_LANDMARKS + 1),
        ("dig_radius", math.nan),
        ("precision_target", math.nan),
        ("precision_target", 1.5),
        ("verifier_fp", 1.0),
        ("verifier_fn", -0.1),
    ],
)
def test_config_rejects_bad_values_by_field_name(field, value):
    with pytest.raises(ConfigurationError, match=field):
        FamilyBConfig(**{field: value})
    with pytest.raises(ConfigurationError, match=field):
        parse_config(json.dumps({"family": "B", "env": {field: value}}))


@pytest.mark.parametrize("variant", ["clustered", "flat"])
def test_a_config_at_both_caps_runs(variant):
    env = FamilyBConfig(n_events=32, landmark_drift=MAX_LANDMARK_DRIFT,
                        conflict_rate=MAX_CONFLICT_RATE)
    record = run_family_b(env, variant, _ledger(), seed=3)
    assert record.status == "completed"
    assert record.metrics["episodes_stored"] == 64.0


@pytest.mark.parametrize("variant", ["clustered", "flat"])
def test_a_cell_at_the_item_type_cap_queries_the_types_it_wrote(variant):
    # Types this large are all distinct, so every query finds exactly its own
    # cache: a type that lost bits on its way through the retrieval goal
    # would find none. The caps of n_events and landmark_count are too
    # costly to run here.
    env = FamilyBConfig(n_events=16, item_types=MAX_ITEM_TYPES)
    assert max(item_type for item_type, *_ in _world(env, 5)[3]) > 2**52
    record = run_family_b(env, variant, _ledger(), seed=5)
    assert record.status == "completed"
    assert record.metrics["confusion_rate"] == 0.0
    assert record.metrics["probes_mean"] == 1.0


def test_jobs_do_not_change_output_bytes(outputs_by_jobs):
    # Both variants, drift and distractors, with trace windows written for
    # the listed cells that miss the precision target.
    outputs = outputs_by_jobs({
        "family": "B",
        "seeds": "0..3",
        "env": {"n_events": 48, "landmark_drift": 0.02, "conflict_rate": 0.5},
        "ablations": ["flat_archive"],
    })
    files, _ = outputs[1]
    assert sum(name.startswith("traces/") for name in files) == 4
    assert outputs[1] == outputs[2]


def test_traces_recorded_in_the_grid_match_the_replay(outputs_by_jobs):
    # The b_archive shape: one seed, both variants, traces of landmark
    # snapshots. Both cells miss the precision target, whose segment covers
    # every step and ends past the trace, so each window is the whole trace;
    # `report --in` replays them and is the oracle.
    outputs = outputs_by_jobs({
        "family": "B",
        "seeds": "1..1",
        "env": {"n_events": 48, "landmark_drift": 0.02, "conflict_rate": 0.5},
        "ablations": ["flat_archive"],
    })
    files, _ = outputs[1]
    assert sum(name.startswith("traces/") for name in files) == 2
    assert outputs[1] == outputs[2]
