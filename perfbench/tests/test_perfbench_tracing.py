"""Self-time arithmetic, wrapper installation and restoration, oracle check,
slowdown windows."""

from __future__ import annotations

import json
from types import SimpleNamespace

import child
import speed
import tracing
from workloads import WORKLOADS


class FakeClock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_subtracts_direct_children_only():
    # parent 0..10 { a 2..5 { g 3..4 }, b 6..7 }
    tracer = tracing.Tracer(clock=FakeClock([0, 2, 3, 4, 5, 6, 7, 10]))
    tracer.enter("x.parent")
    tracer.enter("x.a")
    tracer.enter("y.g")
    assert tracer.exit() == 1
    assert tracer.exit() == 3
    tracer.enter("x.b")
    tracer.exit()
    assert tracer.exit() == 10
    assert tracer.self_s("x.parent") == 6
    assert tracer.self_s("x.a") == 2
    assert tracer.self_s("y.g") == 1
    assert tracer.self_s("x.b") == 1
    assert tracer.total_s("x.a") == 3
    assert tracer.layer_self_s("x") == 9
    assert tracer.all_self_s() == 10  # self times tile the outermost span


def test_stats_split_by_phase():
    tracer = tracing.Tracer(clock=FakeClock([0, 1, 1, 4]))
    tracer.phase = "grid"
    tracer.enter("m.op")
    tracer.exit()
    tracer.phase = "report"
    tracer.enter("m.op")
    tracer.exit()
    assert tracer.calls("m.op") == 2
    assert tracer.self_s("m.op", "grid") == 1
    assert tracer.self_s("m.op", "report") == 3


def test_tail_needs_ten_samples_beyond():
    assert tracing.tail([3.0, 1.0, 2.0]) == (3.0, 100)
    assert tracing.tail([float(i) for i in range(40)])[1] == 75
    assert tracing.tail([float(i) for i in range(200)])[1] == 95
    assert tracing.tail([float(i) for i in range(1000)])[1] == 99


def test_install_wraps_every_lookup_site_and_uninstall_restores():
    import hoardbench.envs.family_b as family_b
    import hoardbench.envs.family_c as family_c
    import hoardbench.memory as memory

    original = memory.retrieve
    installation = tracing.install(tracing.Tracer())
    try:
        assert installation.missing == []
        for module in (memory, family_b, family_c):
            assert module.retrieve is not original
            assert getattr(module.retrieve, "__perfbench_original__") is original
    finally:
        tracing.uninstall(installation)
    for module in (memory, family_b, family_c):
        assert module.retrieve is original
    assert tracing.leftover_wrappers() == []


def test_traced_run_restores_names_and_matches_untraced_output(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(WORKLOADS["b_archive"].config(0, tiny=True)))
    plain_out, traced_out = tmp_path / "plain", tmp_path / "traced"
    argv = ["run", "--config", str(config), "--jobs", "1", "--out"]
    with speed.Sampler() as sampler:
        plain = child.run_plain(argv + [str(plain_out)], sampler)
    traced = child.run_traced(argv + [str(traced_out)])
    assert plain["rc"] == traced["rc"] == 0
    assert traced["leftover"] == [] and tracing.leftover_wrappers() == []
    assert (plain_out / "runs.jsonl").read_bytes() == (traced_out / "runs.jsonl").read_bytes()
    layers = traced["layers"]
    assert layers["harness.cells"] == 2
    assert layers["memory.oracle_checks"] > 0
    assert layers["memory.oracle_mismatches"] == 0
    assert layers["kappa.writes"] > 0 and layers["ms_per_kappa.writes"] > 0


def test_oracle_counts_a_mismatch():
    flat = object()
    picked = SimpleNamespace(episode=SimpleNamespace(id=1), decoded_location=(0.5, 0.5),
                             probes_used=3)
    oracle = SimpleNamespace(episode=SimpleNamespace(id=2), decoded_location=(0.5, 0.5))
    memory = SimpleNamespace(brute_force_retrieve=lambda *a: oracle,
                             StoreVariant=SimpleNamespace(FLAT=flat))
    tracer = tracing.Tracer()
    wrapped = tracing._retrieve_span(tracer, lambda *a: picked, memory)
    wrapped(SimpleNamespace(variant=flat), None, None)
    assert tracer.counts["memory.oracle_checks"] == 1
    assert tracer.counts["memory.oracle_mismatches"] == 1
    assert tracer.counts["memory.probes"] == 3


def test_slowdown_averages_the_samples_inside_the_window():
    sampler = speed.Sampler()
    ref = speed.REFERENCE_PROBE_S
    sampler.samples = [(0.0, ref), (1.0, 2 * ref), (2.0, 4 * ref)]
    assert sampler.slowdown(0.5, 1.5) == 2.0
    assert sampler.slowdown(1.0, 2.0) == 3.0
    assert abs(sampler.slowdown(5.0, 6.0) - 7 / 3) < 1e-12  # empty window: all samples
    assert abs(sampler.slowdown() - 7 / 3) < 1e-12
