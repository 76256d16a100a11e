import importlib
import json
import math

import pytest

from hoardbench import __version__
from hoardbench.core.state import ConfigurationError
from hoardbench.envs import FAMILIES, STATUS_COMPLETED
from hoardbench.harness import parse_config, resolved_document, run_grid, run_one, variant_agents


@pytest.mark.parametrize(
    "key, document",
    [
        ("seeds", {"seeds": True}),
        ("seeds", {"seeds": False}),
        ("seeds", {"seeds": -1}),
        ("seeds", {"seeds": "-2..3"}),
        ("seeds", {"seeds": 2.0}),
        ("agent.kp", {"agent": {"kp": True}}),
        ("agent.kd", {"agent": {"kd": math.nan}}),
        ("agent.action_bound", {"agent": {"action_bound": math.inf}}),
        ("kp", {"agent": {"kp": -1.0}}),
        ("forgetting", {"agent": {"forgetting": 0.5}}),
        ("agent.checker_fp", {"family": "D", "agent": {"checker_fp": 1.0}}),
        ("agent.checker_fp", {"family": "D", "agent": {"checker_fp": 0.5, "checker_fn": 0.5}}),
        ("agent.checker_fn", {"family": "D", "agent": {"checker_fn": -0.1}}),
        ("ledger.budget", {"ledger": {"budget": math.nan}}),
        ("ledger.budget", {"ledger": {"budget": math.inf}}),
        ("ledger.budget", {"ledger": {"budget": True}}),
        ("budget", {"ledger": {"budget": 0}}),
        ("delta", {"ledger": {"delta": 1.0}}),
        ("version", {"version": "0.0.1"}),
        ("version", {"version": 1}),
    ],
)
def test_top_level_keys_rejected_by_name(key, document):
    with pytest.raises(ConfigurationError, match=key):
        parse_config(json.dumps({"family": "A", **document}))


@pytest.mark.parametrize(
    "key, block",
    [("gap_scale", "env"), ("kp", "agent"), ("budget", "ledger")],
)
def test_int_too_large_for_a_float_rejected_by_name(key, block):
    document = '{"family": "A", "%s": {"%s": %s}}' % (block, key, "9" * 400)
    with pytest.raises(ConfigurationError, match=key):
        parse_config(document)


def test_version_echo_round_trips():
    config = parse_config(json.dumps({"family": "A", "seeds": 3, "version": __version__}))
    assert resolved_document(config)["version"] == __version__
    assert parse_config(json.dumps(resolved_document(config))) == config


@pytest.mark.parametrize(
    "family, env, key, values",
    [
        ("A", {"trials": 1, "horizon": 20}, "z_range", [[0.2, 0.4], [0.5, 0.8]]),
        ("C", {"caches": 5}, "forbidden_zone", [[0, 0, 2, 2], [5, 5, 9, 9]]),
    ],
)
def test_sweep_over_tuple_field_runs(family, env, key, values):
    # JSON writes tuple fields as lists; each cell must get the tuple back.
    config = parse_config(json.dumps({
        "family": family, "seeds": "0..1", "env": env,
        "sweep": {"key": key, "values": values},
    }))
    result = run_grid(config)
    assert [c.record.error for c in result.cells] == [""] * 4
    assert [c.variant for c in result.cells] == [
        f"baseline@{key}={v}" for v in values for _ in range(2)
    ]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_ablation_flips_one_of_its_family_keys(family):
    entry = FAMILIES[family]
    config = parse_config(json.dumps({"family": family, "ablations": sorted(entry.ablations)}))
    agents = dict(variant_agents(config))
    assert agents["baseline"] == entry.agent
    for name, (key, value) in entry.ablations.items():
        assert key in entry.agent and value != entry.agent[key]
        assert agents[name] == {**entry.agent, key: value}
        entry.check_agent(agents[name])


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_foreign_agent_keys_rejected_by_name(family):
    own = FAMILIES[family].agent
    foreign = {
        key: value
        for entry in FAMILIES.values()
        for key, value in entry.agent.items()
        if key not in own
    }
    assert foreign
    for key, value in foreign.items():
        with pytest.raises(ConfigurationError, match=f"agent.{key}"):
            parse_config(json.dumps({"family": family, "agent": {key: value}}))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_other_family_ablations_rejected_by_name(family):
    foreign = [
        name for other, entry in FAMILIES.items() if other != family for name in entry.ablations
    ]
    assert foreign
    for name in foreign:
        with pytest.raises(ConfigurationError, match=f"ablations.{name}"):
            parse_config(json.dumps({"family": family, "ablations": [name]}))


def test_run_one_calls_each_family_runner_through_its_module(monkeypatch):
    # perfbench/tracing.py times each family by replacing the module
    # attribute `run_family_x`, so the registry must look the runner up
    # there at call time, not hold the function object.
    calls = []
    for family in "abcd":
        module = importlib.import_module(f"hoardbench.envs.family_{family}")
        original = getattr(module, f"run_family_{family}")

        def counting(*args, _original=original, _family=family, **kwargs):
            calls.append(_family)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, f"run_family_{family}", counting)
    tiny_envs = {
        "A": {"horizon": 10},
        "B": {"n_events": 8},
        "C": {"caches": 2},
        "D": {"n_constraints": 5},
    }
    for family, env in tiny_envs.items():
        config = parse_config(json.dumps({"family": family, "env": env}))
        assert run_one(config, config.agent, 0).status == STATUS_COMPLETED
    assert calls == ["a", "b", "c", "d"]
