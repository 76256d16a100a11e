import json
import math
from collections import deque

import numpy as np
import pytest

from hoardbench.controller import (
    ControllerConfig,
    RlsState,
    double_integrator,
    open_loop_plan,
    pd_feedback,
    predictive_compensate,
    rls_update,
)
from hoardbench.core.state import ConfigurationError, InputError, Trace
from hoardbench.envs.family_a import FamilyAConfig, predicted_landing_error, run_family_a
from hoardbench.ledger import CostLedger
from hoardbench.rng import Substream

OPEN_LOOP = ControllerConfig(feedback_enabled=False, compensator_enabled=False)


# --- PD feedback ---------------------------------------------------------


def test_pd_equilibrium_is_silent():
    force, clamped = pd_feedback(ControllerConfig(), 0.0, 0.0)
    assert force == 0.0 and not clamped


def test_pd_arithmetic():
    cfg = ControllerConfig(kp=2.0, kd=1.0, action_bound=10.0)
    force, clamped = pd_feedback(cfg, 0.5, -0.1)
    assert force == pytest.approx(-0.9)
    assert not clamped


def test_pd_clamps_at_bound():
    cfg = ControllerConfig(kp=2.0, kd=1.0, action_bound=1.0)
    force, clamped = pd_feedback(cfg, 100.0, 0.0)
    assert force == -1.0 and clamped
    force, clamped = pd_feedback(cfg, -100.0, 0.0)
    assert force == 1.0 and clamped


def test_pd_keeps_a_force_on_the_bound_and_sends_nan_to_it_unclamped():
    cfg = ControllerConfig(kp=2.0, kd=1.0, action_bound=1.0)
    assert pd_feedback(cfg, -0.5, 0.0) == (1.0, False)
    assert pd_feedback(cfg, 0.5, 0.0) == (-1.0, False)
    assert pd_feedback(cfg, math.nan, 0.0) == (1.0, False)


def test_pd_requires_feedback_enabled():
    cfg = ControllerConfig(feedback_enabled=False)
    with pytest.raises(ConfigurationError):
        pd_feedback(cfg, 0.1, 0.0)


# Family A's stabilize loop without observation delay: the belief's present
# estimate is the last reading, so each step's force follows from the
# reading before it.


def _stabilize_steps(controller, **env):
    """One family A trial without delay: each stabilize step's force with
    the (error, error_rate) reading it was computed from, and the record."""
    trace = Trace()
    config = FamilyAConfig(obs_delay=0, **env)
    record = run_family_a(config, controller, CostLedger(), 0, trace)
    lines = [json.loads(line) for line in trace.jsonl_lines()]
    readings = [tuple(line["observation"]["values"].values()) for line in lines]
    forces = [line["action"]["params"]["force"] for line in lines[1:]]
    return list(zip(readings, forces)), record


def test_stabilize_loop_issues_the_clamped_pd_force_of_the_last_reading():
    cfg = ControllerConfig(kp=2.0, kd=1.0, action_bound=0.05)
    steps, record = _stabilize_steps(cfg)
    clamped = 0
    for (e, r), force in steps:
        raw = -2.0 * e - 1.0 * r
        if abs(raw) > 0.05:
            clamped += 1
            assert force == math.copysign(0.05, raw)
        else:
            assert force == raw
        assert (force, abs(raw) > 0.05) == pd_feedback(cfg, e, r)
    assert 0 < clamped < len(steps)
    assert record.metrics["clamp_events"] == clamped


def test_open_loop_agent_issues_its_plan_then_nothing():
    # With feedback off the loop never applies the law: it issues the
    # open-loop schedule planned at landing, then zeros, whatever it reads.
    env = dict(launch_grid=2, horizon=40)
    steps, _ = _stabilize_steps(OPEN_LOOP, **env)
    config = FamilyAConfig(obs_delay=0, **env)
    e_pred = predicted_landing_error(config, config.z_prior_mean, 1.0)
    plan = open_loop_plan(config.dt, (e_pred, 0.0), (0.0, 0.0), config.pos_tol,
                          config.vel_tol, OPEN_LOOP.action_bound)
    assert plan
    assert [force for _, force in steps] == plan + [0.0] * (len(steps) - len(plan))
    assert any(force == 0.0 and reading != (0.0, 0.0) for reading, force in steps)


def test_gain_and_forgetting_validation():
    with pytest.raises(ConfigurationError):
        ControllerConfig(kp=-1.0)
    with pytest.raises(ConfigurationError):
        ControllerConfig(forgetting=0.5)
    with pytest.raises(ConfigurationError):
        ControllerConfig(action_bound=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("key", ["kp", "kd", "action_bound", "forgetting"])
def test_non_finite_gains_rejected_by_name(key, value):
    with pytest.raises(ConfigurationError, match=key):
        ControllerConfig(**{key: value})


# --- Predictive compensation ----------------------------------------------


def test_compensate_identity_at_zero_delay():
    dyn = double_integrator(0.05)
    pos, vel, cost = predictive_compensate(dyn, 0.3, -0.1, (), 0)
    assert (pos, vel) == (0.3, -0.1)
    assert cost == 0
    assert predictive_compensate(dyn, 0.3, -0.1, (5.0,), 0) == (0.3, -0.1, 0)


def test_compensate_matches_stepwise_simulation():
    dyn = double_integrator(0.05)
    actions = (1.0, -0.5, 0.25, 2.0, -1.0)
    e, v = 0.4, 0.2
    for a in actions:
        e, v = dyn(e, v, a)
    pos, vel, cost = predictive_compensate(dyn, 0.4, 0.2, actions, 5)
    assert pos == pytest.approx(e, abs=1e-9)
    assert vel == pytest.approx(v, abs=1e-9)
    assert cost == 5
    # Only the last `delay` actions are rolled through, of a tuple or of
    # the belief's bounded deque alike.
    assert predictive_compensate(dyn, 0.4, 0.2, (9.0,) + actions, 5) == (pos, vel, 5)
    log = deque((8.0, 9.0) + actions, maxlen=6)
    assert predictive_compensate(dyn, 0.4, 0.2, log, 5) == (pos, vel, 5)


def test_compensate_rejects_a_log_shorter_than_the_delay():
    dyn = double_integrator(0.05)
    with pytest.raises(InputError, match="delay of 3"):
        predictive_compensate(dyn, 0.4, 0.2, (1.0,), 3)


def test_compensate_bias_matches_analytic_propagation():
    # Dynamics with a hidden drift term: vel' = vel + (a + z) dt. A belief
    # mean off by dz produces, after d steps, a velocity bias of d*dz*dt and
    # a position bias of dz*dt^2*(0+1+...+(d-1)).
    dt, z_true, z_belief = 0.05, 0.3, 0.2
    dz = z_belief - z_true

    def true_dyn(p, v, a):
        return p + v * dt, v + (a + z_true) * dt

    def belief_dyn(p, v, a):
        return p + v * dt, v + (a + z_belief) * dt

    actions = (0.5, -0.25, 1.0, 0.0, 0.75)
    d = len(actions)
    e, v = 0.1, 0.0
    for a in actions:
        e, v = true_dyn(e, v, a)
    est_p, est_v, _ = predictive_compensate(belief_dyn, 0.1, 0.0, actions, d)
    assert est_v - v == pytest.approx(d * dz * dt, abs=1e-12)
    assert est_p - e == pytest.approx(dz * dt * dt * sum(range(d)), abs=1e-12)


# --- Open-loop planning ----------------------------------------------------


def test_open_loop_empty_at_target():
    assert open_loop_plan(0.05, (0.0, 0.0), (0.0, 0.0), 0.02, 0.1, 10.0) == []


def test_open_loop_deadbeat_reaches_target():
    # Oracle: simulate the schedule through the same discrete dynamics.
    dt = 0.05
    dyn = double_integrator(dt)
    schedule = open_loop_plan(dt, (0.4, -0.2), (0.0, 0.0), 0.001, 0.001, 1000.0)
    e, v = 0.4, -0.2
    for a in schedule:
        e, v = dyn(e, v, a)
    assert e == pytest.approx(0.0, abs=1e-9)
    assert v == pytest.approx(0.0, abs=1e-9)


def test_open_loop_respects_bound_with_longer_schedule():
    dt = 0.05
    dyn = double_integrator(dt)
    schedule = open_loop_plan(dt, (0.4, 0.0), (0.0, 0.0), 0.001, 0.001, 5.0)
    assert all(abs(a) <= 5.0 for a in schedule)
    assert len(schedule) > 2
    e, v = 0.4, 0.0
    for a in schedule:
        e, v = dyn(e, v, a)
    assert abs(e) < 0.02 and abs(v) < 0.05


# --- Recursive least squares -----------------------------------------------


def test_rls_zero_regressor_is_inert():
    est = RlsState(0.5, 1e6, 0.95)
    assert rls_update(est, 0.0, 123.0) == est


def test_rls_noiseless_three_updates_recover_coefficient():
    z = -1.7
    est = RlsState(0.0, 1e12, 1.0)
    for a in (0.5, -1.2, 2.0):
        est = rls_update(est, a, a * z)
    assert est.mean == pytest.approx(z, abs=1e-9)


def test_rls_variance_strictly_decreases_without_forgetting():
    est = RlsState(0.0, 10.0, 1.0)
    for a in (1.0, 0.3, -0.7, 2.0):
        new = rls_update(est, a, 0.1)
        assert new.variance < est.variance
        est = new


def test_rls_noisy_trajectory_inside_monte_carlo_envelope():
    # Oracle: 400 Monte Carlo replications of the same exact estimator give a
    # 3-sigma envelope for the error trajectory; a fresh run must stay in it.
    z, sigma, trials = 0.8, 0.05, 50
    oracle = Substream(999, "env")
    errs = np.zeros((400, trials))
    for rep in range(400):
        regs = oracle.uniform(0.5, 1.5, size=trials)
        noise = oracle.normal(0.0, sigma, size=trials)
        est = RlsState(0.0, 1e6, 1.0)
        for t in range(trials):
            est = rls_update(est, float(regs[t]), float(regs[t]) * z + float(noise[t]))
            errs[rep, t] = est.mean - z
    mean, sd = errs.mean(axis=0), errs.std(axis=0)

    fresh = Substream(123, "agent")
    regs = fresh.uniform(0.5, 1.5, size=trials)
    noise = fresh.normal(0.0, sigma, size=trials)
    est = RlsState(0.0, 1e6, 1.0)
    inside = 0
    for t in range(trials):
        est = rls_update(est, float(regs[t]), float(regs[t]) * z + float(noise[t]))
        if abs(est.mean - z - mean[t]) <= 3.0 * sd[t] + 1e-12:
            inside += 1
    assert inside == trials
