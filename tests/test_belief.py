import math
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoardbench.controller import (
    ControllerConfig, RlsState, double_integrator, predictive_compensate, rls_update,
)
from hoardbench.core import belief as belief_module
from hoardbench.core.belief import BeliefConfig, initial_belief, update_belief
from hoardbench.core.state import InputError, LatentEvidence
from hoardbench.rng import Substream


def _config(delay, **switches):
    """Compensator and RLS on unless `switches` says otherwise."""
    controller = ControllerConfig(**{"rls_enabled": True, **switches})
    return BeliefConfig(controller, delay, 0.5, 1e12, double_integrator(0.05))


def test_buffer_law_length_is_min_t_d():
    cfg = _config(delay=3)
    belief = initial_belief(cfg, 0.0, 0.0)
    for t in range(1, 10):
        belief = update_belief(belief, float(t), 0.0, 0.0, cfg)
        assert len(belief.delayed_obs_buffer) == min(t, 3)


def test_queue_semantics_oldest_delivered():
    # Buffer [o1, o2], new o3 arrives with delay 2: o1 is delivered and the
    # buffer advances to [o2, o3].
    cfg = _config(delay=2)
    belief = initial_belief(cfg, 0.0, 0.0)
    o1, o2, o3 = (1.0, 0.0, ()), (2.0, 0.0, ()), (3.0, 0.0, ())
    belief = update_belief(belief, 1.0, 0.0, 0.0, cfg)
    belief = update_belief(belief, 2.0, 0.0, 0.0, cfg)
    assert tuple(belief.delayed_obs_buffer) == (o1, o2)
    belief = update_belief(belief, 3.0, 0.0, 0.0, cfg)
    assert tuple(belief.delayed_obs_buffer) == (o2, o3)
    # Delivered o1 plus forward simulation of logged (zero) actions.
    assert belief.delayed_position == 1.0
    assert belief.position == 1.0


def test_zero_delay_zero_noise_reconstruction_exact():
    cfg = _config(delay=0)
    dyn = double_integrator(0.05)
    belief = initial_belief(cfg, 0.3, 0.0)
    e, v = 0.3, 0.0
    for step in range(40):
        force = -1.2 * e - 0.8 * v
        e, v = dyn(e, v, force)
        belief = update_belief(belief, e, v, force, cfg)
        assert belief.position == e
        assert belief.velocity == v


def test_delayed_reconstruction_matches_truth_with_compensation():
    # With known dynamics and no noise, the compensated estimate equals the
    # true present state to 1e-9 despite the delay.
    cfg = _config(delay=4)
    dyn = double_integrator(0.05)
    belief = initial_belief(cfg, 0.5, 0.0)
    e, v = 0.5, 0.0
    for step in range(30):
        force = -2.0 * e - 1.0 * v
        e, v = dyn(e, v, force)
        belief = update_belief(belief, e, v, force, cfg)
        if step >= 4:
            assert belief.position == pytest.approx(e, abs=1e-9)
            assert belief.velocity == pytest.approx(v, abs=1e-9)


def test_one_noiseless_informative_observation_recovers_latent():
    # Oracle: weighted least squares with the prior as a pseudo-observation
    # of weight lambda/P0, solved in closed form.
    z_true = 0.73
    regressor = -0.38 * 0.72 * 0.72
    response = regressor * z_true
    prior_mean, prior_var, lam = 0.5, 1e12, 0.98
    oracle = (lam * prior_mean / prior_var + regressor * response) / (
        lam / prior_var + regressor * regressor
    )

    cfg = _config(delay=0)
    belief = initial_belief(cfg, 0.0, 0.0)
    evidence = (LatentEvidence("compliance", regressor, response),)
    belief = update_belief(belief, 0.0, 0.0, 0.0, cfg, evidence)
    assert belief.latent_mean == pytest.approx(oracle, abs=1e-12)
    assert belief.latent_mean == pytest.approx(z_true, abs=1e-9)
    assert belief.latent_variance < 1e12  # strictly tightened by the update


def test_latent_updates_only_on_informative_steps():
    cfg = _config(delay=0)
    belief = initial_belief(cfg, 0.0, 0.0)
    belief = update_belief(belief, 0.2, 0.1, 0.0, cfg)
    assert belief.latent_mean == 0.5
    assert belief.latent_variance == 1e12


def test_adapt_latents_off_ignores_evidence():
    cfg = _config(delay=0, rls_enabled=False)
    belief = initial_belief(cfg, 0.0, 0.0)
    evidence = (LatentEvidence("compliance", 1.0, 0.9),)
    belief = update_belief(belief, 0.0, 0.0, 0.0, cfg, evidence)
    assert belief.latent_mean == 0.5


def test_schema_and_finite_errors():
    # The readings are two positional floats, so no key set can be wrong:
    # a missing one is a TypeError, a non-finite one an InputError naming it.
    cfg = _config(delay=0)
    belief = initial_belief(cfg, 0.0, 0.0)
    with pytest.raises(TypeError):
        update_belief(belief, 0.0, 0.0, cfg)
    with pytest.raises(InputError, match="'error' is not finite"):
        update_belief(belief, float("inf"), 0.0, 0.0, cfg)
    with pytest.raises(InputError, match="'error_rate' is not finite"):
        update_belief(belief, 0.0, float("nan"), 0.0, cfg)


def test_compensation_cost_reported():
    cfg = _config(delay=3)
    belief = initial_belief(cfg, 0.0, 0.0)
    for t in range(6):
        belief = update_belief(belief, 0.0, 0.0, 0.0, cfg)
    assert belief.last_compute == 3
    cfg_off = _config(delay=3, compensator_enabled=False)
    belief = initial_belief(cfg_off, 0.0, 0.0)
    for t in range(6):
        belief = update_belief(belief, 0.0, 0.0, 0.0, cfg_off)
    assert belief.last_compute == 0


@pytest.mark.parametrize("delay", range(9))
def test_compensation_runs_once_an_observation_is_delivered(delay, monkeypatch):
    # The observation of update t is delivered at update t + delay, and the
    # action log gains one entry per update, so by the first delivery the
    # log covers the delay window and compensation never meets a short log.
    logs = []

    def recording(dynamics, pos, vel, log, d):
        logs.append(len(log))
        return predictive_compensate(dynamics, pos, vel, log, d)

    monkeypatch.setattr(belief_module, "predictive_compensate", recording)
    cfg = _config(delay=delay)
    stream = Substream(delay, "agent")
    belief = initial_belief(cfg, 0.1, 0.0)
    for t in range(1, 3 * (delay + 1) + 1):
        e, v, force = (float(x) for x in stream.normal(0.0, 1.0, size=3))
        belief = update_belief(belief, e, v, force, cfg)
        delivered = t > delay
        assert len(logs) == max(0, t - delay)
        assert belief.last_compute == (delay if delivered else 0)
        if delivered:
            assert logs[-1] >= delay
        else:
            assert (belief.position, belief.velocity) == (
                belief.delayed_position, belief.delayed_velocity
            )


@pytest.mark.parametrize("delay", range(9))
@pytest.mark.parametrize("compensate", [False, True])
def test_present_estimate_is_the_delayed_one_unless_compensated(delay, compensate):
    # The controller reads the present estimate whatever its switches: with
    # the compensator off that estimate must be the delayed one, at no cost.
    cfg = _config(delay=delay, compensator_enabled=compensate)
    stream = Substream(delay, "agent")
    belief = initial_belief(cfg, 0.1, 0.0)
    for t in range(1, 3 * (delay + 1) + 1):
        e, v, force = (float(x) for x in stream.normal(0.0, 1.0, size=3))
        belief = update_belief(belief, e, v, force, cfg)
        present = (belief.position, belief.velocity)
        delayed = (belief.delayed_position, belief.delayed_velocity)
        if compensate and delay > 0 and t > delay:
            # Delivered, and rolled forward through `delay` non-zero forces.
            assert present != delayed
        else:
            assert present == delayed
            assert belief.last_compute == 0


def test_an_int_prior_mean_becomes_a_float():
    belief = initial_belief(BeliefConfig(latent_prior_mean=1, latent_prior_variance=2), 0.0, 0.0)
    assert type(belief.latent_mean) is float and belief.latent_mean == 1.0
    assert type(belief.latent_variance) is float and belief.latent_variance == 2.0


_READING = st.floats(-1e6, 1e6, allow_nan=False)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    delay=st.integers(0, 8),
    before=st.lists(st.tuples(_READING, _READING, _READING), max_size=12),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    slot=st.sampled_from(["error", "error_rate"]),
)
def test_a_non_finite_reading_is_refused_at_any_point_of_the_queue(delay, before, bad, slot):
    cfg = _config(delay=delay)
    belief = initial_belief(cfg, 0.1, 0.0)
    for e, v, force in before:
        belief = update_belief(belief, e, v, force, cfg)
    e, v = (bad, 0.0) if slot == "error" else (0.0, bad)
    before_refusal = _fields(belief)
    with pytest.raises(InputError, match=f"{slot!r} is not finite"):
        update_belief(belief, e, v, 0.0, cfg)
    assert _fields(belief) == before_refusal


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    delay=st.integers(0, 8),
    landing=st.integers(0, 6),
    after=st.integers(1, 6),
    regressor=st.floats(0.01, 10.0) | st.floats(-10.0, -0.01),
    response=st.floats(-10.0, 10.0),
    rls=st.booleans(),
)
def test_landing_evidence_moves_the_posterior_exactly_delay_updates_later(
    delay, landing, after, regressor, response, rls
):
    # Update `landing` carries the evidence; the reading it rides on is
    # delivered `delay` updates later, and only then may RLS move the
    # posterior. Against a prior variance of 1e12, a regressor of at least
    # 0.01 always moves the variance.
    cfg = _config(delay=delay, rls_enabled=rls)
    evidence = (LatentEvidence("compliance", regressor, response),)
    belief = initial_belief(cfg, 0.0, 0.0)
    posteriors = [(belief.latent_mean, belief.latent_variance)]
    for t in range(landing + delay + after):
        belief = update_belief(belief, 0.01 * t, 0.0, 0.0, cfg, evidence if t == landing else ())
        posteriors.append((belief.latent_mean, belief.latent_variance))
    moved = [t for t in range(len(posteriors) - 1) if posteriors[t + 1] != posteriors[t]]
    assert moved == ([landing + delay] if rls else [])


# ---------------------------------------------------------------------------
# Oracle: the immutable belief, rebuilt from tuples at every update
# ---------------------------------------------------------------------------


class ReferenceBelief(NamedTuple):
    latent_mean: float
    latent_variance: float
    delayed_obs_buffer: tuple
    action_log: tuple
    position: float
    velocity: float
    delayed_position: float
    delayed_velocity: float
    last_compute: int = 0


def reference_initial_belief(config, position, velocity):
    mean, variance = float(config.latent_prior_mean), float(config.latent_prior_variance)
    return ReferenceBelief(mean, variance, (), (), position, velocity, position, velocity)


def reference_update_belief(belief, error, error_rate, force, config, evidence=()):
    """The update as one new tuple per step: the queue and the log grow by
    concatenation and shrink by slicing."""
    if not (math.isfinite(error) and math.isfinite(error_rate)):
        name = "error_rate" if math.isfinite(error) else "error"
        raise InputError(f"observation value {name!r} is not finite")
    controller = config.controller
    delay = config.delay
    buffer = belief.delayed_obs_buffer + ((error, error_rate, evidence),)
    log = (belief.action_log + (force,))[-max(delay, 1):]
    mean, var, kappa = belief.latent_mean, belief.latent_variance, 0
    if len(buffer) > delay:
        (delayed_p, delayed_v, delivered), buffer = buffer[0], buffer[1:]
        p, v = delayed_p, delayed_v
        if controller.compensator_enabled:
            p, v, kappa = predictive_compensate(config.dynamics, p, v, log, delay)
        if controller.rls_enabled:
            for ev in delivered:
                est = rls_update(
                    RlsState(mean, var, controller.forgetting), ev.regressor, ev.response
                )
                mean, var = est.mean, est.variance
    else:
        delayed_p, delayed_v = config.dynamics(
            belief.delayed_position, belief.delayed_velocity, force
        )
        p, v = delayed_p, delayed_v
    return ReferenceBelief(mean, var, buffer, log, p, v, delayed_p, delayed_v, kappa)


def _fields(belief):
    return (
        belief.position, belief.velocity, belief.delayed_position, belief.delayed_velocity,
        belief.latent_mean, belief.latent_variance, belief.last_compute,
        tuple(belief.delayed_obs_buffer), tuple(belief.action_log),
    )


_EVIDENCE = st.none() | st.builds(
    lambda regressor, response: (LatentEvidence("compliance", regressor, response),),
    st.floats(-10.0, 10.0), st.floats(-10.0, 10.0),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    delay=st.integers(0, 8),
    compensate=st.booleans(),
    rls=st.booleans(),
    start=st.tuples(_READING, _READING),
    steps=st.lists(st.tuples(_READING, _READING, _READING, _EVIDENCE), max_size=30),
)
def test_in_place_update_matches_the_tuple_oracle_after_every_step(
    delay, compensate, rls, start, steps
):
    cfg = _config(delay=delay, compensator_enabled=compensate, rls_enabled=rls)
    belief = initial_belief(cfg, *start)
    reference = reference_initial_belief(cfg, *start)
    assert _fields(belief) == _fields(reference)
    for e, v, force, evidence in steps:
        evidence = evidence or ()
        assert update_belief(belief, e, v, force, cfg, evidence) is belief
        reference = reference_update_belief(reference, e, v, force, cfg, evidence)
        assert _fields(belief) == _fields(reference)
