import pytest

from hoardbench.controller import ControllerConfig, double_integrator, predictive_compensate
from hoardbench.core import belief as belief_module
from hoardbench.core.belief import BeliefConfig, initial_belief, update_belief
from hoardbench.core.state import (
    Action,
    InputError,
    LatentEvidence,
    NOOP,
    Observation,
    SchemaError,
)
from hoardbench.rng import Substream


def _config(delay, **switches):
    """Compensator and RLS on unless `switches` says otherwise."""
    controller = ControllerConfig(**{"rls_enabled": True, **switches})
    return BeliefConfig(controller, delay, 0.5, 1e12, double_integrator(0.05))


def _obs(e, v, evidence=()):
    return Observation({"error": e, "error_rate": v}, latent_evidence=evidence)


def test_buffer_law_length_is_min_t_d():
    cfg = _config(delay=3)
    belief = initial_belief(cfg, 0.0, 0.0)
    for t in range(1, 10):
        belief = update_belief(belief, _obs(float(t), 0.0), NOOP, cfg)
        assert len(belief.delayed_obs_buffer) == min(t, 3)


def test_queue_semantics_oldest_delivered():
    # Buffer [o1, o2], new o3 arrives with delay 2: o1 is delivered and the
    # buffer advances to [o2, o3].
    cfg = _config(delay=2)
    belief = initial_belief(cfg, 0.0, 0.0)
    o1, o2, o3 = _obs(1.0, 0.0), _obs(2.0, 0.0), _obs(3.0, 0.0)
    belief = update_belief(belief, o1, NOOP, cfg)
    belief = update_belief(belief, o2, NOOP, cfg)
    assert belief.delayed_obs_buffer == (o1, o2)
    belief = update_belief(belief, o3, NOOP, cfg)
    assert belief.delayed_obs_buffer == (o2, o3)
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
        belief = update_belief(
            belief, _obs(e, v), Action("force", {"force": force}), cfg
        )
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
        belief = update_belief(
            belief, _obs(e, v), Action("force", {"force": force}), cfg
        )
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
    belief = update_belief(belief, _obs(0.0, 0.0, evidence), NOOP, cfg)
    assert belief.latent_mean == pytest.approx(oracle, abs=1e-12)
    assert belief.latent_mean == pytest.approx(z_true, abs=1e-9)
    assert belief.latent_variance < 1e12  # strictly tightened by the update


def test_latent_updates_only_on_informative_steps():
    cfg = _config(delay=0)
    belief = initial_belief(cfg, 0.0, 0.0)
    belief = update_belief(belief, _obs(0.2, 0.1), NOOP, cfg)
    assert belief.latent_mean == 0.5
    assert belief.latent_variance == 1e12


def test_adapt_latents_off_ignores_evidence():
    cfg = _config(delay=0, rls_enabled=False)
    belief = initial_belief(cfg, 0.0, 0.0)
    evidence = (LatentEvidence("compliance", 1.0, 0.9),)
    belief = update_belief(belief, _obs(0.0, 0.0, evidence), NOOP, cfg)
    assert belief.latent_mean == 0.5


def test_schema_and_finite_errors():
    cfg = _config(delay=0)
    belief = initial_belief(cfg, 0.0, 0.0)
    with pytest.raises(SchemaError):
        update_belief(belief, Observation({"error": 0.0}), NOOP, cfg)
    with pytest.raises(InputError):
        update_belief(
            belief,
            Observation({"error": float("inf"), "error_rate": 0.0}),
            NOOP,
            cfg,
        )


def test_compensation_cost_reported():
    cfg = _config(delay=3)
    belief = initial_belief(cfg, 0.0, 0.0)
    for t in range(6):
        belief = update_belief(belief, _obs(0.0, 0.0), NOOP, cfg)
    assert belief.last_compute == 3
    cfg_off = _config(delay=3, compensator_enabled=False)
    belief = initial_belief(cfg_off, 0.0, 0.0)
    for t in range(6):
        belief = update_belief(belief, _obs(0.0, 0.0), NOOP, cfg_off)
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
        belief = update_belief(belief, _obs(e, v), Action("force", {"force": force}), cfg)
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
        belief = update_belief(belief, _obs(e, v), Action("force", {"force": force}), cfg)
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
