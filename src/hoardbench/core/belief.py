"""Belief state under observation delay and a hidden parameter.

The belief carries three things: a scalar posterior (mean and variance) over
the hidden compliance, a fixed-length queue of in-flight raw observations
modelling sensor delay, and a log of recently issued actions used to roll the
delayed observation of the error coordinate forward to the present
(Smith-predictor style).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..controller import (
    ControllerConfig, RlsState, StepDynamics, double_integrator, predictive_compensate, rls_update,
)
from ..trusted import trusted
from .state import Action, InputError, Observation

_OBSERVATION_KEYS = ("error", "error_rate")


@dataclass(frozen=True)
class BeliefConfig:
    """Delay, latent prior and plant model of a run's belief state.

    The controller's switches govern the update: with `compensator_enabled`
    the present estimate is the delayed one forward-simulated through the
    logged actions (cost: `delay` compute units per update), else it is the
    delayed estimate itself; `rls_enabled` gates the recursive least-squares
    posterior update, with the controller's `forgetting`, on informative
    observations.
    """

    controller: ControllerConfig = ControllerConfig()
    delay: int = 0
    latent_prior_mean: float = 0.0
    latent_prior_variance: float = 0.0
    dynamics: StepDynamics = field(default_factory=lambda: double_integrator(0.05))

    def __post_init__(self):
        if self.delay < 0:
            raise InputError("delay must be non-negative")
        if not 0.0 <= self.latent_prior_variance < float("inf"):
            raise InputError("latent prior variance must be finite and non-negative")


@trusted
@dataclass(frozen=True)
class Belief:
    """Agent-side posterior summary. Policies read this, never ground truth.

    `position` and `velocity` estimate the error coordinate now; the delayed
    pair is what the delayed observations give.
    """

    latent_mean: float
    latent_variance: float
    delayed_obs_buffer: tuple[Observation, ...]
    action_log: tuple[float, ...]
    position: float
    velocity: float
    delayed_position: float
    delayed_velocity: float
    last_compute: int = 0


def initial_belief(config: BeliefConfig, position: float, velocity: float) -> Belief:
    mean, variance = float(config.latent_prior_mean), float(config.latent_prior_variance)
    return Belief(mean, variance, (), (), position, velocity, position, velocity)


def update_belief(
    belief: Belief, observation: Observation, action: Action, config: BeliefConfig
) -> Belief:
    """Advance the belief by one step.

    The new raw observation enters the delay queue; once the queue holds more
    than `delay` entries the oldest one is delivered and becomes the delayed
    state estimate. The present-time estimate is that delayed state pushed
    through the logged actions. The latent posterior moves only when the
    observation carries evidence (an informative step). The observation is
    validated here; the new belief is built unchecked from it and from
    `belief`.
    """
    observation.validate(_OBSERVATION_KEYS)
    controller = config.controller
    delay = config.delay

    buffer = belief.delayed_obs_buffer + (observation,)
    force = float(action.params.get("force", 0.0))
    log = (belief.action_log + (force,))[-max(delay, 1):]
    mean = belief.latent_mean
    var = belief.latent_variance
    kappa = 0

    if len(buffer) > delay:
        delivered, buffer = buffer[0], buffer[1:]
        delayed_p = delivered.values["error"]
        delayed_v = delivered.values["error_rate"]
        p, v = delayed_p, delayed_v
        if controller.compensator_enabled:
            # A delivery means more than `delay` updates so far, one log
            # entry each, so the log covers the delay window.
            p, v, kappa = predictive_compensate(config.dynamics, p, v, log, delay)
        # Evidence rides the sensor stream: the posterior moves when an
        # informative observation is delivered, not when it is emitted.
        if controller.rls_enabled:
            for ev in delivered.latent_evidence:
                est = rls_update(
                    RlsState(mean, var, controller.forgetting), ev.regressor, ev.response
                )
                mean, var = est.mean, est.variance
    else:
        # Nothing delivered yet (early steps): dead-reckon the previous
        # delayed estimate through the action just issued.
        delayed_p, delayed_v = config.dynamics(
            belief.delayed_position, belief.delayed_velocity, force
        )
        p, v = delayed_p, delayed_v

    return Belief._trusted(mean, var, buffer, log, p, v, delayed_p, delayed_v, kappa)
