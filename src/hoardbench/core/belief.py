"""Belief state under observation delay and a hidden parameter.

The belief carries three things: a scalar posterior (mean and variance) over
the hidden compliance; a queue modelling sensor delay, of one
`(error, error_rate, evidence)` float reading per update in flight, whose
`LatentEvidence` is empty but on informative steps (family A's landing);
and a log of recently issued forces used to roll the delayed reading
forward to the present (Smith-predictor style).

`update_belief` advances one belief in place, once per step: the queue and
the log are bounded deques, so a step appends and pops rather than building
a new state.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from math import inf

from ..controller import (
    ControllerConfig, RlsState, StepDynamics, double_integrator, predictive_compensate, rls_update,
)
from .state import InputError, LatentEvidence


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


@dataclass(slots=True)
class Belief:
    """Agent-side posterior summary. Policies read this, never ground truth.

    `position` and `velocity` estimate the error coordinate now; the delayed
    pair is what the delayed readings give. `delayed_obs_buffer` holds the
    in-flight `(error, error_rate, evidence)` readings, oldest first, at
    most `delay` of them between updates; `action_log` the last
    `max(delay, 1)` forces. `update_belief` changes the state in place:
    a caller that needs an earlier step's values copies them out.
    """

    latent_mean: float
    latent_variance: float
    delayed_obs_buffer: deque[tuple[float, float, tuple[LatentEvidence, ...]]]
    action_log: deque[float]
    position: float
    velocity: float
    delayed_position: float
    delayed_velocity: float
    last_compute: int = 0


def initial_belief(config: BeliefConfig, position: float, velocity: float) -> Belief:
    mean, variance = float(config.latent_prior_mean), float(config.latent_prior_variance)
    return Belief(mean, variance, deque(), deque(maxlen=max(config.delay, 1)),
                  position, velocity, position, velocity)


def update_belief(
    belief: Belief, error: float, error_rate: float, force: float, config: BeliefConfig,
    evidence: tuple[LatentEvidence, ...] = (),
) -> Belief:
    """Advance `belief` in place by one step of readings `error` and
    `error_rate`, taken after `force` was issued, and carrying `evidence`;
    return it.

    The new reading enters the delay queue; once the queue holds more than
    `delay` entries the oldest one is delivered and becomes the delayed
    state estimate. The present-time estimate is that delayed state pushed
    through the logged forces. The latent posterior moves only when the
    delivered reading carries evidence (an informative step). A reading
    that is not finite raises InputError before the belief changes.
    """
    if not (-inf < error < inf and -inf < error_rate < inf):
        name = "error_rate" if -inf < error < inf else "error"
        raise InputError(f"observation value {name!r} is not finite")
    buffer = belief.delayed_obs_buffer
    buffer.append((error, error_rate, evidence))
    log = belief.action_log
    log.append(force)
    delay = config.delay

    if len(buffer) > delay:
        p, v, delivered = buffer.popleft()
        belief.delayed_position = p
        belief.delayed_velocity = v
        controller = config.controller
        if controller.compensator_enabled:
            # A delivery means more than `delay` updates so far, one log
            # entry each, so the log covers the delay window.
            p, v, belief.last_compute = predictive_compensate(config.dynamics, p, v, log, delay)
        else:
            belief.last_compute = 0
        # Evidence rides the sensor stream: the posterior moves when an
        # informative reading is delivered, not when it is taken.
        if delivered and controller.rls_enabled:
            mean, var = belief.latent_mean, belief.latent_variance
            for ev in delivered:
                est = rls_update(
                    RlsState(mean, var, controller.forgetting), ev.regressor, ev.response
                )
                mean, var = est.mean, est.variance
            belief.latent_mean = mean
            belief.latent_variance = var
    else:
        # Nothing delivered yet (early steps): dead-reckon the previous
        # delayed estimate through the force just issued.
        p, v = config.dynamics(belief.delayed_position, belief.delayed_velocity, force)
        belief.delayed_position = p
        belief.delayed_velocity = v
        belief.last_compute = 0

    belief.position = p
    belief.velocity = v
    return belief
