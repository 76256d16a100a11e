"""Belief state under observation delay and a hidden parameter.

The belief carries three things: a scalar posterior (mean and variance) over
the hidden compliance; a fixed-length queue modelling sensor delay, of one
`(error, error_rate, evidence)` float reading per update in flight, whose
`LatentEvidence` is empty but on informative steps (family A's landing);
and a log of recently issued forces used to roll the delayed reading
forward to the present (Smith-predictor style).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import NamedTuple

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


class Belief(NamedTuple):
    """Agent-side posterior summary. Policies read this, never ground truth.

    `position` and `velocity` estimate the error coordinate now; the delayed
    pair is what the delayed readings give. `delayed_obs_buffer` holds the
    in-flight `(error, error_rate, evidence)` readings, oldest first. A
    tuple, since it has nothing to check: `update_belief` builds one per
    step from values it checked or derived.
    """

    latent_mean: float
    latent_variance: float
    delayed_obs_buffer: tuple[tuple[float, float, tuple[LatentEvidence, ...]], ...]
    action_log: tuple[float, ...]
    position: float
    velocity: float
    delayed_position: float
    delayed_velocity: float
    last_compute: int = 0


# Builds a `Belief` from the tuple of its fields, without the generated
# `__new__`'s argument handling; `update_belief` calls it every step.
_new_belief = tuple.__new__


def initial_belief(config: BeliefConfig, position: float, velocity: float) -> Belief:
    mean, variance = float(config.latent_prior_mean), float(config.latent_prior_variance)
    return Belief(mean, variance, (), (), position, velocity, position, velocity)


def update_belief(
    belief: Belief, error: float, error_rate: float, force: float, config: BeliefConfig,
    evidence: tuple[LatentEvidence, ...] = (),
) -> Belief:
    """Advance the belief by one step of readings `error` and `error_rate`,
    taken after `force` was issued, and carrying `evidence`.

    The new reading enters the delay queue; once the queue holds more than
    `delay` entries the oldest one is delivered and becomes the delayed
    state estimate. The present-time estimate is that delayed state pushed
    through the logged forces. The latent posterior moves only when the
    delivered reading carries evidence (an informative step). A reading
    that is not finite raises InputError.
    """
    if not (-inf < error < inf and -inf < error_rate < inf):
        name = "error_rate" if -inf < error < inf else "error"
        raise InputError(f"observation value {name!r} is not finite")
    controller = config.controller
    delay = config.delay

    buffer = belief.delayed_obs_buffer + ((error, error_rate, evidence),)
    log = (belief.action_log + (force,))[-max(delay, 1):]
    mean = belief.latent_mean
    var = belief.latent_variance
    kappa = 0

    if len(buffer) > delay:
        (delayed_p, delayed_v, delivered), buffer = buffer[0], buffer[1:]
        p, v = delayed_p, delayed_v
        if controller.compensator_enabled:
            # A delivery means more than `delay` updates so far, one log
            # entry each, so the log covers the delay window.
            p, v, kappa = predictive_compensate(config.dynamics, p, v, log, delay)
        # Evidence rides the sensor stream: the posterior moves when an
        # informative reading is delivered, not when it is taken.
        if controller.rls_enabled:
            for ev in delivered:
                est = rls_update(
                    RlsState(mean, var, controller.forgetting), ev.regressor, ev.response
                )
                mean, var = est.mean, est.variance
    else:
        # Nothing delivered yet (early steps): dead-reckon the previous
        # delayed estimate through the force just issued.
        delayed_p, delayed_v = config.dynamics(
            belief.delayed_position, belief.delayed_velocity, force
        )
        p, v = delayed_p, delayed_v

    return _new_belief(Belief, (mean, var, buffer, log, p, v, delayed_p, delayed_v, kappa))
