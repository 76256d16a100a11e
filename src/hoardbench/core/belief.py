"""Belief state under observation delay and a hidden parameter.

The belief carries three things: a scalar posterior (mean and variance) over
the hidden compliance; a queue modelling sensor delay, of one
`(error, error_rate, evidence)` float reading per update in flight, whose
`LatentEvidence` is empty but on informative steps (family A's landing);
and a log of recently issued forces used to roll the delayed reading
forward to the present (Smith-predictor style).

`update_belief` advances one belief in place, once per step: the queue and
the log are bounded deques, so a step appends and pops rather than building
a new state. It is the reference form of a step. Family A's stabilize loop
(`envs/family_a.py::run_family_a`) restates it for its stabilize steps, with
the estimates in locals, and calls it only for a trial's landing reading;
`tests/test_family_a.py::test_stabilize_forces_replay_through_update_belief`
replays the loop's traces through `update_belief` and pins the two together.
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

    Family A's stabilize loop restates this for its stabilize steps; the
    module docstring names the test that pins the two together.
    """
    if not (-inf < error < inf and -inf < error_rate < inf):
        raise reading_error(error, error_rate)
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
            belief.latent_mean, belief.latent_variance = absorb_evidence(
                belief.latent_mean, belief.latent_variance, delivered, controller.forgetting)
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


def reading_error(error: float, error_rate: float) -> InputError:
    """The InputError for a step's readings when one is not finite; it
    names `error` when that one is not."""
    name = "error_rate" if -inf < error < inf else "error"
    return InputError(f"observation value {name!r} is not finite")


def absorb_evidence(
    mean: float, variance: float, evidence: tuple[LatentEvidence, ...], forgetting: float,
) -> tuple[float, float]:
    """The latent posterior's mean and variance after one recursive
    least-squares step, with `forgetting`, per item of a delivered
    reading's `evidence`, in order."""
    for ev in evidence:
        est = rls_update(RlsState(mean, variance, forgetting), ev.regressor, ev.response)
        mean, variance = est.mean, est.variance
    return mean, variance
