"""Belief state under observation delay and hidden parameters.

The belief carries three things: a parametric posterior (mean/variance per
latent scalar), a fixed-length queue of in-flight raw observations modelling
sensor delay, and a log of recently issued actions used to roll the delayed
observation forward to the present (Smith-predictor style).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..controller import StepDynamics, double_integrator, predictive_compensate, rls_update, RlsState
from .state import Action, EmbodiedState, InputError, Observation, SchemaError


@dataclass(frozen=True)
class BeliefConfig:
    """Layout and update policy for a run's belief state.

    `compensate` selects whether the reconstructed embodied state is the
    forward-simulated present estimate (cost: `delay` compute units per
    update) or the raw delayed estimate. `adapt_latents` gates the recursive
    least-squares posterior update on informative observations.
    """

    observation_keys: tuple[str, ...]
    embodied_keys: tuple[str, str] = ("error", "error_rate")
    delay: int = 0
    compensate: bool = True
    adapt_latents: bool = True
    latent_names: tuple[str, ...] = ()
    latent_prior_mean: tuple[float, ...] = ()
    latent_prior_variance: tuple[float, ...] = ()
    rls_forgetting: float = 0.98
    dynamics: StepDynamics = field(default_factory=lambda: double_integrator(0.05))

    def __post_init__(self):
        if self.delay < 0:
            raise InputError("delay must be non-negative")
        n = len(self.latent_names)
        if len(self.latent_prior_mean) != n or len(self.latent_prior_variance) != n:
            raise InputError("latent prior layout does not match latent names")


@dataclass(frozen=True)
class Belief:
    """Agent-side posterior summary. Policies read this, never ground truth."""

    latent_mean: np.ndarray
    latent_variance: np.ndarray
    delayed_obs_buffer: tuple[Observation, ...]
    action_log: tuple[float, ...]
    reconstructed_embodied: EmbodiedState
    delayed_embodied: EmbodiedState
    step: int
    last_compute: int = 0
    flagged: bool = False

    def latent(self, config: BeliefConfig, name: str) -> tuple[float, float]:
        i = config.latent_names.index(name)
        return float(self.latent_mean[i]), float(self.latent_variance[i])


def initial_belief(config: BeliefConfig, start: EmbodiedState) -> Belief:
    variance = np.asarray(config.latent_prior_variance, dtype=float)
    if np.any(variance < 0) or not np.all(np.isfinite(variance)):
        raise InputError("latent prior variance must be finite and non-negative")
    return Belief(
        latent_mean=np.asarray(config.latent_prior_mean, dtype=float),
        latent_variance=variance,
        delayed_obs_buffer=(),
        action_log=(),
        reconstructed_embodied=start,
        delayed_embodied=start,
        step=0,
    )


def _embodied_from_obs(
    config: BeliefConfig, obs: Observation, fallback: EmbodiedState
) -> EmbodiedState:
    pos_key, vel_key = config.embodied_keys
    if pos_key not in obs.values or vel_key not in obs.values:
        # Non-kinematic environments: keep the previous estimate.
        return fallback
    return EmbodiedState((obs.values[pos_key],), (obs.values[vel_key],))


def update_belief(
    belief: Belief, observation: Observation, action: Action, config: BeliefConfig
) -> Belief:
    """Advance the belief by one step.

    The new raw observation enters the delay queue; once the queue holds more
    than `delay` entries the oldest one is delivered and becomes the delayed
    state estimate. The present-time estimate is that delayed state pushed
    through the logged actions. The latent posterior moves only when the
    observation carries evidence (an informative step).
    """
    observation.validate(config.observation_keys)

    buffer = belief.delayed_obs_buffer + (observation,)
    delivered: Observation | None = None
    if len(buffer) > config.delay:
        delivered, buffer = buffer[0], buffer[1:]

    force = float(action.params.get("force", 0.0))
    log = (belief.action_log + (force,))[-max(config.delay, 1):]

    if delivered is not None:
        delayed_embodied = _embodied_from_obs(config, delivered, belief.delayed_embodied)
    else:
        # Nothing delivered yet (early steps): dead-reckon the previous
        # delayed estimate through the action just issued.
        p, v = belief.delayed_embodied.scalar()
        p, v = config.dynamics(p, v, force)
        delayed_embodied = EmbodiedState((p,), (v,))

    kappa = 0
    flagged = False
    reconstructed = delayed_embodied
    if config.compensate and delivered is not None:
        p0, v0 = delayed_embodied.scalar()
        p, v, kappa, flagged = predictive_compensate(
            config.dynamics, p0, v0, log, config.delay
        )
        reconstructed = EmbodiedState((p,), (v,))

    # Evidence rides the sensor stream: the posterior moves when an
    # informative observation is delivered, not when it is emitted.
    mean = belief.latent_mean
    var = belief.latent_variance
    if config.adapt_latents and delivered is not None and delivered.latent_evidence:
        mean = mean.copy()
        var = var.copy()
        for ev in delivered.latent_evidence:
            if ev.name not in config.latent_names:
                raise SchemaError(f"evidence for undeclared latent {ev.name!r}")
            i = config.latent_names.index(ev.name)
            est = rls_update(
                RlsState(float(mean[i]), float(var[i]), config.rls_forgetting),
                ev.regressor,
                ev.response,
            )
            mean[i] = est.mean
            var[i] = est.variance

    return Belief(
        latent_mean=mean,
        latent_variance=var,
        delayed_obs_buffer=buffer,
        action_log=log,
        reconstructed_embodied=reconstructed,
        delayed_embodied=delayed_embodied,
        step=belief.step + 1,
        last_compute=kappa,
        flagged=flagged,
    )
