"""Local control components: open-loop plans, PD feedback, delay compensation,
and recursive least-squares latent estimation.

Each component is independently switchable so ablation runs can remove exactly
one of them. All functions are pure; none draws randomness.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from itertools import islice
from typing import Callable

from .errors import ConfigurationError, InputError, check_number_fields

# Discrete step map for a 1-D plant: (pos, vel, accel) -> (pos', vel').
# Position integrates the old velocity, then velocity integrates the input.
StepDynamics = Callable[[float, float, float], tuple[float, float]]


def double_integrator(dt: float) -> StepDynamics:
    """Standard two-state chain: pos' = pos + vel*dt, vel' = vel + a*dt."""

    def step(pos: float, vel: float, accel: float) -> tuple[float, float]:
        return pos + vel * dt, vel + accel * dt

    return step


@dataclass(frozen=True)
class ControllerConfig:
    """Switchboard and gains for the local control stack.

    With `feedback_enabled` false the gains are inert: family A issues only
    the open-loop schedule planned at landing. Defaults sit inside the
    discrete-time stability region of the double integrator at dt = 0.05.
    """

    feedback_enabled: bool = True
    compensator_enabled: bool = True
    rls_enabled: bool = False
    kp: float = 3.0
    kd: float = 2.5
    action_bound: float = 10.0
    forgetting: float = 0.98

    def __post_init__(self):
        check_number_fields(self, (
            ("kp", 0.0, math.inf),
            ("kd", 0.0, math.inf),
            ("action_bound", 0.0, math.inf),
            ("forgetting", 0.9, 1.0),
        ))
        if self.action_bound == 0:
            raise ConfigurationError("action_bound must be positive")
        if self.forgetting == 0.9:
            raise ConfigurationError("forgetting must lie in (0.9, 1]")


def pd_feedback(config: ControllerConfig, error: float, error_rate: float) -> tuple[float, bool]:
    """Proportional-derivative correction, clamped to the actuation bound.

    Returns (force, clamped). Caller must only invoke this with feedback
    enabled; the off switch is owned by the agent loop so that disabling
    feedback removes the call entirely.
    """
    if not config.feedback_enabled:
        raise ConfigurationError("pd_feedback called with feedback disabled")
    raw = -config.kp * error - config.kd * error_rate
    bound = config.action_bound
    if -bound <= raw <= bound:
        return raw, False
    # Outside the bound, or NaN, which goes to `bound` and is not counted
    # as clamped.
    return max(-bound, min(bound, raw)), abs(raw) > bound


def predictive_compensate(
    dynamics: StepDynamics,
    delayed_pos: float,
    delayed_vel: float,
    logged_actions: Sequence[float],
    delay: int,
) -> tuple[float, float, int]:
    """Roll the delayed observation forward through the last `delay` logged
    actions, the ones issued since it was taken. The log is any sized
    iterable, oldest first: a tuple, or the belief's bounded deque.

    Returns (pos_now, vel_now, compute_cost); the cost is one unit per
    simulated step. A log shorter than the delay raises InputError.
    """
    older = len(logged_actions) - delay
    if older < 0:
        raise InputError(f"action log of {len(logged_actions)} cannot cover a delay of {delay}")
    pos, vel = delayed_pos, delayed_vel
    for a in islice(logged_actions, older, None):
        pos, vel = dynamics(pos, vel, a)
    return pos, vel, delay


def open_loop_plan(
    dynamics_dt: float,
    state: tuple[float, float],
    target: tuple[float, float],
    pos_tol: float,
    vel_tol: float,
    action_bound: float,
) -> list[float]:
    """Plan a fixed correction schedule from the believed state, once.

    Uses a two-step deadbeat solve on the double integrator: the first input
    zeroes the position error two steps out, the second zeroes the velocity.
    If the believed state is already inside tolerance the schedule is empty;
    an open-loop agent then never acts, which is what makes it fragile when
    the belief is wrong.
    """
    dt = dynamics_dt
    e = state[0] - target[0]
    v = state[1] - target[1]
    if abs(e) <= pos_tol and abs(v) <= vel_tol:
        return []
    # e2 = e + 2 v dt + a1 dt^2 = 0 ; v2 = v + (a1 + a2) dt = 0
    a1 = -(e + 2.0 * v * dt) / (dt * dt)
    a2 = -v / dt - a1
    schedule = [a1, a2]
    if all(abs(a) <= action_bound for a in schedule):
        return schedule
    # Spread the same net correction over n gentler steps until it fits.
    for n in range(3, 201):
        # Constant braking phase followed by a final velocity-zeroing input.
        a_const = -(e + n * v * dt) / (dt * dt * n * (n - 1) / 2.0 + dt * dt * (n - 1))
        tail = -(v + a_const * (n - 1) * dt) / dt
        cand = [a_const] * (n - 1) + [tail]
        if all(abs(a) <= action_bound for a in cand):
            return cand
    raise InputError("no feasible open-loop schedule within 200 steps")


@dataclass(frozen=True)
class RlsState:
    """Scalar recursive least-squares estimator with forgetting."""

    mean: float
    variance: float
    forgetting: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.forgetting <= 1.0):
            raise ConfigurationError("forgetting must lie in (0, 1]")
        if self.variance < 0 or not math.isfinite(self.variance):
            raise InputError("variance must be finite and non-negative")


def rls_update(estimator: RlsState, regressor: float, response: float) -> RlsState:
    """One recursive least-squares step on a scalar linear model y = a*z + noise.

    A zero regressor is uninformative and leaves the state untouched
    (including the variance, so an idle estimator does not inflate).
    """
    if not math.isfinite(regressor) or not math.isfinite(response):
        raise InputError("rls update requires finite regressor and response")
    a = regressor
    if a == 0.0:
        return estimator
    lam = estimator.forgetting
    p = estimator.variance
    denom = lam + a * p * a
    gain = p * a / denom
    mean = estimator.mean + gain * (response - a * estimator.mean)
    variance = (p - gain * a * p) / lam
    return replace(estimator, mean=mean, variance=variance)
