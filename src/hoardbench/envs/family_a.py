"""Family A: hidden-dynamics control.

Per trial the environment draws a hidden compliance scalar z. The agent picks
a launch offset l in [0, 1] and a fixed impulse u; the support absorbs energy
quadratically in the offset, so realized takeoff speed is u * (1 - z * l**2)
and the landing error is the jump length minus the remaining gap
gap_scale * (1 - l). After landing, a double integrator governs the error
coordinate under delayed, noisy observation:

    e' = e + edot * dt
    edot' = edot + (a + w) * dt

with w a one-shot velocity perturbation when configured. Success means both
error tolerances held for `hold_steps` consecutive steps. Trials always run
the full horizon so that toggling controller components never changes the
environment stream's draw count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..controller import ControllerConfig, double_integrator, open_loop_plan
from ..core.belief import Belief, BeliefConfig, initial_belief, update_belief
from ..core.policy import (
    OptionPolicy,
    PolicyContext,
    PrimitivePolicy,
    StabilizingController,
    act,
    check_policy,
    select_option,
)
from ..core.state import (
    Action,
    ConfigurationError,
    LatentEvidence,
    Observation,
    OptionChoice,
    OptionKind,
    Trace,
)
from ..errors import check_int_fields, check_noise_rates, check_number_fields
from ..ledger import CostLedger, accrue
from ..rng import RunStreams
from ..verifier import SignalSink
from .records import Family, RunRecord, STATUS_COMPLETED, finish_record

INTERVENTION_EPS = 1e-12

OPTION_SCHEMA = {
    OptionKind.LAUNCH: ("offset", "impulse"),
    OptionKind.STABILIZE: (),
}

# A stabilize step's trace shape: its floats are the observed error and
# error rate, then the force.
_STABILIZE_RECORD = (
    ("error", "error_rate"), False, "force", ("force",), OptionKind.STABILIZE, (), False)

@dataclass(frozen=True)
class FamilyAConfig:
    gap_scale: float = 1.0
    z_range: tuple[float, float] = (0.2, 0.8)
    obs_delay: int = 2
    obs_noise: float = 0.02
    perturb_step: int | None = None
    perturb_magnitude: float = 0.0
    trials: int = 1
    pos_tol: float = 0.02
    vel_tol: float = 0.1
    horizon: int = 240
    dt: float = 0.05
    impulse: float = 0.38
    hold_steps: int = 5
    launch_grid: int = 101
    z_drift: float = 0.0
    z_prior_mean: float = 0.5
    z_prior_variance: float = 1e12
    verifier_fp: float = 0.0
    verifier_fn: float = 0.0

    def __post_init__(self):
        check_int_fields(self, (
            ("trials", 1, math.inf),
            ("horizon", 1, math.inf),
            ("obs_delay", 0, math.inf),
            ("launch_grid", 2, math.inf),
        ))
        # Both count steps of a trial: past the horizon a trial can never
        # succeed, or is never perturbed.
        check_int_fields(self, (("hold_steps", 1, self.horizon),))
        if self.perturb_step is not None:
            check_int_fields(self, (("perturb_step", 1, self.horizon),))
        check_number_fields(self, (
            ("gap_scale", 0.0, math.inf),
            ("obs_noise", 0.0, math.inf),
            ("perturb_magnitude", -math.inf, math.inf),
            ("pos_tol", 0.0, math.inf),
            ("vel_tol", 0.0, math.inf),
            ("dt", 0.0, math.inf),
            ("impulse", 0.0, math.inf),
            ("z_drift", 0.0, math.inf),
            ("z_prior_mean", -math.inf, math.inf),
            ("z_prior_variance", 0.0, math.inf),
        ))
        check_noise_rates("verifier_fp", self.verifier_fp, "verifier_fn", self.verifier_fn)
        for name in ("gap_scale", "pos_tol", "vel_tol", "dt"):
            if getattr(self, name) == 0:
                raise ConfigurationError(f"{name} must be positive")
        z_range = self.z_range
        if (
            not isinstance(z_range, tuple)
            or len(z_range) != 2
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in z_range)
            or not 0.0 <= z_range[0] <= z_range[1] <= 1.0
        ):
            raise ConfigurationError(
                f"z_range must be a subinterval (low, high) of [0, 1], got {z_range!r}"
            )


def predicted_landing_error(config: FamilyAConfig, z_hat: float, offset: float) -> float:
    """Landing error the belief-mean dynamics predict for a launch offset."""
    speed = config.impulse * (1.0 - z_hat * offset * offset)
    return speed - config.gap_scale * (1.0 - offset)


class LaunchPlanner:
    """Scan a fixed offset grid and launch where predicted error is smallest."""

    def __init__(self, config: FamilyAConfig):
        self._config = config

    def select(self, belief: Belief, ctx: PolicyContext) -> OptionChoice:
        cfg = self._config
        z_hat = belief.latent_mean
        best_offset, best_err = 0.0, float("inf")
        for i in range(cfg.launch_grid):
            offset = i / (cfg.launch_grid - 1)
            err = abs(predicted_landing_error(cfg, z_hat, offset))
            if err < best_err:
                best_offset, best_err = offset, err
        return OptionChoice(
            OptionKind.LAUNCH, {"offset": best_offset, "impulse": cfg.impulse}
        )


def run_family_a(
    env: FamilyAConfig,
    agent: ControllerConfig,
    ledger: CostLedger,
    seed: int,
    trace: Trace | None = None,
) -> RunRecord:
    streams = RunStreams(seed)
    belief_cfg = BeliefConfig(
        controller=agent,
        delay=env.obs_delay,
        latent_prior_mean=env.z_prior_mean,
        latent_prior_variance=env.z_prior_variance,
        dynamics=double_integrator(env.dt),
    )
    # Checks the goal: the trial reached and held the tolerance window.
    sink = SignalSink(streams.verifier, env.verifier_fp, env.verifier_fn)
    planner = check_policy(LaunchPlanner(env), OptionPolicy)
    ctx = PolicyContext(
        rng=streams.agent,
        controller=agent,
        option_schema=OPTION_SCHEMA,
    )

    belief = initial_belief(belief_cfg, 0.0, 0.0)
    record = RunRecord(family="A", variant="", seed=seed, status=STATUS_COMPLETED)

    successes = 0
    stab_times: list[float] = []
    interventions = 0
    clamp_events = 0
    scan_kappa = 0.0
    comp_kappa = 0.0
    global_step = 0

    for trial in range(env.trials):
        if env.z_drift > 0.0 and trial > 0:
            z = min(env.z_range[1], max(env.z_range[0], z + env.z_drift * float(streams.env.normal())))
        else:
            z = float(streams.env.uniform(env.z_range[0], env.z_range[1]))

        # Launch: one macro-decision, scanning the whole offset grid, then
        # physics fixes the landing error.
        launch = select_option(planner, belief, ctx)
        scan_kappa += env.launch_grid
        offset = launch.params["offset"]
        impulse = launch.params["impulse"]
        speed = impulse * (1.0 - z * offset * offset)
        e = speed - env.gap_scale * (1.0 - offset)
        edot = 0.0

        trial_start = global_step
        e_pred = predicted_landing_error(env, belief.latent_mean, offset)
        belief = initial_belief(belief_cfg, e_pred, 0.0)

        # Landing measurement: noisy and, being a contact event, informative
        # about the hidden compliance.
        noise = streams.env.normal(0.0, 1.0, size=2)
        e_obs = e + env.obs_noise * float(noise[0])
        r_obs = edot + env.obs_noise * float(noise[1])
        evidence = (LatentEvidence(
            "compliance",
            regressor=-(impulse * offset * offset),
            response=e_obs - (impulse - env.gap_scale * (1.0 - offset)),
        ),)
        belief = update_belief(belief, e_obs, r_obs, 0.0, belief_cfg, evidence)
        comp_kappa += belief.last_compute
        if trace is not None:
            landing = Observation({"error": e_obs, "error_rate": r_obs}, evidence)
            launch_action = Action("launch", {"offset": offset, "impulse": impulse})
            trace.append(global_step, landing, launch_action, launch, False)
        global_step += 1

        # Open-loop agents commit a correction schedule now and never revise.
        plan: list[float] = []
        if not agent.feedback_enabled:
            plan = open_loop_plan(
                env.dt, (e_pred, 0.0), (0.0, 0.0), env.pos_tol, env.vel_tol,
                agent.action_bound,
            )
        stabilizer = check_policy(StabilizingController(plan), PrimitivePolicy)
        option = OptionChoice(OptionKind.STABILIZE)

        hold = 0
        first_hold_step = None
        perturbed = False
        # The whole trial's sensor noise in one draw: the same values, in the
        # same order, as one size-2 draw per step.
        step_noise = streams.env.normal(0.0, 1.0, size=(env.horizon, 2)).tolist()
        # The trial's stabilize records, row after row, for one trace call.
        first_stabilize_step = global_step
        rows: list[float] = []

        for step in range(1, env.horizon + 1):
            force, clamped = act(stabilizer, belief, None, option, ctx)
            if clamped:
                clamp_events += 1
            if abs(force) > INTERVENTION_EPS:
                interventions += 1

            w = 0.0
            if env.perturb_step is not None and step == env.perturb_step:
                w = env.perturb_magnitude / env.dt
                perturbed = True
            e, edot = e + edot * env.dt, edot + (force + w) * env.dt

            noise = step_noise[step - 1]
            e_obs = e + env.obs_noise * noise[0]
            r_obs = edot + env.obs_noise * noise[1]
            belief = update_belief(belief, e_obs, r_obs, force, belief_cfg)
            comp_kappa += belief.last_compute
            if trace is not None:
                rows += (e_obs, r_obs, force)
            global_step += 1

            if abs(e) < env.pos_tol and abs(edot) < env.vel_tol:
                hold += 1
            else:
                hold = 0
            if first_hold_step is None and hold >= env.hold_steps:
                first_hold_step = step

            # Positional, in `accrue`'s order: task, latency, leak, repair, compute.
            accrue(ledger, 0.0, 0.0 if first_hold_step is not None else 1.0, 0.0,
                   abs(force) if perturbed else 0.0, float(belief.last_compute))
            if ledger.exhausted:
                break

        if trace is not None:
            trace.append_floats(first_stabilize_step, _STABILIZE_RECORD, *rows)

        # Success is terminal: the tolerance window must be held through the
        # end of the trial, so a late perturbation an agent cannot correct
        # turns the trial into a failure.
        success = hold >= env.hold_steps
        accrue(ledger, task=0.0 if success else 1.0, compute=env.launch_grid)
        successes += int(success)
        stab_times.append(float(first_hold_step if first_hold_step is not None else env.horizon))

        sink.check("stabilized", trial_start, global_step - 1, success)

        if ledger.exhausted:
            break

    record.goal_verdict = sink.goal_verdict("stabilized")
    record.metrics = {
        "success_rate": successes / env.trials,
        "time_to_stabilization": sum(stab_times) / len(stab_times) if stab_times else float(env.horizon),
        "intervention_count": float(interventions),
        "clamp_events": float(clamp_events),
        "trials": float(env.trials),
    }
    record.kappa_by_source = {"launch_scan": scan_kappa, "compensation": comp_kappa}
    record.signals = [s.to_json_obj() for s in sink.signals]
    return finish_record(record, ledger)


def _controller(agent: dict) -> ControllerConfig:
    return ControllerConfig(
        feedback_enabled=agent["feedback"],
        compensator_enabled=agent["compensator"],
        rls_enabled=agent["rls"],
        kp=float(agent["kp"]),
        kd=float(agent["kd"]),
        action_bound=float(agent["action_bound"]),
        forgetting=float(agent["forgetting"]),
    )


def _run(env, agent, ledger, seed, trace):
    return run_family_a(env, _controller(agent), ledger, seed, trace)


FAMILY = Family(
    env_config=FamilyAConfig,
    agent={
        "feedback": True,
        "compensator": True,
        "rls": False,
        "kp": 3.0,
        "kd": 2.5,
        "action_bound": 10.0,
        "forgetting": 0.98,
    },
    choices={},
    ablations={"no_feedback": ("feedback", False), "no_compensator": ("compensator", False)},
    run=_run,
    check_agent=_controller,
)
