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
from math import inf

from ..controller import ControllerConfig, double_integrator, open_loop_plan, pd_feedback
from ..core.belief import (
    Belief, BeliefConfig, absorb_evidence, initial_belief, reading_error, update_belief,
)
from ..core.policy import PolicyContext, select_option
from ..core.state import (
    ConfigurationError,
    LatentEvidence,
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

# The trace shape keys of a trial's landing and of a stabilize step. The
# landing's values are the observed error and error rate, the compliance
# evidence's regressor and response, then the launch's impulse and offset
# as action and as option; a stabilize step's are the observed error and
# error rate, then the force.
_LAUNCH_RECORD = (
    ("error", "error_rate"), ("compliance",), None, "launch", ("impulse", "offset"),
    OptionKind.LAUNCH, ("impulse", "offset"), False,
)
_STABILIZE_RECORD = (
    ("error", "error_rate"), (), None, "force", ("force",), OptionKind.STABILIZE, (), False)

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
    """Scan a fixed offset grid and launch where predicted error is smallest.

    The grid's offsets and their remaining gaps `gap_scale * (1 - offset)`
    are built once; a scan takes `predicted_landing_error`'s operations in
    its order, so it picks the offset that function's scan would."""

    def __init__(self, config: FamilyAConfig):
        self._config = config
        last = config.launch_grid - 1
        offsets = [i / last for i in range(config.launch_grid)]
        self._grid = [(offset, config.gap_scale * (1.0 - offset)) for offset in offsets]

    def select(self, belief: Belief, ctx: PolicyContext) -> OptionChoice:
        impulse = self._config.impulse
        z_hat = belief.latent_mean
        best_offset, best_err = 0.0, inf
        for offset, gap in self._grid:
            err = abs(impulse * (1.0 - z_hat * offset * offset) - gap)
            if err < best_err:
                best_offset, best_err = offset, err
        return OptionChoice(OptionKind.LAUNCH, {"offset": best_offset, "impulse": impulse})


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
    planner = LaunchPlanner(env)
    ctx = PolicyContext(rng=streams.agent)
    tracing = trace is not None
    # The stabilize loop's constants, read once per run.
    feedback, bound = agent.feedback_enabled, agent.action_bound
    delay, rls, forgetting = env.obs_delay, agent.rls_enabled, agent.forgetting
    # A delivered reading is rolled forward through the whole force log,
    # which then holds the `delay` forces since it was taken. At delay 0
    # the log's one force lies outside that window: nothing is rolled.
    compensate = agent.compensator_enabled and delay > 0
    delivery_kappa = delay if agent.compensator_enabled else 0
    dt, obs_noise = env.dt, env.obs_noise
    pos_tol, vel_tol, hold_steps = env.pos_tol, env.vel_tol, env.hold_steps
    perturb_step, perturb_w = env.perturb_step, env.perturb_magnitude / dt

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
        regressor = -(impulse * offset * offset)
        response = e_obs - (impulse - env.gap_scale * (1.0 - offset))
        evidence = (LatentEvidence("compliance", regressor, response),)
        comp_kappa += update_belief(belief, e_obs, r_obs, 0.0, belief_cfg, evidence).last_compute
        if tracing:
            trace.append(global_step, _LAUNCH_RECORD, e_obs, r_obs, regressor, response,
                         impulse, offset, impulse, offset)
        global_step += 1

        # Open-loop agents commit a correction schedule now and never revise.
        schedule = iter(())
        if not feedback:
            schedule = iter(open_loop_plan(
                dt, (e_pred, 0.0), (0.0, 0.0), env.pos_tol, env.vel_tol, bound,
            ))

        hold = 0
        first_hold_step = None
        perturbed = False
        # The whole trial's sensor noise in one draw: the same values, in the
        # same order, as one size-2 draw per step.
        step_noise = streams.env.normal(0.0, 1.0, size=(env.horizon, 2)).tolist()
        # The trial's stabilize records, row after row, for one trace call.
        first_stabilize_step = global_step
        rows: list[float] = []

        # The ledger's running sums that the loop charges, kept in locals
        # for the trial and written back after it.
        latency_cost, repair_cost = ledger.latency_cost, ledger.repair_cost
        compute_used, budget = ledger.compute_used, ledger.budget

        # The belief's estimates, kept in locals for the trial and written
        # back after it; its delay queue and force log stay its deques. The
        # landing reading is queued (or, at delay 0, already delivered), so
        # the first `dead_reckoned` steps deliver nothing and every later
        # one delivers the oldest reading.
        position, velocity = belief.position, belief.velocity
        delayed_position, delayed_velocity = belief.delayed_position, belief.delayed_velocity
        latent_mean, latent_variance = belief.latent_mean, belief.latent_variance
        queue, forces = belief.delayed_obs_buffer, belief.action_log
        enqueue, deliver, log_force = queue.append, queue.popleft, forces.append
        dead_reckoned = delay - len(queue)

        # The stabilize loop, one step per iteration: the force from the
        # belief's present estimate (PD feedback toward zero error, or the
        # next entry of the open-loop schedule clamped to the bound, then
        # silence); the plant; the readings; the belief update and the
        # step's charge. Plant state, estimates, counters, cost sums and
        # constants stay in locals.
        for step, (noise_e, noise_r) in enumerate(step_noise, 1):
            if feedback:
                force, clamped = pd_feedback(agent, position, velocity)
            elif (scheduled := next(schedule, None)) is not None:
                force = max(-bound, min(bound, scheduled))
                clamped = force != scheduled
            else:
                force, clamped = 0.0, False
            if clamped:
                clamp_events += 1
            if abs(force) > INTERVENTION_EPS:
                interventions += 1

            w = 0.0
            if step == perturb_step:
                w = perturb_w
                perturbed = True
            e, edot = e + edot * dt, edot + (force + w) * dt

            e_obs = e + obs_noise * noise_e
            r_obs = edot + obs_noise * noise_r
            # `update_belief` restated: queue the reading and log the force;
            # past the delay, deliver the oldest reading as the delayed
            # estimate, roll it forward through the logged forces and absorb
            # its evidence (the landing's), else dead-reckon the delayed
            # estimate through this step's force.
            if not (-inf < e_obs < inf and -inf < r_obs < inf):
                raise reading_error(e_obs, r_obs)
            enqueue((e_obs, r_obs, ()))
            log_force(force)
            if step > dead_reckoned:
                p, v, delivered = deliver()
                delayed_position, delayed_velocity = p, v
                if compensate:
                    for a in forces:
                        p, v = p + v * dt, v + a * dt
                if delivered and rls:
                    latent_mean, latent_variance = absorb_evidence(
                        latent_mean, latent_variance, delivered, forgetting)
                kappa = delivery_kappa
            else:
                p, v = delayed_position + delayed_velocity * dt, delayed_velocity + force * dt
                delayed_position, delayed_velocity = p, v
                kappa = 0
            position, velocity = p, v
            comp_kappa += kappa
            if tracing:
                rows += (e_obs, r_obs, force)

            if abs(e) < pos_tol and abs(edot) < vel_tol:
                hold += 1
            else:
                hold = 0
            if first_hold_step is None and hold >= hold_steps:
                first_hold_step = step

            # `accrue` restated, its 0.0 additions left out: latency 1.0 until
            # the window is first held, repair |force| once perturbed, then
            # kappa against the budget. Its finiteness check has nothing to
            # catch here: latency is 1.0, the force is clamped to the finite
            # `action_bound`, and kappa is an int.
            if first_hold_step is None:
                latency_cost += 1.0
            if perturbed:
                repair_cost += abs(force)
            if kappa > budget - compute_used:
                compute_used = budget
                ledger.exhausted = True
                break
            compute_used += kappa
        global_step = first_stabilize_step + step
        belief.position, belief.velocity = position, velocity
        belief.delayed_position, belief.delayed_velocity = delayed_position, delayed_velocity
        belief.latent_mean, belief.latent_variance = latent_mean, latent_variance
        belief.last_compute = kappa
        ledger.latency_cost, ledger.repair_cost = latency_cost, repair_cost
        ledger.compute_used = compute_used

        if tracing:
            trace.append(first_stabilize_step, _STABILIZE_RECORD, *rows)

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
    record.signals = sink.signals
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


def _unread(env: FamilyAConfig, agent: dict) -> list[tuple[str, str]]:
    # The prior mean is read without RLS too: the launch planner aims with it.
    if not agent["rls"] and env.z_prior_variance != FamilyAConfig.z_prior_variance:
        return [("env.z_prior_variance", "only RLS reads it, and agent.rls is false")]
    return []


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
    unread=_unread,
)
