"""The benchmark's workloads: one hoardbench experiment config each.

A workload seed shifts the grid's seed range, so different benchmark seeds
run disjoint worlds of the same shape; the program sees only the generated
config. `tiny` shrinks every grid for the benchmark's own tests. Why each
workload was chosen is recorded in BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """`jobs` is the worker count of the pool run that `--trace 1` checks
    and times; every other run uses `--jobs 1`."""

    name: str
    family: str
    env: dict
    agent: dict
    ablations: tuple[str, ...]
    seeds_per_grid: int
    jobs: int
    tiny_env: dict

    def config(self, seed: int, tiny: bool = False) -> dict:
        n = 1 if tiny else self.seeds_per_grid
        start = seed * n
        return {
            "family": self.family,
            "seeds": f"{start}..{start + n - 1}",
            "env": {**self.env, **(self.tiny_env if tiny else {})},
            "agent": dict(self.agent),
            "ablations": list(self.ablations),
        }

    def cells(self, tiny: bool = False) -> int:
        return (1 if tiny else self.seeds_per_grid) * (1 + len(self.ablations))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="b_archive",
            family="B",
            env={"n_events": 4096, "landmark_drift": 0.01, "conflict_rate": 0.5},
            agent={},
            ablations=("flat_archive",),
            seeds_per_grid=1,
            jobs=1,
            tiny_env={"n_events": 64},
        ),
        Workload(
            name="d_verify",
            family="D",
            env={},
            agent={},
            ablations=("single_agent",),
            seeds_per_grid=40,
            jobs=1,
            tiny_env={"n_constraints": 10},
        ),
        Workload(
            name="a_control",
            family="A",
            env={"trials": 20},
            agent={"rls": True},
            ablations=("no_feedback", "no_compensator"),
            seeds_per_grid=6,
            jobs=2,
            tiny_env={"trials": 1},
        ),
        Workload(
            name="c_watched",
            family="C",
            env={"caches": 100},
            agent={},
            ablations=("no_observer_model", "end_only_checking"),
            seeds_per_grid=4,
            jobs=1,
            tiny_env={"caches": 5},
        ),
    )
}
