from . import family_a, family_b, family_c, family_d
from .family_a import FamilyAConfig, run_family_a
from .family_b import FamilyBConfig, run_family_b
from .family_c import AgentFlags, FamilyCConfig, run_family_c
from .family_d import Constraint, FamilyDConfig, RoleMode, run_family_d
from .records import (
    Family,
    RunRecord,
    STATUS_BUDGET_EXHAUSTED,
    STATUS_COMPLETED,
    STATUS_FAILED,
)

FAMILIES: dict[str, Family] = {
    "A": family_a.FAMILY,
    "B": family_b.FAMILY,
    "C": family_c.FAMILY,
    "D": family_d.FAMILY,
}

__all__ = [
    "AgentFlags",
    "Constraint",
    "FAMILIES",
    "Family",
    "FamilyAConfig",
    "FamilyBConfig",
    "FamilyCConfig",
    "FamilyDConfig",
    "RoleMode",
    "RunRecord",
    "STATUS_BUDGET_EXHAUSTED",
    "STATUS_COMPLETED",
    "STATUS_FAILED",
    "run_family_a",
    "run_family_b",
    "run_family_c",
    "run_family_d",
]
