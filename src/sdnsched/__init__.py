"""Dynamic switch-controller association and control-devolution
scheduling: per-slot greedy drift-plus-penalty decisions, baselines,
data-center topologies, traffic models, and a slotted simulator."""

from .model import (
    LOCAL,
    Association,
    CostModel,
    Devolution,
    SchedulerParams,
    TopoKind,
    Topology,
)

__all__ = [
    "LOCAL",
    "Association",
    "CostModel",
    "Devolution",
    "SchedulerParams",
    "TopoKind",
    "Topology",
]
