from fractions import Fraction

import numpy as np
import pytest

from sdnsched.engine import (
    INT64_BOUND,
    LaneGroup,
    RunConfig,
    Scheme,
    apply_slot,
    int64_queue_limit,
)
from sdnsched.model import (
    LOCAL,
    Association,
    CostModel,
    Devolution,
    SchedulerParams,
)
from sdnsched.reference import QueueState, row_record
from sdnsched.traffic import Poisson, TrafficConfig

# Worked three-switch / two-controller example: controllers serve 2,
# switches serve 1, alpha = 2, arrivals (3, 2, 2). Hop counts not pinned
# by the setup (s2-c2, s3-c1) are chosen above alpha so they never win.
FIG1_COST = CostModel.uniform_alpha(((1, 3), (1, 4), (4, 3)), 2)
FIG1_ARRIVALS = (3, 2, 2)
FIG1_CTRL_SERVICE = (2, 2)
FIG1_SWITCH_SERVICE = (1, 1, 1)
FIG1_X1 = Association(target=(0, 0, LOCAL))
FIG1_X2 = Association(target=(0, LOCAL, 1))


@pytest.fixture
def fig1_queues():
    return QueueState.zeros(3, 2)


def apply_slot_tuples(queues, assoc, arrivals, ctrl_service, switch_service,
                      cost):
    """engine.apply_slot called for one lane on the model's tuples as the
    engine calls it, with a one-lane LaneGroup's tables: on int64 arrays
    when no backlog exceeds the engine's int64 queue limit for a lane
    whose a_max is the largest arrival, else on object arrays of Python
    ints. Returns (QueueState, f_slot, g_slot)."""
    n_s, n_c = cost.n_switches, cost.n_controllers
    lane = RunConfig(
        cost=cost, traffic=TrafficConfig(
            base_process=Poisson(0), n_switches=n_s, n_controllers=n_c,
            a_max=max((1, *arrivals))),
        scheme=Scheme.STATIC, params=SchedulerParams(), horizon_slots=1)
    # TrafficConfig caps a run's services at MAX_CAPACITY; these tests
    # also price services beyond int64, which only object arrays hold
    services = (*ctrl_service, *switch_service)
    fits = max(queues.q_s + queues.q_c) <= int64_queue_limit(lane) \
        and max(services, default=0) < INT64_BOUND
    dtype = np.int64 if fits else object
    group = LaneGroup([lane], [0])
    if not fits:
        group.widen()
    q, (f, dg) = apply_slot(
        np.array([queues.q_s + queues.q_c], dtype),
        np.array([assoc.target], np.intp), np.array([arrivals], dtype),
        np.array([switch_service + ctrl_service], dtype), group.cells,
        group.joins, group.price)
    row = q[0].tolist()
    return (QueueState(q_s=tuple(row[:n_s]), q_c=tuple(row[n_s:])),
            int(f[0]), Fraction(int(dg[0]), cost.tables.scale))


def records(res):
    """The reference.MetricsRecord of each of an engine.RunResult's kept
    rows."""
    return [row_record(row, res.scale, res.n_controllers, res.v)
            for row in res.rows]


def argmin_lane(cost, scheme, v=0, devolution=Devolution.ON):
    """An engine.LaneGroup of one `scheme` lane on `cost`, built as a run
    builds it: on int64 arrays unless the lane's int64 queue limit is
    negative."""
    cfg = RunConfig(
        cost=cost, traffic=TrafficConfig(
            base_process=Poisson(0), n_switches=cost.n_switches,
            n_controllers=cost.n_controllers),
        scheme=scheme, params=SchedulerParams(v=v, devolution=devolution),
        horizon_slots=1)
    return LaneGroup([cfg], [0])


def lane_target(group, q_s, q_c):
    """The target tuple group.decide gives its one lane for backlog
    tuples, on the group's arrays' dtype. An int64 group only decides for
    backlogs within its lane's int64 queue limit (LaneGroup.advance widens
    after the slot that passes it), so a test that passes the limit calls
    group.widen() first."""
    if group.limit:
        assert sum(q_s) + sum(q_c) <= group.limit[0]
    dtype = group.q.dtype
    return tuple(group.decide(np.array([q_s + q_c], dtype))[0].tolist())
