from fractions import Fraction

import numpy as np
import pytest

from sdnsched.engine import apply_slot, int64_queue_limit
from sdnsched.model import (
    INT64_BOUND,
    LOCAL,
    Association,
    CostModel,
    QueueState,
)
from sdnsched.scheduler import lane_argmin

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
    engine calls it: on int64 arrays when no backlog exceeds the engine's
    int64 queue limit for these arrivals and services, else on object
    arrays of Python ints. Returns (QueueState, f_slot, g_slot)."""
    limit = int64_queue_limit(cost, max(arrivals, default=0),
                              max((*ctrl_service, *switch_service), default=0),
                              INT64_BOUND)
    dtype = np.int64 if max(queues.q_s + queues.q_c) <= limit else object
    q, f, dg = apply_slot(
        np.array([queues.q_s + queues.q_c], dtype),
        np.array([assoc.target], np.intp), np.array(arrivals, dtype),
        np.array([switch_service + ctrl_service], dtype), cost,
        cost.tables.w.astype(dtype), cost.tables.scaled_alpha.astype(dtype))
    row = q[0].tolist()
    n_s = cost.n_switches
    return (QueueState(q_s=tuple(row[:n_s]), q_c=tuple(row[n_s:])),
            int(f[0]), Fraction(int(dg[0]), cost.tables.scale))


def kernel_target(kernel, q_s, q_c):
    """scheduler.lane_argmin run for one GreedyKernel lane on backlog
    tuples as the engine runs it: on kernel.k cast to int64 and int64
    arrays when no backlog exceeds kernel.int64_top, else on kernel.k and
    object arrays of Python ints. Returns the target tuple."""
    dtype = np.int64 if max(q_s + q_c) <= kernel.int64_top else object
    return tuple(lane_argmin(kernel.k[None].astype(dtype), kernel.scale,
                             np.array([q_s], dtype), np.array([q_c], dtype),
                             int(kernel.devolve), kernel.row_class)[0]
                 .tolist())
