"""A canary for the numpy streams every output follows.

Switch i's arrivals under traffic seed s are drawn from
default_rng([s, i]): numpy's SeedSequence hash, PCG64 and the
Generator's uniform and Poisson samplers. A Random lane draws the
MT19937 words of mt19937_of(random.Random(run_seed)). The values below
were recorded under numpy 2.4.6, as were the output digests that
tests/test_cli.py::TestOutputDigests and perfbench/reference.json pin.
A numpy release that changes one of these streams changes those digests
too; this module names the stream that moved.
"""

import random

import numpy as np
import pytest

from sdnsched.engine import mt19937_of

RECORDED_WITH = "2.4.6"


def rng(s, i):
    return np.random.default_rng([s, i])


#: Each stream, drawn from its seed arguments
STREAMS = {
    "SeedSequence.generate_state": lambda s, i: np.random.SeedSequence(
        [s, i]).generate_state(4, np.uint64).tolist(),
    # compared by bits, not by float equality
    "Generator.random": lambda s, i: rng(s, i).random(4).view(
        np.uint64).tolist(),
    # below a rate of 10 numpy multiplies uniforms; from 10 it runs PTRS
    "Generator.poisson(2)": lambda s, i: rng(s, i).poisson(2, 8).tolist(),
    "Generator.poisson(5.88)": lambda s, i: rng(s, i).poisson(5.88,
                                                              8).tolist(),
    "Generator.poisson(20)": lambda s, i: rng(s, i).poisson(20, 8).tolist(),
    "MT19937.random_raw": lambda s: mt19937_of(random.Random(s)).random_raw(
        4).tolist(),
}

#: Each stream's values under numpy 2.4.6, by seed arguments
RECORDED = {
    "SeedSequence.generate_state": {
        (0, 0): [15793235383387715774, 12390638538380655177,
                 2361836109651742017, 3188717715514472916],
        (0, 1): [5836529245451711556, 8811601478698894690,
                 4323349454413245209, 13668837544996263139],
        (9, 3): [12002089303353060208, 7406190916760520568,
                 17223854981561222211, 1235908760103342996],
    },
    "Generator.random": {
        (0, 0): [4603912460380616784, 4598531665292211828,
                 4586065728143989712, 4580420988013710272],
        (0, 1): [4606189274122990978, 4603193472975881787,
                 4605389158268645821, 4606790730089189747],
        (9, 3): [4598970938878595576, 4589934361829883456,
                 4603145025754935004, 4603711369049221723],
    },
    "Generator.poisson(2)": {
        (0, 0): [2, 0, 7, 1, 1, 3, 0, 0],
        (0, 1): [4, 2, 2, 0, 0, 2, 2, 1],
        (9, 3): [1, 3, 4, 4, 1, 0, 4, 5],
    },
    "Generator.poisson(5.88)": {
        (0, 0): [3, 7, 5, 3, 10, 9, 5, 5],
        (0, 1): [7, 2, 4, 3, 6, 8, 5, 6],
        (9, 3): [5, 9, 2, 11, 3, 5, 5, 6],
    },
    "Generator.poisson(20)": {
        (0, 0): [22, 9, 21, 25, 26, 23, 26, 17],
        (0, 1): [26, 11, 24, 23, 14, 31, 21, 17],
        (9, 3): [17, 21, 20, 27, 26, 17, 21, 28],
    },
    "MT19937.random_raw": {
        (0,): [3626764237, 1654615998, 3255389356, 3823568514],
        (9,): [1988601454, 2633739374, 1603362544, 1147333628],
    },
}


@pytest.mark.parametrize("stream, seeds", [
    (stream, seeds) for stream, values in RECORDED.items()
    for seeds in values])
def test_stream_unchanged(stream, seeds):
    assert STREAMS[stream](*seeds) == RECORDED[stream][seeds], (
        f"numpy {np.__version__} changed the {stream} stream at seeds "
        f"{seeds} from its values under numpy {RECORDED_WITH}: the recorded "
        "output digests (TestOutputDigests, perfbench/reference.json) will "
        "differ")
