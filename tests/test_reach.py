"""Every def in sdnsched outside reference.py is entered by some command.

A fixed matrix of in-process `cli.main` calls runs under sys.setprofile,
which sees every Python function call. Every def of the package's
modules, methods and nested defs included, must be entered, except the
allowlisted ones, which must not be. reference.py is the specification
that tests compare the fast path against, so no command runs it. Code
that no command needs fails here instead of waiting to be found.
"""

import ast
import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

import sdnsched
from sdnsched import cli, traffic

PACKAGE = Path(sdnsched.__file__).resolve().parent

#: The defs no command enters, each with the reason it stays.
ALLOWED = {
    "traffic.sample_slot_arrivals": "the only target of perfbench's "
    "traffic.sample span, which tests/test_bench_targets.py requires",
    "topology.PlacementResult.controller_count": "perfbench's time_setup "
    "reads it",
}

#: 2^50 requests per switch per slot into zero capacities on fat-tree
#: k=4: the group widens to object arrays after slot 9.
WIDENING = {"kind": "fat-tree", "k": 4, "scheme": "greedy", "horizon": 12,
            "arrivals": "constant:1125899906842624",
            "a_max": 1125899906842624, "controller_capacity": 0,
            "switch_capacity": 0, "name": "widening"}


def commands(tmp: Path) -> list[tuple[list[str], int]]:
    """Each command's argv and its expected exit code."""
    cdf = tmp / "cdf.txt"
    cdf.write_text("0 0.0\n1000 0.5\n4000 1.0\n")
    config = tmp / "widening.json"
    config.write_text(json.dumps(WIDENING))
    out = ["--out-dir", str(tmp / "out")]
    fat = ["--kind", "fat-tree", "--k", "4"]
    matrix = [(["topo", "--kind", kind, "--k", "4"], 0)
              for kind in ("fat-tree", "three-tier", "f10")]
    matrix += [
        (["topo", "--kind", "f10", "--k", "4", "--out",
          str(tmp / "edges.txt")], 0),
        # the seeded pairing gets stuck and breaks a link
        (["topo", "--kind", "jellyfish", "--k", "6", "--seed", "7"], 0),
    ]
    processes = ("poisson:3", "pareto:1.5,2", "constant:2", f"trace:{cdf}")
    matrix += [(["run", *fat, "--scheme", scheme, "--arrivals", process,
                 "--v", "7/2", "--horizon", "7", "--stride", "3",
                 "--log-lyapunov", *out], 0)
               for scheme in ("greedy", "static", "random", "jsq")
               for process in processes]
    matrix += [
        (["run", *fat, "--scheme", "greedy", "--devolution", "off",
          "--v", "1e30", "--horizon", "4", *out], 0),
        (["run", "--config", str(config), *out], 0),
        (["sweep", *fat, "--horizon", "4", "--v-grid", "0,7/2",
          "--schemes", "greedy,random", "--seeds", "1,2", *out], 0),
        (["compare", "--kind", "f10", "--k", "4", "--horizon", "4",
          "--v-grid", "10", *out], 0),
        (["run", "--kind", "jellyfish", "--k", "6", "--hosts-min", "1",
          "--hosts-max", "2", "--scheme", "greedy", "--horizon", "4",
          *out], 0),
        (["run", "--kind", "three-tier", "--k", "4", "--scheme", "greedy",
          "--hot-spot-rate", "30", "--horizon", "4", *out], 0),
        # errors: a bad V, a repeated seed, a missing config file
        (["run", *fat, "--scheme", "greedy", "--v", "x", "--horizon", "4",
          *out], 1),
        (["sweep", *fat, "--horizon", "4", "--v-grid", "1", "--seeds",
          "1,1", *out], 1),
        (["run", "--config", str(tmp / "missing.json"), *out], 1),
    ]
    return matrix


def defs() -> dict[str, tuple[str, int, str]]:
    """Every def outside reference.py, by dotted name (module, classes,
    enclosing defs), as (file, first line, name): the first line is its
    first decorator's, as in the code object's co_firstlineno."""
    found = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                line = min([child.lineno] + [d.lineno for d in
                                             child.decorator_list])
                found[name] = (path, line, child.name)
            elif isinstance(child, ast.ClassDef):
                name = f"{prefix}.{child.name}"
            visit(child, name, path)

    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "reference.py":
            visit(ast.parse(path.read_text()), path.stem, str(path))
    return found


@pytest.fixture(scope="module")
def reach(tmp_path_factory):
    """The exit codes of the matrix, and the (file, first line, name) of
    every code object entered while it ran."""
    matrix = commands(tmp_path_factory.mktemp("reach"))
    # a cache filled by an earlier test would hide its function's call
    traffic._hash_consts.cache_clear()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    codes = []
    previous = sys.getprofile()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(profile)
        try:
            for argv, _ in matrix:
                codes.append(cli.main(argv))
        finally:
            sys.setprofile(previous)
    return ([code for _, code in matrix], codes,
            {(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name)
             for c in entered})


def test_commands_exit_as_expected(reach):
    expected, codes, _ = reach
    assert codes == expected


def test_every_def_is_entered(reach):
    _, _, entered = reach
    missed = [name for name, key in defs().items()
              if key not in entered and name not in ALLOWED]
    assert missed == []


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_allowed_def_exists_and_is_not_entered(reach, name):
    _, _, entered = reach
    found = defs()
    assert name in found, f"{name} is gone: drop it from ALLOWED"
    assert found[name] not in entered, \
        f"{name} is entered: drop it from ALLOWED"
