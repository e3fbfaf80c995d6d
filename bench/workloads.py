"""Seeded inputs and one timed pass of each workload.

Each pass replays part of the acceptance sweeps through the package's
public entry points.  Every call into the package goes through
``call(span_name, fn, *args)``: an untraced pass passes `direct`, a
traced pass a tracer that records one span per call.  A pass only
collects outputs; checks.py judges them after the clock stops.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Callable

import sandpiles.cli as cli
from sandpiles import (
    Configuration,
    Model,
    build,
    enumerate_fixed_points,
    export,
    lattice_check,
    sink_census,
    sinks,
    transient_stats,
    verify,
)

# spm_funnel: sink_census((n), SPM) for n <= SPM_N, then
# lattice_check(build((n), SPM)) for n <= LATTICE_N.
SPM_N = 60
LATTICE_N = 22
# sqrt_law: `sandpiles count --n COUNT_N --bfs-cutoff CENSUS_N`, then
# enumerate_fixed_points(n) for n <= ENUM_N.
COUNT_N = 10_000
CENSUS_N = 24
ENUM_N = 1_500
# sspm_orbit: build, verify, transient_stats and both exports of (n), SSPM
# for n <= ORBIT_N.
ORBIT_N = 18
# Seeded multi-column roots per workload, all holding as many grains as
# the largest single column of that workload's sweep.
ROOTS = {"spm_funnel": (6, SPM_N), "sqrt_law": (4, CENSUS_N), "sspm_orbit": (6, ORBIT_N)}

Call = Callable[..., object]


def direct(name: str, fn: Callable, *args):
    """The `call` of an untraced pass."""
    return fn(*args)


def draw_roots(seed: int, count: int, n: int) -> tuple[Configuration, ...]:
    """`count` roots of n grains, alternately 2 and 3 columns wide.

    Orbit sizes swing by a factor of ten across roots of the same grain
    count, so the first column is drawn from the i-th of `count` equal
    strata of its range; that keeps the batch's total work close to the
    same on every seed.  With n <= 255 every SPM root stays in the array
    lane of sink_census.
    """
    rng = random.Random(seed)
    roots = []
    for i in range(count):
        width = 2 + i % 2
        span = n - width + 1
        first = 1 + min(span - 1, int((i + rng.random()) * span / count))
        rest = n - first
        if width == 2:
            roots.append(Configuration((first, rest)))
        else:
            second = rng.randint(1, rest - 1)
            roots.append(Configuration((first, second, rest - second)))
    return tuple(roots)


def spm_funnel(roots, call: Call, scratch: Path) -> dict:
    census = [
        call("orbit.sink_census.spm", sink_census, Configuration((n,)), Model.SPM)
        for n in range(1, SPM_N + 1)
    ]
    root_census = [call("orbit.sink_census.spm", sink_census, r, Model.SPM) for r in roots]
    lattice = []
    states = sum(c.vertex_count for c in census + root_census)
    for n in range(1, LATTICE_N + 1):
        g = call("orbit.build.spm", build, Configuration((n,)), Model.SPM)
        lattice.append((g.vertex_count, g.truncated, call("orbit.lattice_check", lattice_check, g)))
        states += g.vertex_count
    return {"census": census, "roots": roots, "root_census": root_census, "lattice": lattice, "states": states}


def _count(call: Call, out_path: Path) -> tuple[int, list]:
    # The CLI looks sink_census and fixed_point_counts up in its own module,
    # so wrapping them there puts their spans under cli.count and lets the
    # pass see how many states the count table's census explored.
    census: list = []
    real_census, real_counts = cli.sink_census, cli.fixed_point_counts

    def counted_census(root, model, limits=None):
        res = call(f"orbit.sink_census.{model}", real_census, root, model, limits)
        census.append((root, res))
        return res

    def counted_counts(n, include_shapes=False):
        return call("structure.fixed_point_counts", real_counts, n, include_shapes)

    cli.sink_census, cli.fixed_point_counts = counted_census, counted_counts
    try:
        argv = ["count", "--n", str(COUNT_N), "--bfs-cutoff", str(CENSUS_N), "--format", "csv", "--out", str(out_path)]
        code = call("cli.count", cli.main, argv)
    finally:
        cli.sink_census, cli.fixed_point_counts = real_census, real_counts
    return code, census


def sqrt_law(roots, call: Call, scratch: Path) -> dict:
    out_path = scratch / "count.csv"
    code, count_census = _count(call, out_path)
    root_census = [call("orbit.sink_census.sspm", sink_census, r, Model.SSPM) for r in roots]
    enumerated = [
        call("structure.enumerate_fixed_points", enumerate_fixed_points, n)
        for n in range(1, ENUM_N + 1)
    ]
    states = sum(res.vertex_count for _, res in count_census) + sum(c.vertex_count for c in root_census)
    return {
        "count_exit": code,
        "count_path": out_path,
        "count_census": count_census,
        "roots": roots,
        "root_census": root_census,
        "enumerated": enumerated,
        "states": states,
    }


def sspm_orbit(roots, call: Call, scratch: Path) -> dict:
    orbits = []
    for root in [Configuration((n,)) for n in range(1, ORBIT_N + 1)] + list(roots):
        g = call("orbit.build.sspm", build, root, Model.SSPM)
        orbits.append(
            {
                "root": root,
                "vertices": g.vertex_count,
                "edges": len(g.edges),
                "truncated": g.truncated,
                "sinks": call("orbit.sinks", sinks, g),
                "report": call("orbit.verify", verify, g),
                "transients": call("orbit.transient_stats", transient_stats, g),
                "json": call("orbit.export.json", export, g, "json"),
                "dot": call("orbit.export.dot", export, g, "dot"),
            }
        )
    return {"orbits": orbits, "states": sum(o["vertices"] for o in orbits)}


PASSES = {"spm_funnel": spm_funnel, "sqrt_law": sqrt_law, "sspm_orbit": sspm_orbit}


def make_inputs(workload: str, seed: int) -> tuple[Configuration, ...]:
    count, n = ROOTS[workload]
    return draw_roots(seed, count, n)
