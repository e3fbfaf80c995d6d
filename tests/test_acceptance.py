"""Acceptance sweep.

Each test checks one headline claim end to end and prints a single
verdict line; run `pytest tests/test_acceptance.py -v -s` to see them.
The numbered order mirrors the project checklist.
"""

from __future__ import annotations

import time
from math import isqrt

import pytest

from conftest import compositions, spm_orbit_size, sspm_orbit_size
from sandpiles import (
    Configuration,
    Model,
    build,
    energy,
    enumerate_fixed_points,
    export,
    fixed_point_counts,
    has_crazed_lr,
    is_crazed,
    is_fixed_point,
    lattice_check,
    lr_splits,
    plateau_spans,
    cliffs,
    sink_census,
    sinks,
    spm_fixed_point,
    spm_member,
    sspm_member,
    top,
)
from sandpiles.cli import main as cli_main

C = Configuration


def report(num: int, ok: bool, label: str, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    tail = f"  [{detail}]" if detail else ""
    print(f"criterion {num:2d} {verdict}: {label}{tail}")
    assert ok, f"criterion {num} failed: {label}{tail}"


@pytest.fixture(scope="module")
def sspm_sinks_24():
    """Exhaustive symmetric-model sinks for n = 1..24, with wall time."""
    t0 = time.perf_counter()
    found = {
        n: sink_census(C((n,)), Model.SSPM).sinks
        for n in range(1, 25)
    }
    return found, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sspm_graphs_20():
    """Full orbit graphs of (n) under the symmetric model for n = 1..20."""
    return {n: build(C((n,)), Model.SSPM) for n in range(1, 21)}


def test_01_square_root_law(sspm_sinks_24):
    found, bfs_seconds = sspm_sinks_24
    bfs_ok = all(len(found[n]) == isqrt(n) for n in range(1, 25))
    t0 = time.perf_counter()
    enum_ok = all(
        len(enumerate_fixed_points(n)) == isqrt(n) for n in range(1, 10_001)
    )
    enum_seconds = time.perf_counter() - t0
    ok = bfs_ok and enum_ok and bfs_seconds < 60 and enum_seconds < 30
    report(
        1,
        ok,
        "fixed-point count is floor(sqrt(n)), by search to 24 and formula to 10^4",
        f"search {bfs_seconds:.1f}s, enumeration {enum_seconds:.1f}s",
    )


def test_02_census_split(sspm_sinks_24):
    found, _ = sspm_sinks_24
    ok = True
    detail = ""
    for n in range(1, 25):
        narrow = sum(1 for c in found[n] if top(c).size == 1)
        wide = len(found[n]) - narrow
        want = fixed_point_counts(n)
        if (narrow, wide) != (want.single_top, want.wide_top):
            ok = False
            detail = f"first mismatch at n={n}: search ({narrow},{wide}), formula ({want.single_top},{want.wide_top})"
            break
    report(2, ok, "sinks split by top width match the two closed counts", detail)


def test_03_two_sinks_for_five_grains(sspm_graphs_20):
    got = sinks(sspm_graphs_20[5])
    ok = len(got) == 2
    report(3, ok, "og((5), SSPM) has exactly two sinks", f"found {len(got)}")


def test_04_spm_funnels_to_the_staircase():
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for n in range(1, 101):
        res = sink_census(C((n,)), Model.SPM)
        if res.truncated or res.sinks != (spm_fixed_point(n),):
            ok = False
            detail = f"n={n} gave {[str(s) for s in res.sinks]}"
            break
        if res.vertex_count != spm_orbit_size(n):
            ok = False
            detail = f"n={n} reached {res.vertex_count} shapes, expected {spm_orbit_size(n)}"
            break
    eight = sink_census(C((8,)), Model.SPM).sinks
    if eight != (C((3, 2, 2, 1)),):
        ok = False
        detail = f"n=8 sink {eight}"
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120
    report(
        4,
        ok,
        "SPM from (n) has the unique sink spm_fixed_point(n) for n <= 100",
        detail or f"{elapsed:.1f}s",
    )


def test_05_spm_orbit_is_a_lattice():
    ok = all(
        lattice_check(build(C((n,)), Model.SPM))
        for n in range(1, 15)
    )
    report(5, ok, "og((n), SPM) passes lattice_check for n <= 14")


def test_06_membership_matches_reachability(sspm_graphs_20):
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for n in range(1, 15):
        predicted = {
            C(parts) for parts in compositions(n) if has_crazed_lr(C(parts))
        }
        reached = set(sspm_graphs_20[n].vertices)
        if predicted != reached:
            ok = False
            detail = f"SSPM n={n}"
            break
    for n in range(1, 19):
        predicted = {
            C(parts) for parts in compositions(n) if spm_member(C(parts))
        }
        reached = set(build(C((n,)), Model.SPM).vertices)
        if predicted != reached:
            ok = False
            detail = f"SPM n={n}"
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120
    report(
        6,
        ok,
        "membership predicates equal the reachable sets from (n)",
        detail or f"{elapsed:.1f}s",
    )


def test_06_extends_to_20_grains_by_counting(sspm_graphs_20):
    # Every reached shape is a member, and there are as many as the
    # counting recurrence finds members, so reached equals members.
    bad = [
        n
        for n, g in sspm_graphs_20.items()
        if not all(map(sspm_member, g.vertices)) or g.vertex_count != sspm_orbit_size(n)
    ]
    report(6, not bad, "og((n), SSPM) holds every member for n <= 20", f"bad n: {bad}" if bad else "")


def test_07_energy_descends_below_the_peak(sspm_graphs_20):
    bad_edges = 0
    bad_vertices = 0
    for n, g in sspm_graphs_20.items():
        peak = n * (n + 1) // 2
        for u, v in g.edges:
            if energy(g.vertices[v]) >= energy(g.vertices[u]):
                bad_edges += 1
        for c in g.vertices:
            if c != g.root and energy(c) >= peak:
                bad_vertices += 1
    ok = bad_edges == 0 and bad_vertices == 0
    report(
        7,
        ok,
        "energy drops on every edge and only (n) attains n(n+1)/2",
        f"{bad_edges} bad edges, {bad_vertices} bad vertices",
    )


def test_08_reachable_shapes_are_structurally_tame(sspm_graphs_20):
    violations = 0
    checked = 0
    for g in sspm_graphs_20.values():
        for c in g.vertices:
            checked += 1
            t = top(c)
            if t.size > 4:
                violations += 1
                continue
            for split in lr_splits(c):
                left_hi = min(split.t, t.lo - 1)
                right_lo = max(split.t + 1, t.hi + 1)
                # each off-top zone is checked as a shape of its own
                for zone in (c.columns[:left_hi], c.columns[right_lo - 1 :]):
                    if not zone:
                        continue
                    if any(b - a + 1 > 2 for a, b in plateau_spans(C(zone))):
                        violations += 1
                    if not is_crazed(C(zone)):
                        violations += 1
    ok = violations == 0
    report(
        8,
        ok,
        "tops stay narrow and off-top zones stay crazed on every split",
        f"{checked} vertices, {violations} violations",
    )


def test_09_rendered_galleries_spot_check(tmp_path):
    ok = True
    detail = ""
    for n in (1, 4, 9, 16, 25, 32):
        out = tmp_path / f"fp{n}.txt"
        rc = cli_main(["fixpoints", "--n", str(n), "--out", str(out)])
        if rc != 0:
            ok, detail = False, f"exit {rc} for n={n}"
            break
        rows = out.read_text().split("\n")
        grids = list(zip(*(line.split("  ") for line in rows)))
        if len(grids) != isqrt(n):
            ok, detail = False, f"n={n} drew {len(grids)} shapes"
            break
        for grid in grids:
            heights = tuple(
                sum(1 for row in grid if row[i] == "#")
                for i in range(len(grid[0]))
            )
            shape = C(heights)
            tame = (
                sum(heights) == n
                and is_fixed_point(shape, Model.SSPM)
                and len(plateau_spans(shape)) <= 3
                and not cliffs(shape)
            )
            if not tame:
                ok, detail = False, f"n={n} drew a bad shape {shape}"
                break
    report(9, ok, "fixpoints galleries render sqrt-many stable shapes", detail)


def test_10_builds_and_exports_are_reproducible():
    root = C((12,))
    one = build(root, Model.SSPM)
    two = build(root, Model.SSPM)
    blobs = [(export(g, "json"), export(g, "dot")) for g in (one, two)]
    ok = blobs[0] == blobs[1]
    report(10, ok, "repeat builds export byte-identical graphs")
