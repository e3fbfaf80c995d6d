"""Orbit-graph construction, verification, lattice and census lanes."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import re
from itertools import accumulate

import numpy as np

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sandpiles import (
    CheckResult,
    Configuration,
    Model,
    OrbitGraph,
    apply_move,
    build,
    enabled_moves,
    energy,
    enumerate_fixed_points,
    export,
    lattice_check,
    sink_census,
    sinks,
    spm_fixed_point,
    successors,
    transient_stats,
    verify,
)

from sandpiles import census
from sandpiles.census import _sspm_key_tables
from sandpiles.orbit import MAX_VERTICES

from conftest import (
    compositions,
    naive_build,
    naive_census,
    naive_is_lattice,
    naive_orbit,
    spm_firing_length,
    spm_firing_vector,
    spm_orbit_size,
    sspm_orbit_size,
)

C = Configuration


def plain(census):
    """A SinkCensus with its sinks as bare height tuples, the way
    naive_census reports them."""
    return census._replace(sinks=tuple(s.columns for s in census.sinks))


def assert_topological(g):
    """topo_order lists each vertex id once and puts every edge forward."""
    order = g.topo_order
    assert sorted(order) == list(range(g.vertex_count))
    rank = {u: r for r, u in enumerate(order)}
    assert all(rank[u] < rank[v] for u, v in g.edges)


class TestBuild:
    def test_spm_from_four(self):
        g = build(C((4,)), Model.SPM)
        assert set(g.vertices) == {C((4,)), C((3, 1)), C((2, 2)), C((2, 1, 1))}
        assert sinks(g) == (C((2, 1, 1)),)
        assert not g.truncated

    def test_sspm_from_five_has_two_sinks(self):
        g = build(C((5,)), Model.SSPM)
        assert len(g.sink_ids) == 2
        assert set(sinks(g)) == {C((1, 2, 1, 1)), C((1, 1, 2, 1))}
        assert g.vertex_count == 12

    def test_sspm_from_four_exact_graph(self):
        g = build(C((4,)), Model.SSPM)
        assert set(g.vertices) == {
            C((4,)),
            C((3, 1)),
            C((1, 3)),
            C((2, 2)),
            C((2, 1, 1)),
            C((1, 2, 1)),
            C((1, 1, 2)),
            C((1, 1, 1, 1)),
        }
        assert set(sinks(g)) == {C((1, 2, 1)), C((1, 1, 1, 1))}

    def test_shape_merge_keeps_both_move_labels(self):
        g = build(C((2,)), Model.SSPM)
        assert g.vertex_count == 2 and len(g.edges) == 1
        # the edge's move labels come back from its two endpoint shapes
        (u, v), = g.edges
        src, dst = g.vertices[u], g.vertices[v]
        moves = {m for m in enabled_moves(src, g.model) if apply_move(src, m) == dst}
        assert len(moves) == 2

    def test_root_already_fixed(self):
        g = build(C((1,)), Model.SSPM)
        assert g.vertex_count == 1 and g.edges == ()
        assert sinks(g) == (C((1,)),)

    def test_vertex_ids_are_level_then_lex(self):
        g = build(C((5,)), Model.SSPM)
        for (u, v) in g.edges:
            assert g.depths[v] <= g.depths[u] + 1
        for i in range(1, g.vertex_count):
            a, b = g.vertices[i - 1], g.vertices[i]
            assert (g.depths[i - 1], a.columns) < (g.depths[i], b.columns)

    @pytest.mark.parametrize("model", [Model.SPM, Model.SSPM])
    def test_matches_naive_bfs(self, model):
        for n in range(1, 13):
            g = build(C((n,)), model)
            verts, edges, dead = naive_orbit((n,), model.value)
            assert {v.columns for v in g.vertices} == verts
            got_edges = {
                (g.vertices[u].columns, g.vertices[v].columns) for u, v in g.edges
            }
            assert got_edges == edges
            assert {s.columns for s in sinks(g)} == dead

    def test_every_nonroot_vertex_has_an_in_edge(self):
        g = build(C((9,)), Model.SSPM)
        targets = {v for _, v in g.edges}
        assert targets == set(range(1, g.vertex_count))


class TestDeterminism:
    def test_rebuild_is_identical(self):
        a = build(C((12,)), Model.SSPM)
        b = build(C((12,)), Model.SSPM)
        assert a == b
        assert export(a, "json") == export(b, "json")
        assert export(a, "dot") == export(b, "dot")


def test_orbit_graph_takes_a_model_by_its_value():
    # the graph's fields under the model's value make the graph build
    # made, with the same report and exports; a stored string would get
    # the other model's theory in verify and break export
    g = build(C((4,)), Model.SPM)
    for model in Model:
        want = dataclasses.replace(g, model=model)
        got = dataclasses.replace(g, model=model.value)
        assert got == want and got.model is model
        assert verify(got) == verify(want)
        for fmt in ("json", "dot"):
            assert export(got, fmt) == export(want, fmt)
    with pytest.raises(ValueError, match="bogus"):
        dataclasses.replace(g, model="bogus")


# sha256 over the concatenated exports of each family of builds, recorded
# before export stopped copying tuples into lists and str() into names; the
# capped family's from the whole-level cut (46 vertices, depth 6), output
# that naive_build accepts
EXPORT_FAMILIES = {
    "sspm_columns": lambda: [build(C((n,)), Model.SSPM) for n in range(1, 15)],
    "spm_columns": lambda: [build(C((n,)), Model.SPM) for n in range(1, 13)],
    "wide_roots": lambda: [
        build(C(r), m) for r in [(5, 1, 5), (3, 4), (2, 1, 3)] for m in (Model.SPM, Model.SSPM)
    ],
    "capped": lambda: [build(C((10,)), Model.SSPM, 50)],
}
EXPORT_DIGESTS = {
    ("sspm_columns", "json"): "545814176262fe3dd63c644f5d58adbc52c8bd111724f174f3bf4a4b5743e6dd",
    ("sspm_columns", "dot"): "e842a24b487de82bcc3307f51a4f9d3196be5a99443e61bdff528b7fdb5afee2",
    ("spm_columns", "json"): "5e8d55f9a745e7818aadd992e7916c285498bed12b5fc6a71135c6e4b1d7b65f",
    ("spm_columns", "dot"): "6749ce845da87c2fce72742b4db96952aba3d6f8f784fc116bc2cb9b49d2bd12",
    ("wide_roots", "json"): "7aa6aa1e1adb9739d5785ae047cbf828fc934541f7b3d33dd3417a2c980b0e6b",
    ("wide_roots", "dot"): "a0fad829af3195a847529d105c7fc5fcd53cc3141d7e7ddc642c2dd56b7ef4b6",
    ("capped", "json"): "cac17ca49211ab5c2a09197d413217d2366d0ea3b65478c054a967e2a7c4331d",
    ("capped", "dot"): "0829b9d0beee27a77026dda568d61f6c41f80603bd6ca820887dde2adce338fa",
}


@pytest.mark.parametrize("family, fmt", sorted(EXPORT_DIGESTS))
def test_export_bytes_match_the_recorded_digests(family, fmt):
    h = hashlib.sha256()
    for g in EXPORT_FAMILIES[family]():
        h.update(export(g, fmt))
    assert h.hexdigest() == EXPORT_DIGESTS[family, fmt]


def step(level, model):
    return frozenset().union(*(successors(c, model) for c in level))


class TestLevels:
    def test_spm_levels_equal_frontier_iterates(self):
        # under the rightward rule all paths to a shape share one length,
        # so BFS levels and the synchronous iterates coincide exactly
        g = build(C((10,)), Model.SPM)
        level = {C((10,))}
        t = 0
        while level:
            got = {v for i, v in enumerate(g.vertices) if g.depths[i] == t}
            assert got == level, t
            level = step(level, Model.SPM)
            t += 1
        assert t - 1 == max(g.depths)

    def test_sspm_levels_are_contained_in_iterates(self):
        # the symmetric rules revisit shapes at several depths, so only
        # containment holds; og((5)) shows a strict case
        g = build(C((5,)), Model.SSPM)
        level = {C((5,))}
        reached_again = False
        t = 0
        while level:
            bfs_level = {v for i, v in enumerate(g.vertices) if g.depths[i] == t}
            assert bfs_level <= level
            if level - bfs_level & set(g.vertices):
                reached_again = True
            level = step(level, Model.SSPM)
            t += 1
        assert reached_again, "every level matched: containment was not strict"

    def test_sspm_shape_recurs_at_two_depths(self):
        flat = C((1, 2, 2))
        current = {C((5,))}
        seen_at = []
        for t in range(1, 6):
            current = step(current, Model.SSPM)
            if flat in current:
                seen_at.append(t)
        assert seen_at == [3, 4]


class TestTruncation:
    def test_vertex_cap(self):
        g = build(C((8,)), Model.SSPM, 3)
        assert g.truncated and g.vertex_count == 3
        assert json.loads(export(g, "json"))["truncated"] is True

    def test_depth_cap(self):
        # (4) has one shape a level, so a cap of two stops it at depth 1
        g = build(C((4,)), Model.SPM, 2)
        assert g.truncated
        assert {v.columns for v in g.vertices} == {(4,), (3, 1)}

    def test_depth_cap_no_false_positive(self):
        # a cap of four takes (4) down to its sink at depth 3 and no further
        g = build(C((4,)), Model.SPM, 4)
        assert not g.truncated and g.vertex_count == 4

    def test_truncated_graph_refuses_analysis(self):
        g = build(C((8,)), Model.SSPM, 3)
        with pytest.raises(ValueError):
            transient_stats(g)
        with pytest.raises(ValueError):
            lattice_check(g)

    @pytest.mark.parametrize(
        "cap, error, message",
        [
            (0, ValueError, "max_vertices must be positive"),
            (-1, ValueError, "max_vertices must be positive"),
            # accepted, a fractional cap would reach build and fail there in a slice
            (2.5, TypeError, "max_vertices must be int, got 2.5"),
            (True, TypeError, "max_vertices must be int, got True"),
        ],
        ids=["zero", "negative", "fractional", "bool"],
    )
    @pytest.mark.parametrize("explore", [build, sink_census], ids=["build", "census"])
    def test_bad_vertex_cap_is_refused(self, explore, cap, error, message):
        with pytest.raises(error, match=message):
            explore(C((4,)), Model.SPM, cap)

    @pytest.mark.parametrize("root", [(3,), [3], "3", None], ids=["tuple", "list", "str", "none"])
    @pytest.mark.parametrize("explore", [build, sink_census], ids=["build", "census"])
    def test_root_must_be_a_configuration(self, explore, root):
        message = re.escape(f"root must be a Configuration, got {root!r}")
        with pytest.raises(TypeError, match=message):
            explore(root, Model.SPM)


class TestVerify:
    def test_good_graphs_pass_all_checks(self):
        for root, model in [((12,), Model.SSPM), ((8,), Model.SPM)]:
            rep = verify(build(C(root), model))
            assert rep.ok
            assert all(c.status == "pass" for c in rep.checks), str(rep)

    def test_check_names_and_order(self):
        rep = verify(build(C((6,)), Model.SSPM))
        assert [c.name for c in rep.checks] == [
            "energy-decrease",
            "acyclic",
            "lr-decomposable",
            "membership",
            "top-width",
            "sink-census",
        ]

    def test_fabricated_edge_fails_with_witness(self):
        bad = OrbitGraph(
            model=Model.SPM,
            vertices=(C((4,)), C((3, 1)), C((2, 2)), C((2, 1, 1))),
            out_lists=((1,), (2,), (3,), (0,)),
            depths=(0, 1, 2, 3),
            sink_ids=(),
            truncated=False,
        )
        rep = verify(bad)
        assert not rep.ok
        energy_check = rep.checks[0]
        assert energy_check.status == "fail" and "2,1,1" in energy_check.detail
        assert rep.checks[1].status == "fail"  # the fabricated edge closes a cycle

    def test_cycle_is_reported_by_every_reader_of_the_order(self):
        # 1 -> 2 -> 1 is a cycle behind a single source and a single sink
        g = OrbitGraph(
            model=Model.SPM,
            vertices=(C((4,)), C((3, 1)), C((2, 2)), C((2, 1, 1))),
            out_lists=((1,), (2,), (1, 3), ()),
            depths=(0, 1, 2, 3),
            sink_ids=(3,),
            truncated=False,
        )
        assert g.topo_order is None
        rep = verify(g)
        assert rep.checks[1] == CheckResult("acyclic", "fail", "cycle detected")
        assert rep.checks[-1] == CheckResult("convergence", "skipped", "cycle detected")
        with pytest.raises(ValueError, match="contains a cycle"):
            transient_stats(g)
        assert not lattice_check(g)

    def test_cycle_without_a_sink_is_reported(self):
        # 1 -> 2 -> 1 with nothing after it: no vertex is a sink
        g = OrbitGraph(
            model=Model.SPM,
            vertices=(C((4,)), C((3, 1)), C((2, 2))),
            out_lists=((1,), (2,), (1,)),
            depths=(0, 1, 2),
            sink_ids=(),
            truncated=False,
        )
        assert verify(g).checks[1] == CheckResult("acyclic", "fail", "cycle detected")
        with pytest.raises(ValueError, match="contains a cycle"):
            transient_stats(g)
        assert not lattice_check(g)

    def test_rising_edge_falls_back_to_kahn(self):
        # (4) -> (3,1) -> (2,2) and (4) -> (2,1,1) -> (2,2): acyclic, but
        # the last edge rises from energy 5 to 6, so falling energy is no
        # order and topo_order must come from Kahn's algorithm
        g = OrbitGraph(
            model=Model.SPM,
            vertices=(C((4,)), C((2, 1, 1)), C((3, 1)), C((2, 2))),
            out_lists=((1, 2), (3,), (3,), ()),
            depths=(0, 1, 1, 2),
            sink_ids=(3,),
            truncated=False,
        )
        assert g.energies == (10, 5, 7, 6)
        assert_topological(g)
        rep = verify(g)
        assert rep.checks[:2] == (
            CheckResult(
                "energy-decrease",
                "fail",
                "edge from vertex 1 (2,1,1) at depth 1 to vertex 3 (2,2) at depth 2 does not drop",
            ),
            CheckResult("acyclic", "pass"),
        )
        assert transient_stats(g) == (2, 2)

    @staticmethod
    def fabricated(model, vertices, sink_ids):
        # an edgeless graph grown from a single column, so that energy and
        # acyclicity pass and the shape checks judge vertices alone
        return OrbitGraph(
            model=model,
            vertices=tuple(C(v) for v in vertices),
            out_lists=((),) * len(vertices),
            depths=(0,) * len(vertices),
            sink_ids=sink_ids,
            truncated=False,
        )

    def test_valleys_fail_with_the_first_in_id_order(self):
        # (3,1,3) comes before (2,1,2) by id but after it by shape
        g = self.fabricated(Model.SSPM, [(5,), (3, 1, 3), (2, 1, 2), (1, 2, 1, 1)], (3,))
        assert verify(g).checks == (
            CheckResult("energy-decrease", "pass"),
            CheckResult("acyclic", "pass"),
            CheckResult("lr-decomposable", "fail", "vertex 1 (3,1,3) at depth 0 has no monotone split"),
            CheckResult("membership", "fail", "vertex 1 (3,1,3) at depth 0 fails the predicate"),
            CheckResult("top-width", "pass"),
            CheckResult("sink-census", "fail", "found 1 sinks, expected 2: (1,1,2,1) missing"),
        )

    def test_split_witness_is_searched_past_the_first_failed_member(self):
        # (1,1,1,1,1) fails membership but splits at t = 0; the first
        # vertex without a split is the later (2,1,2)
        g = self.fabricated(Model.SSPM, [(5,), (1, 1, 1, 1, 1), (2, 1, 2), (1, 2, 1, 1)], (3,))
        assert verify(g).checks[2:] == (
            CheckResult("lr-decomposable", "fail", "vertex 2 (2,1,2) at depth 0 has no monotone split"),
            CheckResult("membership", "fail", "vertex 1 (1,1,1,1,1) at depth 0 fails the predicate"),
            CheckResult("top-width", "fail", "vertex 1 (1,1,1,1,1) at depth 0 has top wider than 4"),
            CheckResult("sink-census", "fail", "found 1 sinks, expected 2: (1,1,2,1) missing"),
        )

    def test_top_width_witness_is_searched_past_the_first_failed_member(self):
        # (2,1,2) fails membership first but its top is one column wide;
        # the first vertex with a top wider than 4 is the later (1,1,1,1,1)
        g = self.fabricated(Model.SSPM, [(5,), (2, 1, 2), (1, 1, 1, 1, 1)], ())
        assert verify(g).checks[2:5] == (
            CheckResult("lr-decomposable", "fail", "vertex 1 (2,1,2) at depth 0 has no monotone split"),
            CheckResult("membership", "fail", "vertex 1 (2,1,2) at depth 0 fails the predicate"),
            CheckResult("top-width", "fail", "vertex 2 (1,1,1,1,1) at depth 0 has top wider than 4"),
        )

    def test_sink_census_names_the_first_missing_sink(self):
        # both SSPM sinks of 5 grains, (1,1,2,1) and (1,2,1,1), are missing
        g = self.fabricated(Model.SSPM, [(5,), (4, 1)], ())
        assert verify(g).checks[-1] == CheckResult(
            "sink-census", "fail", "found 0 sinks, expected 2: (1,1,2,1) missing"
        )

    def test_wide_tops_fail_with_the_first_in_id_order(self):
        g = self.fabricated(
            Model.SSPM,
            [(5,), (1, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1), (1, 1, 2, 1), (1, 2, 1, 1)],
            (3, 4),
        )
        assert verify(g).checks[2:] == (
            CheckResult("lr-decomposable", "pass"),
            CheckResult("membership", "fail", "vertex 1 (1,1,1,1,1,1) at depth 0 fails the predicate"),
            CheckResult("top-width", "fail", "vertex 1 (1,1,1,1,1,1) at depth 0 has top wider than 4"),
            CheckResult("sink-census", "pass"),
        )

    def test_spm_checks_use_the_rightward_theory(self):
        # (1,2) splits but is not non-increasing; (1,1,1) is a 3-wide top
        # and a plateau run, and the one SPM sink of 3 grains is (2,1); with
        # one sink and no edge, every transient is 0 moves long
        g = self.fabricated(Model.SPM, [(3,), (1, 2), (1, 1, 1)], (2,))
        assert verify(g).checks[2:] == (
            CheckResult("lr-decomposable", "pass"),
            CheckResult("membership", "fail", "vertex 1 (1,2) at depth 0 fails the predicate"),
            CheckResult("top-width", "fail", "vertex 2 (1,1,1) at depth 0 has top wider than 2"),
            CheckResult(
                "sink-census", "fail", "found 1 sinks, expected 1: (2,1) missing, (1,1,1) unexpected"
            ),
            CheckResult("convergence", "pass"),
        )

    def test_spm_graphs_converge_from_any_root(self):
        # strong convergence: one sink and transients of one length, also
        # from a root that the membership theory does not cover
        for cols in [(n,) for n in range(1, 13)] + [(5, 1)]:
            rep = verify(build(C(cols), Model.SPM))
            assert rep.ok and rep.checks[-1] == CheckResult("convergence", "pass"), cols

    def test_convergence_fails_naming_its_witness(self):
        # (4) -> (3,1) -> (2,2) -> (2,1,1) and (4) -> (2,1,1): every edge
        # drops and every shape passes the membership theory, but the one
        # sink lies one move and three moves from the root
        g = OrbitGraph(
            model=Model.SPM,
            vertices=(C((4,)), C((3, 1)), C((2, 2)), C((2, 1, 1))),
            out_lists=((1, 3), (2,), (3,), ()),
            depths=(0, 1, 2, 1),
            sink_ids=(3,),
            truncated=False,
        )
        assert verify(g).checks[2:] == (
            CheckResult("lr-decomposable", "pass"),
            CheckResult("membership", "pass"),
            CheckResult("top-width", "pass"),
            CheckResult("sink-census", "pass"),
            CheckResult("convergence", "fail", "transients of 1 and 3 moves"),
        )
        two = self.fabricated(Model.SPM, [(3,), (2, 1)], (0, 1))
        want = CheckResult("convergence", "fail", "found 2 sinks, expected 1: vertices 0, 1")
        assert verify(two).checks[-1] == want

    def test_truncated_graph_skips_reachability_checks(self):
        g = build(C((8,)), Model.SSPM, 3)
        rep = verify(g)
        statuses = {c.name: c.status for c in rep.checks}
        assert statuses["energy-decrease"] == "pass"
        assert statuses["acyclic"] == "pass"
        assert statuses["membership"] == "skipped"
        assert statuses["sink-census"] == "skipped"
        assert rep.ok  # skips are not failures

    def test_truncated_spm_graph_skips_convergence(self):
        rep = verify(build(C((8,)), Model.SPM, 3))
        assert rep.checks[-1] == CheckResult("convergence", "skipped", "graph truncated")

    def test_wide_root_skips_membership_theory(self):
        g = build(C((5, 1, 5)), Model.SSPM)
        rep = verify(g)
        statuses = {c.name: c.status for c in rep.checks}
        assert statuses["energy-decrease"] == "pass"
        assert statuses["membership"] == "skipped"


class TestLattice:
    def test_spm_orbits_are_lattices(self):
        for n in (1, 5, 8, 11, 14):
            assert lattice_check(build(C((n,)), Model.SPM))

    def test_two_sinks_preclude_a_lattice(self):
        assert not lattice_check(build(C((5,)), Model.SSPM))

    def test_single_vertex(self):
        assert lattice_check(build(C((1,)), Model.SPM))

    def test_diamond_pair_without_meet(self):
        # r -> a, b; both cover x and y; x, y -> s: the pair (a, b) has
        # two maximal common descendants, so no greatest lower bound
        r, a, b, x, y, s = (C((m,)) for m in (7, 6, 5, 4, 3, 2))
        g = OrbitGraph(
            model=Model.SPM,
            vertices=(r, a, b, x, y, s),
            out_lists=((1, 2), (3, 4), (3, 4), (5,), (5,), ()),
            depths=(0, 1, 1, 2, 2, 3),
            sink_ids=(5,),
            truncated=False,
        )
        assert not lattice_check(g)

    def test_unmet_pair_behind_an_incomparable_partner(self):
        # r -> a, c, b; a and b both cover x and y; c, x, y -> s.  Vertex
        # a's later incomparable partners are c, whose meet with a is s,
        # and then b, which shares x and y with a and so has no meet: a
        # check that stops at a's first incomparable partner misses it
        r, a, c, b, x, y, s = (C((m,)) for m in (8, 7, 6, 5, 4, 3, 2))
        g = OrbitGraph(
            model=Model.SPM,
            vertices=(r, a, c, b, x, y, s),
            out_lists=((1, 2, 3), (4, 5), (6,), (4, 5), (6,), (6,), ()),
            depths=(0, 1, 1, 1, 2, 2, 3),
            sink_ids=(6,),
            truncated=False,
        )
        assert g.topo_order == tuple(range(7))
        assert not lattice_check(g)
        assert not naive_is_lattice(g.vertex_count, g.edges)

    def test_chain_is_a_lattice(self):
        # every pair of a chain is comparable, so every pair has a meet;
        # 70 vertices put the descendant sets past one machine word
        m = 70
        g = OrbitGraph(
            model=Model.SPM,
            vertices=tuple(C((m - k,)) for k in range(m)),
            out_lists=tuple((k + 1,) for k in range(m - 1)) + ((),),
            depths=tuple(range(m)),
            sink_ids=(m - 1,),
            truncated=False,
        )
        assert lattice_check(g)
        assert naive_is_lattice(g.vertex_count, g.edges)

    def test_spm_reachability_is_firing_vector_dominance(self):
        # og((n), SPM) is a chip-firing game: v lies below u exactly when
        # every border has let through at least as many grains in v as in
        # u, a route to the lattice that shares nothing with lattice_check
        for n in range(1, 17):
            g = build(C((n,)), Model.SPM)
            f = [spm_firing_vector(v.columns) for v in g.vertices]
            for u in range(g.vertex_count):
                below = {u}
                stack = [u]
                while stack:
                    for v in g.out_lists[stack.pop()]:
                        if v not in below:
                            below.add(v)
                            stack.append(v)
                for v in range(g.vertex_count):
                    dominates = all(a <= b for a, b in zip(f[u], f[v]))
                    assert (v in below) == dominates, (n, g.vertices[u], g.vertices[v])

    def test_spm_firing_vectors_are_closed_under_max(self):
        # the componentwise max of two firing vectors is their meet
        for n in range(1, 17):
            f = {spm_firing_vector(v.columns) for v in build(C((n,)), Model.SPM).vertices}
            assert all(tuple(map(max, a, b)) in f for a in f for b in f), n

    @pytest.mark.parametrize("model", [Model.SPM, Model.SSPM])
    def test_matches_naive_lattice_on_orbits(self, model):
        for n in range(1, 13):
            g = build(C((n,)), model)
            assert lattice_check(g) == naive_is_lattice(g.vertex_count, g.edges), n


@st.composite
def small_digraphs(draw):
    """Up to 8 vertices, each ordered pair an edge or not, no self-loops.
    A quarter of the draws keep every pair and so may hold cycles; the
    rest keep only the pairs from a smaller id to a larger, so they are
    acyclic, and two thirds of those also join 0 to every vertex and
    every vertex to m - 1, giving one source and one sink so that only
    the meets decide.  Several sources or sinks are common in the
    others."""
    m = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["cyclic", "acyclic", "bounded", "bounded"]))
    pairs = [(u, v) for u in range(m) for v in range(m) if u < v or (u > v and kind == "cyclic")]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = {e for e, k in zip(pairs, keep) if k}
    if kind == "bounded":
        edges |= {(0, v) for v in range(1, m)} | {(u, m - 1) for u in range(m - 1)}
    return m, sorted(edges)


@settings(deadline=None, max_examples=500)
@given(small_digraphs())
def test_lattice_check_matches_naive_lattice_on_random_graphs(graph):
    m, edges = graph
    g = OrbitGraph(
        model=Model.SPM,
        vertices=tuple(C((k + 1,)) for k in range(m)),
        out_lists=tuple(tuple(v for s, v in edges if s == u) for u in range(m)),
        depths=(0,) * m,
        sink_ids=tuple(u for u in range(m) if all(s != u for s, _ in edges)),
        truncated=False,
    )
    assert lattice_check(g) == naive_is_lattice(m, edges)


class TestTransients:
    def test_forced_chain(self):
        assert transient_stats(build(C((4,)), Model.SPM)) == (3, 3)

    def test_fixed_root(self):
        assert transient_stats(build(C((1,)), Model.SSPM)) == (0, 0)

    def test_against_exhaustive_path_enumeration(self):
        g = build(C((5,)), Model.SSPM)

        def all_path_lengths(u, acc):
            outs = g.out_lists[u]
            if not outs:
                yield acc
            for v in outs:
                yield from all_path_lengths(v, acc + 1)

        lengths = list(all_path_lengths(0, 0))
        assert transient_stats(g) == (min(lengths), max(lengths))

    def test_every_spm_run_has_the_firing_length(self):
        # chip-firing is strongly convergent: every maximal run from (n)
        # makes the same number of moves, read off the staircase
        for n in range(1, 16):
            f = spm_firing_length(n)
            assert transient_stats(build(C((n,)), Model.SPM)) == (f, f), n


class TestExport:
    def test_json_schema_and_field_order(self):
        g = build(C((2,)), Model.SSPM)
        doc = json.loads(export(g, "json"))
        assert list(doc) == ["model", "root", "truncated", "vertices", "edges", "sinks"]
        assert doc == {
            "model": "SSPM",
            "root": [2],
            "truncated": False,
            "vertices": [[2], [1, 1]],
            "edges": [[0, 1]],
            "sinks": [1],
        }

    def test_edges_and_root_are_views_of_the_adjacency(self):
        # the diamond of TestLattice.test_diamond_pair_without_meet
        r, a, b, x, y, s = (C((m,)) for m in (7, 6, 5, 4, 3, 2))
        g = OrbitGraph(
            model=Model.SPM,
            vertices=(r, a, b, x, y, s),
            out_lists=((1, 2), (3, 4), (3, 4), (5,), (5,), ()),
            depths=(0, 1, 1, 2, 2, 3),
            sink_ids=(5,),
            truncated=False,
        )
        pairs = ((0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5))
        assert g.edges == pairs
        assert g.root == g.vertices[0] == r
        doc = json.loads(export(g, "json"))
        assert doc["root"] == [7]
        assert [tuple(e) for e in doc["edges"]] == list(pairs)

    def test_dot_shape(self):
        text = export(build(C((2,)), Model.SSPM), "dot").decode()
        assert text.startswith("digraph og {")
        assert '"2" -> "1,1";' in text
        assert text.rstrip().endswith("}")

    def test_dot_lists_isolated_vertices(self):
        text = export(build(C((1,)), Model.SPM), "dot").decode()
        assert '"1";' in text and "->" not in text

    def test_vertex_count_matches_bfs(self):
        g = build(C((8,)), Model.SPM)
        doc = json.loads(export(g, "json"))
        assert len(doc["vertices"]) == g.vertex_count == 13

    def test_unsupported_format(self):
        with pytest.raises(ValueError):
            export(build(C((2,)), Model.SPM), "xml")


class TestSinkCensus:
    @pytest.mark.parametrize("model", [Model.SPM, Model.SSPM])
    def test_agrees_with_full_build(self, model):
        for n in range(1, 13):
            g = build(C((n,)), model)
            census = sink_census(C((n,)), model)
            assert census.vertex_count == g.vertex_count, (n, model)
            assert set(census.sinks) == set(sinks(g)), (n, model)
            assert census.depth == max(g.depths), (n, model)
            assert not census.truncated

    def test_array_lane_matches_counting_recurrence(self):
        # the sweep counts by dynamics, the recurrence by shape structure
        for n in (10, 25, 40, 55):
            census = sink_census(C((n,)), Model.SPM)
            assert census.vertex_count == spm_orbit_size(n), n
            assert census.sinks == (spm_fixed_point(n),)

    def test_spm_depth_is_the_firing_length(self):
        # the SPM lane reads its sinks off the last level, which every
        # maximal run reaches after the same number of moves
        for n in range(1, 61):
            assert sink_census(C((n,)), Model.SPM).depth == spm_firing_length(n), n

    def test_sspm_lane_matches_counting_recurrence(self):
        # past the (1)..(24) of the acceptance sweep, by shape structure;
        # (39) and (40) are the first single columns whose rows double
        # three times, when a grain reaches 7 columns from the root
        for n in (*range(1, 33), 39, 40):
            census = sink_census(C((n,)), Model.SSPM)
            assert census.vertex_count == sspm_orbit_size(n), n

    def test_wide_roots(self):
        for cols in [(6, 1, 6), (9, 2), (4, 4, 4)]:
            for model in (Model.SPM, Model.SSPM):
                g = build(C(cols), model)
                census = sink_census(C(cols), model)
                assert census.vertex_count == g.vertex_count
                assert set(census.sinks) == set(sinks(g))

    def test_spm_agrees_with_build_on_multi_column_roots(self):
        # 40-60 grains in 2-3 columns, the scale of the bench's SPM roots:
        # the census reads its one sink off the last level and its depth
        # as every transient's length, which strong convergence promises
        for cols in [(30, 10), (25, 25), (40, 5, 5), (24, 12, 14), (10, 20, 20), (45, 15)]:
            g = build(C(cols), Model.SPM)
            census = sink_census(C(cols), Model.SPM)
            assert census.vertex_count == g.vertex_count, cols
            assert len(census.sinks) == 1 and census.sinks == sinks(g), cols
            assert transient_stats(g) == (census.depth, census.depth), cols
            assert verify(g).checks[-1] == CheckResult("convergence", "pass"), cols

    @pytest.mark.parametrize("max_vertices", [2000, 10, 7, 300])
    def test_spm_array_lane_takes_every_root(self, max_vertices):
        # rows are int8 up to a column of 127, int16 up to 32767, int32 up
        # to 2^31 - 1 and int64 up to 2^63 - 1; every root takes the one
        # SPM lane.  The second line sits at the edge of each type: a
        # slope as low as 1 - max still fits once offset by -2, and -c_0
        # = -max is kept as it is.
        roots = [(127,), (128,), (255,), (256,), (300,), (130, 200), (5, 40000, 3)]
        roots += [(126, 1), (1, 127), (32766, 1), (2**63 - 2, 1), (2**63 - 1,), (5, 2**63 - 1, 3)]
        for cols in roots:
            census = sink_census(C(cols), Model.SPM, max_vertices)
            assert plain(census) == naive_census(cols, "spm", max_vertices), cols
        census = sink_census(C((300,)), Model.SPM, 3)
        # (300), (299,1), (298,2): level sizes 1, 1, 1, then 2
        assert census.truncated and census.vertex_count == 3 and census.depth == 2

    def test_vertex_cap_truncates(self):
        census = sink_census(C((30,)), Model.SPM, 50)
        assert census.truncated
        assert plain(census) == naive_census((30,), "spm", 50)

    @pytest.mark.parametrize("model", [Model.SPM, Model.SSPM])
    def test_matches_naive_census_on_small_roots(self, model):
        # the plain visited-set oracle relies on the dynamics alone, so
        # agreement on every small root pins down the SPM lane's
        # canonical-parent rule (no shape emitted twice, none missed) and
        # the SSPM lane's key, its XOR update, the margin columns and the
        # global dedupe, since every SSPM shape recurs through the sorted
        # key set, never the rows
        for n in range(1, 15):
            for cols in compositions(n):
                if len(cols) <= 4:
                    want = naive_census(cols, model.value, MAX_VERTICES)
                    assert plain(sink_census(C(cols), model)) == want, cols

    def test_spm_rows_widen_at_the_edge(self, monkeypatch):
        # rows are 2^s entries that keep their last column empty and
        # double when column W - 2 fires; a tall last column makes that
        # happen at the first level, and the long rows of ones later.  A
        # staircase of 46 grains from column 5 reaches column 14, so its
        # rows go from 8 to 16 to 32 entries; one of 45 stops at column 13
        real = census._spm_tables
        widths: list[int] = []

        def record(width, signed):
            widths.append(width)
            return real(width, signed)

        monkeypatch.setattr(census, "_spm_tables", record)
        roots = [(1,) * 6 + (k,) for k in (3, 4, 9, 20)]
        roots += [(1,) * 7 + (12,), (1,) * 14 + (6,), (2,) * 6 + (10,), (3, 1, 1, 1, 1, 1, 1, 25)]
        roots += [(1,) * 5 + (45,), (1,) * 5 + (46,)]
        built = {}
        for cols in roots:
            widths.clear()
            want = naive_census(cols, "spm", MAX_VERTICES)
            assert plain(sink_census(C(cols), Model.SPM)) == want, cols
            built[cols] = list(widths)
        assert built[(1,) * 5 + (45,)] == [7, 15]
        assert built[(1,) * 5 + (46,)] == [7, 15, 31]

    @pytest.mark.parametrize("max_vertices", [1, 2, 7, 50, 300, 1000])
    @pytest.mark.parametrize("model", [Model.SPM, Model.SSPM])
    def test_matches_naive_census_under_limits(self, model, max_vertices):
        for cols in [(8,), (20,), (30,), (6, 1, 6), (9, 2), (12, 3, 5, 1)]:
            want = naive_census(cols, model.value, max_vertices)
            assert plain(sink_census(C(cols), model, max_vertices)) == want, cols

    @pytest.mark.parametrize("max_vertices", [500, 3000, 20000])
    def test_sspm_rows_widen_at_either_margin(self, max_vertices):
        # rows are 2^s entries that keep an empty first and last column
        # and double, half the new entries on each side, when a child puts
        # a grain in either: (40, 1, 1, 1, 1) at 20000 shapes and
        # (20, 1, 1, 1, 1) uncapped double twice on the left, their
        # mirrors twice on the right, and (30), (127) and (128) twice on
        # both sides; (126, 1) and (127) hold int8 rows of partial sums,
        # (128) int16 ones.  A third doubling needs a grain 7 columns out
        # from a single column, and more from a wider root; (39), at
        # 302,870 shapes, is the first root the tests double three times.
        # A cap of 500 cuts every one of these roots at depth 12
        for cols in [
            (30,),
            (1, 29),
            (29, 1),
            (1, 1, 1, 1, 40),
            (40, 1, 1, 1, 1),
            (1, 1, 1, 1, 20),
            (20, 1, 1, 1, 1),
            (126, 1),
            (127,),
            (128,),
        ]:
            census = sink_census(C(cols), Model.SSPM, max_vertices)
            assert plain(census) == naive_census(cols, "sspm", max_vertices), cols

    @pytest.mark.parametrize("max_vertices", [2000, 40])
    def test_sspm_key_crosses_word_boundaries(self, max_vertices):
        # a key has one bit per interior partial sum, 64 to a word: (64)
        # and (65) are the last one-word roots and (66) the first two-word
        # one, and from (66) depth 2 moves a grain between sums 64 and 65,
        # whose bits sit in different words
        for cols in [(64,), (65,), (66,), (129,), (130,), (64, 2)]:
            census = sink_census(C(cols), Model.SSPM, max_vertices)
            assert plain(census) == naive_census(cols, "sspm", max_vertices), cols

    def test_sspm_key_tables_match_the_definition(self):
        # a shape's mask has bit (S - 1) % 64 of word (S - 1) // 64 set
        # for each interior partial sum 0 < S < n, and its key is that
        # mask XOR the root's; so a move's key must be its parent's key
        # XOR flip[t], t the lower of the two sums the move passes its
        # border's partial sum between, whatever the root
        def words(sums, n, k):
            mask = sum(1 << (s - 1) for s in sums if 0 < s < n)
            return [mask >> 64 * w & (1 << 64) - 1 for w in range(k)]

        def key(cols, n, k):
            return words(accumulate(cols), n, k)

        rng = random.Random(11)
        for n in list(range(2, 12)) + [63, 64, 65, 66, 127, 128, 129, 130, 300] + rng.sample(range(12, 301), 20):
            flip = _sspm_key_tables(n)
            k = max(1, -(-(n - 1) // 64))
            assert flip.shape == (n, k) and flip.dtype == np.uint64
            for t in range(n):
                assert flip[t].tolist() == words((t, t + 1), n, k), (n, t)
            shapes = []
            for _ in range(10):
                cuts = sorted(rng.sample(range(1, n), rng.randint(0, min(n - 1, 40))))
                shapes.append([b - a for a, b in zip([0] + cuts, cuts + [n])])
            # two columns whose border sum moves across a word boundary
            shapes += [[s, n - s] for m in range(64, n - 1, 64) for s in (m, m + 1)]
            for cols in shapes:
                parent = key(cols, n, k)
                for i, c in enumerate(cols):
                    for step in (1, -1):
                        j = i + step
                        if c - (cols[j] if 0 <= j < len(cols) else 0) < 2:
                            continue
                        work = [0] + cols + [0]
                        work[i + 1] -= 1
                        work[j + 1] += 1
                        child = [x for x in work if x]
                        # the sum at the border crossed, before the move
                        before = sum(cols[: i + 1] if step == 1 else cols[:i])
                        t = before - 1 if step == 1 else before
                        got = [p ^ f for p, f in zip(parent, flip[t].tolist())]
                        assert got == key(child, n, k), (cols, i, step)

    def test_spm_sinks_lie_on_the_deepest_level_only(self):
        # the SPM lane reads sinks off its last level alone, which rests
        # on chip-firing being strongly convergent; the plain oracle checks
        # that here without the lane: one sink, and none above the deepest
        # level, which a census cut one level short would report
        for n in range(1, 15):
            for cols in compositions(n):
                if len(cols) <= 4:
                    assert_spm_sink_is_unique_and_deepest(cols)

    def test_spm_last_level_that_can_fire_is_an_error(self, monkeypatch):
        # a kept-move table that hides every child leaves a last level
        # whose rows can still fire; the lane names the root and depth
        real = census._spm_tables

        def hide_all(width, signed):
            moves, keep = real(width, signed)
            return moves, np.zeros_like(keep)

        monkeypatch.setattr(census, "_spm_tables", hide_all)
        with pytest.raises(RuntimeError, match=r"\(3, 1\).*depth 0"):
            sink_census(C((3, 1)), Model.SPM)

    def test_sspm_sinks_are_the_fixed_point_templates(self):
        # the dynamics route and the template route, shape for shape
        for n in range(1, 25):
            assert sink_census(C((n,)), Model.SSPM).sinks == enumerate_fixed_points(n), n

    @pytest.mark.parametrize("model", [Model.SPM, Model.SSPM])
    def test_root_no_row_type_holds_is_refused(self, model):
        # a column of 2^63 needs more than int64 under either model; the
        # error names the root before any table is built
        with pytest.raises(OverflowError, match=r"\(9223372036854775808,\)"):
            sink_census(C((2**63,)), model, 3)

    def test_depth_cap(self):
        # the census takes a level whole or not at all, so a vertex cap
        # stops it at the deepest level that fits: levels 0-3 of (8) hold
        # 1 + 2 + 3 + 6 = 12 shapes and level 4 eight more
        full = sink_census(C((8,)), Model.SSPM)
        assert not full.truncated and full.depth > 3
        for cap in (12, 19):
            census = sink_census(C((8,)), Model.SSPM, cap)
            assert census.truncated and census.depth == 3 and census.vertex_count == 12, cap


def assert_spm_sink_is_unique_and_deepest(cols):
    # naive_build gives every shape its depth, so the one sink must have
    # the largest
    _, _, depths, sink_ids, truncated = naive_build(cols, "spm", MAX_VERTICES)
    assert not truncated and len(sink_ids) == 1, (cols, sink_ids)
    assert depths[sink_ids[0]] == max(depths), (cols, depths)


# 1-6 columns, at most 30 grains: the longest prefix of the drawn columns
# that holds no more
@settings(deadline=None)
@given(
    st.lists(st.integers(1, 30), min_size=1, max_size=6).map(
        lambda t: tuple(c for c, s in zip(t, accumulate(t)) if s <= 30)
    )
)
def test_spm_sinks_lie_on_the_deepest_level_on_random_roots(cols):
    assert_spm_sink_is_unique_and_deepest(cols)


# 1-3 columns, at most 12 grains: small enough for the naive BFS oracle
multi_column_roots = (
    st.lists(st.integers(1, 10), min_size=1, max_size=3)
    .map(tuple)
    .filter(lambda t: sum(t) <= 12)
)


@settings(deadline=None)
@given(multi_column_roots, st.sampled_from([Model.SPM, Model.SSPM]))
def test_build_and_census_match_naive_bfs_on_multi_column_roots(cols, model):
    verts, edges, dead = naive_orbit(cols, model.value)
    g = build(C(cols), model)
    assert not g.truncated
    assert {v.columns for v in g.vertices} == verts
    got_edges = {(g.vertices[u].columns, g.vertices[v].columns) for u, v in g.edges}
    assert got_edges == edges and len(g.edges) == len(edges)
    assert {s.columns for s in sinks(g)} == dead
    census = sink_census(C(cols), model)
    assert not census.truncated
    assert census.vertex_count == len(verts)
    assert {s.columns for s in census.sinks} == dead


# 1-4 columns, at most 14 grains, under the default cap (None: a call
# without one) or a cap of 1-300
capped_builds = (
    st.lists(st.integers(1, 14), min_size=1, max_size=4).map(tuple).filter(lambda t: sum(t) <= 14),
    st.sampled_from([Model.SPM, Model.SSPM]),
    st.one_of(st.none(), st.integers(1, 300)),
)


def capped_build(cols, model, max_vertices):
    return build(C(cols), model, *([] if max_vertices is None else [max_vertices]))


@settings(deadline=None)
@given(*capped_builds)
# the root is cut off from its one child but still has a move, so it is
# no sink
@example((2,), Model.SPM, 1)
def test_build_matches_naive_build_under_limits(cols, model, max_vertices):
    g = capped_build(cols, model, max_vertices)
    verts, edges, depths, sink_ids, truncated = naive_build(
        cols, model.value, max_vertices or MAX_VERTICES
    )
    assert tuple(v.columns for v in g.vertices) == verts
    assert g.edges == edges
    assert g.depths == depths
    assert g.sink_ids == sink_ids
    assert g.truncated == truncated


@settings(deadline=None)
@given(*capped_builds)
# levels 0-1 of (12) hold 3 shapes and level 2 three more, so a cap of 5
# drops level 2 whole rather than keeping two of its shapes
@example((12,), Model.SSPM, 5)
def test_build_and_census_cut_at_the_same_level(cols, model, max_vertices):
    g = capped_build(cols, model, max_vertices)
    census = sink_census(C(cols), model, *([] if max_vertices is None else [max_vertices]))
    assert g.vertex_count == census.vertex_count
    assert max(g.depths) == census.depth
    assert g.truncated == census.truncated
    assert tuple(sorted(sinks(g))) == census.sinks


@settings(deadline=None)
@given(*capped_builds)
def test_build_interns_only_shapes_the_constructor_accepts(cols, model, max_vertices):
    # build wraps its vertices with Configuration._trusted, skipping the
    # checks; each must be a tuple of plain ints that the checked
    # constructor takes unchanged
    for v in capped_build(cols, model, max_vertices).vertices:
        assert type(v.columns) is tuple
        assert all(type(h) is int for h in v.columns)
        assert v == C(v.columns)


@settings(deadline=None)
@given(*capped_builds)
# a first case that fails at once, before any draw needs shrinking
@example((3,), Model.SSPM, None)
def test_labels_and_json_export_are_read_off_the_graph(cols, model, max_vertices):
    # labels come from one encode of every height list, cut apart, and the
    # JSON export is written out by hand; both must say what the fields say
    g = capped_build(cols, model, max_vertices)
    assert g.labels == tuple(map(str, g.vertices))
    assert json.loads(export(g, "json")) == {
        "model": g.model.name,
        "root": list(g.root.columns),
        "truncated": g.truncated,
        "vertices": [list(v.columns) for v in g.vertices],
        "edges": [list(e) for e in g.edges],
        "sinks": list(g.sink_ids),
    }


def test_energy_decreases_along_every_edge():
    for n, model in [(15, Model.SSPM), (20, Model.SPM)]:
        g = build(C((n,)), model)
        for u, v in g.edges:
            assert energy(g.vertices[u]) > energy(g.vertices[v])


@settings(deadline=None)
@given(
    st.lists(st.integers(1, 12), min_size=1, max_size=4).map(tuple).filter(lambda t: sum(t) <= 12),
    st.sampled_from([Model.SPM, Model.SSPM]),
)
def test_topo_order_lists_each_vertex_once_and_every_edge_forward(cols, model):
    assert_topological(build(C(cols), model))
