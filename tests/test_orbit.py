"""Orbit-graph construction, verification, lattice and census lanes."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sandpiles import (
    CheckResult,
    Configuration,
    ExplorationLimits,
    Model,
    OrbitGraph,
    apply_move,
    build,
    enabled_moves,
    energy,
    enumerate_fixed_points,
    export,
    frontier_step,
    lattice_check,
    sink_census,
    sinks,
    spm_fixed_point,
    transient_stats,
    verify,
)

from sandpiles import orbit
from sandpiles.orbit import _census_python, _census_spm_array, _census_sspm_array

from conftest import compositions, naive_orbit, spm_orbit_size

C = Configuration


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
            level = frontier_step(level, Model.SPM)
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
            level = frontier_step(level, Model.SSPM)
            t += 1
        assert reached_again, "every level matched: containment was not strict"

    def test_sspm_shape_recurs_at_two_depths(self):
        flat = C((1, 2, 2))
        current = {C((5,))}
        seen_at = []
        for t in range(1, 6):
            current = frontier_step(current, Model.SSPM)
            if flat in current:
                seen_at.append(t)
        assert seen_at == [3, 4]


class TestTruncation:
    def test_vertex_cap(self):
        g = build(C((8,)), Model.SSPM, ExplorationLimits(max_vertices=3))
        assert g.truncated and g.vertex_count == 3
        assert json.loads(export(g, "json"))["truncated"] is True

    def test_depth_cap(self):
        g = build(C((4,)), Model.SPM, ExplorationLimits(max_depth=1))
        assert g.truncated
        assert {v.columns for v in g.vertices} == {(4,), (3, 1)}

    def test_depth_cap_no_false_positive(self):
        g = build(C((4,)), Model.SPM, ExplorationLimits(max_depth=3))
        assert not g.truncated and g.vertex_count == 4

    def test_truncated_graph_refuses_analysis(self):
        g = build(C((8,)), Model.SSPM, ExplorationLimits(max_vertices=3))
        with pytest.raises(ValueError):
            transient_stats(g)
        with pytest.raises(ValueError):
            lattice_check(g)

    def test_limits_validation(self):
        with pytest.raises(ValueError):
            ExplorationLimits(max_vertices=0)
        with pytest.raises(ValueError):
            ExplorationLimits(max_depth=-1)


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
            root=C((4,)),
            vertices=(C((4,)), C((3, 1)), C((2, 2)), C((2, 1, 1))),
            edges=((0, 1), (1, 2), (2, 3), (3, 0)),
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
            root=C((4,)),
            vertices=(C((4,)), C((3, 1)), C((2, 2)), C((2, 1, 1))),
            edges=((0, 1), (1, 2), (2, 1), (2, 3)),
            depths=(0, 1, 2, 3),
            sink_ids=(3,),
            truncated=False,
        )
        assert g.topo_order is None
        assert verify(g).checks[1] == CheckResult("acyclic", "fail", "cycle detected")
        with pytest.raises(ValueError, match="contains a cycle"):
            transient_stats(g)
        assert not lattice_check(g)

    def test_truncated_graph_skips_reachability_checks(self):
        g = build(C((8,)), Model.SSPM, ExplorationLimits(max_vertices=3))
        rep = verify(g)
        statuses = {c.name: c.status for c in rep.checks}
        assert statuses["energy-decrease"] == "pass"
        assert statuses["acyclic"] == "pass"
        assert statuses["membership"] == "skipped"
        assert statuses["sink-census"] == "skipped"
        assert rep.ok  # skips are not failures

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
            root=r,
            vertices=(r, a, b, x, y, s),
            edges=((0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)),
            depths=(0, 1, 1, 2, 2, 3),
            sink_ids=(5,),
            truncated=False,
        )
        assert not lattice_check(g)


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

    def test_wide_roots(self):
        for cols in [(6, 1, 6), (9, 2), (4, 4, 4)]:
            for model in (Model.SPM, Model.SSPM):
                g = build(C(cols), model)
                census = sink_census(C(cols), model)
                assert census.vertex_count == g.vertex_count
                assert set(census.sinks) == set(sinks(g))

    def test_tall_root_takes_fallback_lane(self):
        census = sink_census(
            C((300,)), Model.SPM, ExplorationLimits(max_depth=2)
        )
        assert census.truncated and census.vertex_count == 3  # (300),(299,1),(298,2)... level sizes 1,1,1

    def test_vertex_cap_truncates(self):
        limits = ExplorationLimits(max_vertices=50)
        census = sink_census(C((30,)), Model.SPM, limits)
        assert census.truncated
        assert census == _census_python((30,), Model.SPM, limits)

    def test_array_lane_matches_python_lane_on_small_roots(self):
        # the visited-set lane relies on the dynamics alone, so agreement
        # on every small root pins down the array lane's canonical-parent
        # rule: no shape emitted twice, none missed
        limits = ExplorationLimits()
        for n in range(1, 15):
            for cols in compositions(n):
                if len(cols) <= 4:
                    want = _census_python(cols, Model.SPM, limits)
                    assert _census_spm_array(cols, limits) == want, cols

    @pytest.mark.parametrize("max_vertices", [1, 50, 1000])
    @pytest.mark.parametrize("max_depth", [None, 0, 3, 40])
    def test_array_lane_matches_python_lane_under_limits(self, max_vertices, max_depth):
        limits = ExplorationLimits(max_vertices=max_vertices, max_depth=max_depth)
        for cols in [(30,), (6, 1, 6), (9, 2), (12, 3, 5, 1)]:
            want = _census_python(cols, Model.SPM, limits)
            assert _census_spm_array(cols, limits) == want, cols

    def test_sspm_array_lane_matches_python_lane_on_small_roots(self):
        # every shape recurs through the sorted key set, never the rows,
        # so agreement here pins down the key, its XOR update, the guard
        # shift and the global dedupe
        limits = ExplorationLimits()
        for n in range(1, 15):
            for cols in compositions(n):
                if len(cols) <= 4:
                    want = _census_python(cols, Model.SSPM, limits)
                    assert _census_sspm_array(cols, limits) == want, cols

    @pytest.mark.parametrize("max_vertices", [1, 50, 1000])
    @pytest.mark.parametrize("max_depth", [None, 0, 3, 40])
    def test_sspm_array_lane_matches_python_lane_under_limits(
        self, max_vertices, max_depth
    ):
        limits = ExplorationLimits(max_vertices=max_vertices, max_depth=max_depth)
        for cols in [(8,), (20,), (6, 1, 6), (9, 2), (12, 3, 5, 1)]:
            want = _census_python(cols, Model.SSPM, limits)
            assert _census_sspm_array(cols, limits) == want, cols

    @pytest.mark.parametrize(
        "limits", [ExplorationLimits(max_vertices=2000), ExplorationLimits(max_depth=5)]
    )
    def test_sspm_lane_gate_is_the_64_bit_key(self, limits, monkeypatch):
        # (64) sets the key's top bit on its first move; (65) would need a
        # 65th bit, so it must take the visited-set lane
        want64 = _census_python((64,), Model.SSPM, limits)
        want65 = _census_python((65,), Model.SSPM, limits)

        def refuse(*args):
            raise AssertionError("wrong census lane")

        with monkeypatch.context() as m:
            m.setattr(orbit, "_census_python", refuse)
            assert sink_census(C((64,)), Model.SSPM, limits) == want64
        with monkeypatch.context() as m:
            m.setattr(orbit, "_census_sspm_array", refuse)
            assert sink_census(C((65,)), Model.SSPM, limits) == want65

    def test_sspm_sinks_are_the_fixed_point_templates(self):
        # the dynamics route and the template route, shape for shape
        for n in range(1, 25):
            assert sink_census(C((n,)), Model.SSPM).sinks == enumerate_fixed_points(n), n

    def test_depth_cap(self):
        census = sink_census(C((8,)), Model.SSPM, ExplorationLimits(max_depth=3))
        assert census.truncated
        full = sink_census(C((8,)), Model.SSPM)
        assert not full.truncated and full.depth > 3


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


def test_energy_decreases_along_every_edge():
    for n, model in [(15, Model.SSPM), (20, Model.SPM)]:
        g = build(C((n,)), model)
        for u, v in g.edges:
            assert energy(g.vertices[u]) > energy(g.vertices[v])
