"""Orbit graphs: breadth-first construction, structural verification,
lattice and transient analysis, and deterministic exports.

``build`` materialises the full graph (vertices, edges, depths, sinks)
and feeds every analysis below it.  The count-only sweep, which walks
the same state space without storing edges, lives in ``census.py``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from typing import Iterator, NamedTuple

from .core import Configuration, Model, _fire, energy
from .structure import (
    enumerate_fixed_points,
    lr_splits,
    spm_fixed_point,
    spm_member,
    sspm_member,
    top,
)


# The one exploration limit.  _explore, the one loop of build and
# sink_census, reads a lane that yields a pair a level: the heights of the
# level's sinks and the size of the next level, 0 when there is none.  It
# counts the root, then takes each level's new shapes whole or not at all:
# a level that would bring the count past the cap is dropped, the lane is
# not resumed and the result is flagged truncated.
MAX_VERTICES = 5_000_000


def _check_args(root: Configuration, max_vertices: int) -> None:
    # What build and sink_census take: a Configuration and a positive
    # plain int cap.
    if not isinstance(root, Configuration):
        raise TypeError(f"root must be a Configuration, got {root!r}")
    if type(max_vertices) is not int:
        raise TypeError(f"max_vertices must be int, got {max_vertices!r}")
    if max_vertices < 1:
        raise ValueError("max_vertices must be positive")


def _explore(levels: Iterator[tuple], max_vertices: int) -> tuple[int, int, bool, list]:
    vertex_count, depth, truncated = 1, 0, False
    found: list = []
    for level_sinks, size in levels:
        found += level_sinks
        if not size:
            break
        if vertex_count + size > max_vertices:
            truncated = True
            break
        vertex_count += size
        depth += 1
    return vertex_count, depth, truncated, found


@dataclass(frozen=True)
class OrbitGraph:
    """Everything reachable from a root, as an explicit DAG.

    Vertex ids are assigned breadth-first, ties broken lexicographically
    on the height sequence, so two builds of the same orbit agree id for
    id; the root is vertex 0.  out_lists[u] lists u's children by id,
    increasing, each once even where two moves make the same shape (the
    moves behind an edge follow from its endpoints), and edges views them
    as (source, target) pairs in increasing order.  The other views, each
    computed once: energies and labels hold one value per vertex, and
    topo_order sorts the ids by falling energy when every edge drops,
    falling back to Kahn's algorithm otherwise.  A model given by its
    value is stored as the Model member.
    """

    model: Model
    vertices: tuple[Configuration, ...]
    out_lists: tuple[tuple[int, ...], ...]
    depths: tuple[int, ...]
    sink_ids: tuple[int, ...]
    truncated: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "model", Model(self.model))

    @property
    def root(self) -> Configuration:
        return self.vertices[0]

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple([(u, v) for u, outs in enumerate(self.out_lists) for v in outs])

    @cached_property
    def energies(self) -> tuple[int, ...]:
        """Each vertex's energy, in id order."""
        return tuple(map(energy, self.vertices))

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """Each vertex's comma-joined heights, in id order, as both
        exports print them."""
        # one compact encode of every height list, the strings str() gives,
        # cut apart at the brackets between them
        text = json.dumps([v.columns for v in self.vertices], separators=(",", ":"))
        return tuple(text[2:-2].split("],["))

    @cached_property
    def _rising_edge(self) -> tuple[int, int] | None:
        # The first edge, in (source, target) order, whose energy does not
        # drop, or None when every edge drops.
        e = self.energies
        return next(
            ((u, v) for u, outs in enumerate(self.out_lists) for v in outs if e[u] <= e[v]),
            None,
        )

    @cached_property
    def topo_order(self) -> tuple[int, ...] | None:
        """The vertex ids in a topological order, or None on a cycle."""
        if self._rising_edge is None:
            # Every edge drops in energy, so falling energy is an order,
            # and vertices of equal energy have no edge between them.
            e = self.energies
            return tuple(sorted(range(self.vertex_count), key=e.__getitem__, reverse=True))
        # Kahn's algorithm.  BFS discovery order is not topological here
        # because an edge may point at a shape discovered earlier on
        # another branch.
        indeg = [0] * self.vertex_count
        for v in chain.from_iterable(self.out_lists):
            indeg[v] += 1
        ready = [i for i in range(self.vertex_count) if indeg[i] == 0]
        order: list[int] = []
        while ready:
            u = ready.pop()
            order.append(u)
            for v in self.out_lists[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    ready.append(v)
        if len(order) != self.vertex_count:
            return None
        return tuple(order)

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)


def build(root: Configuration, model: Model, max_vertices: int = MAX_VERTICES) -> OrbitGraph:
    """Explore everything reachable from root and intern it as a graph.

    Exploration is breadth-first with the frontier kept in lexicographic
    order.  Under max_vertices the graph keeps the levels that fit, by
    the rule stated at MAX_VERTICES, and is flagged truncated; every
    vertex it keeps was expanded.  A vertex is a sink when it has no move
    at all, judged before any cut, and edges go only into kept vertices.
    The cap must be a positive plain int; floats, strings and bools raise
    TypeError, and so does a root that is not a Configuration.
    """
    _check_args(root, max_vertices)
    model = Model(model)
    # a shape's id is its place in intern, whose keys are the vertices, and
    # in outs, since the shapes are expanded once each, in id order; the
    # lane interns a level before _explore judges it, so each child is
    # looked up once
    intern: dict[tuple[int, ...], int] = {root.columns: 0}
    depths: list[int] = [0]
    outs: list[tuple[int, ...]] = []

    def lane() -> Iterator[tuple]:
        frontier = [root.columns]
        while frontier:
            level = [_fire(t, model)[1] for t in frontier]
            fresh = sorted(set(chain.from_iterable(level)).difference(intern))
            intern.update(zip(fresh, range(len(intern), len(intern) + len(fresh))))
            depths.extend([depths[-1] + 1] * len(fresh))
            for kids in level:
                outs.append(tuple(sorted(set(map(intern.__getitem__, kids)))))
            yield (), len(fresh)
            frontier = fresh

    vertex_count, _, truncated, _ = _explore(lane(), max_vertices)
    # read before the trim: every child was interned, so no child means no move
    sink_ids = tuple([u for u, kids in enumerate(outs) if not kids])
    if truncated:
        outs = [tuple([v for v in kids if v < vertex_count]) for kids in outs]
    return OrbitGraph(
        model=model,
        # the root's columns passed the checks, and _fire's children are
        # trimmed positive ints (see Configuration._trusted)
        vertices=tuple(map(Configuration._trusted, islice(intern, vertex_count))),
        out_lists=tuple(outs),
        depths=tuple(depths[:vertex_count]),
        sink_ids=sink_ids,
        truncated=truncated,
    )


def sinks(g: OrbitGraph) -> tuple[Configuration, ...]:
    """The fixed points the exploration reached, in vertex-id order."""
    return tuple(g.vertices[i] for i in g.sink_ids)


class TransientStats(NamedTuple):
    shortest: int
    longest: int


def transient_stats(g: OrbitGraph) -> TransientStats:
    """Shortest and longest root-to-sink path lengths over the DAG."""
    if g.truncated:
        raise ValueError("transient statistics need the complete orbit graph")
    order = g.topo_order
    if order is None:
        raise ValueError("orbit graph contains a cycle")
    shortest = min(g.depths[i] for i in g.sink_ids)
    longest_to = [0] * g.vertex_count
    for u in order:
        du = longest_to[u]
        for v in g.out_lists[u]:
            if du + 1 > longest_to[v]:
                longest_to[v] = du + 1
    longest = max(longest_to[i] for i in g.sink_ids)
    return TransientStats(shortest, longest)


def lattice_check(g: OrbitGraph) -> bool:
    """Decide whether reachability turns the vertex set into a lattice.

    The order is u below v iff u is reachable from v.  Requires an
    acyclic graph with a unique source and a unique sink, then checks
    every incomparable vertex pair for a greatest lower bound via
    descendant bitset intersections; a comparable pair's lower element
    is its meet.  The unique sink lies below every vertex, so each pair
    has a common descendant; if the pair has a greatest lower bound it
    must be the topologically earliest of them, so only that candidate
    is tested.  Joins need no test: a finite poset with a greatest element
    (here the unique source) in which every pair has a meet is a lattice,
    because the join of a and b is the meet of their common upper bounds,
    a set that holds the greatest element and so is never empty.
    """
    if g.truncated:
        raise ValueError("lattice check needs the complete orbit graph")
    m = g.vertex_count
    if m == 1:
        return True
    if len(g.sink_ids) != 1:
        return False
    order = g.topo_order
    if order is None:
        return False
    rank = [0] * m
    for r, u in enumerate(order):
        rank[u] = r
    outs = g.out_lists
    desc = [0] * m
    for r in range(m - 1, -1, -1):
        acc = 1 << r
        for v in outs[order[r]]:
            acc |= desc[rank[v]]
        desc[r] = acc
    # Rank 0 is a source, and every vertex of a DAG descends from some
    # source, so it is the only one exactly when everything descends
    # from it.
    full = (1 << m) - 1
    if desc[0] != full:
        return False
    # A pair where b lies below a has b as its meet, so only the later
    # ranks that are not below a are tested, one low bit at a time.
    for a, da in enumerate(desc):
        rest = full >> a + 1 << a + 1 & ~da
        while rest:
            low = rest & -rest
            lower = da & desc[low.bit_length() - 1]
            glb = (lower & -lower).bit_length() - 1
            if lower & ~desc[glb]:
                return False
            rest ^= low
    return True


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass", "fail" or "skipped"
    detail: str = ""

    def __str__(self) -> str:
        tail = f" ({self.detail})" if self.detail else ""
        return f"{self.name}: {self.status}{tail}"


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def __str__(self) -> str:
        return "\n".join(str(c) for c in self.checks)


def _judged(name: str, failure: str | None) -> CheckResult:
    return CheckResult(name, "fail", failure) if failure else CheckResult(name, "pass")


def _named(g: OrbitGraph, i: int) -> str:
    # A failing check's witness by its id, shape and depth.
    return f"vertex {i} ({g.vertices[i]}) at depth {g.depths[i]}"


def verify(g: OrbitGraph) -> VerificationReport:
    """Run the structural checks a correctly built orbit graph must pass.

    Energy monotonicity and acyclicity are checked on any graph.  The
    reachability-theory checks (membership predicates, top width, sink
    census) only apply to complete graphs grown from a single column, so
    they are reported as skipped on truncated graphs or other roots.
    Under SPM a last check, convergence, asks a complete acyclic graph
    grown from any root for one sink and for transients of one length.
    The energy and shape checks name their first failing vertex by id,
    shape and depth, and convergence lists the sink ids when it finds
    more than one.
    """
    rise = None
    if g._rising_edge is not None:
        u, v = g._rising_edge
        rise = f"edge from {_named(g, u)} to {_named(g, v)} does not drop"
    checks = [
        _judged("energy-decrease", rise),
        _judged("acyclic", "cycle detected" if g.topo_order is None else None),
        *_theory_checks(g),
    ]
    if g.model is Model.SPM:
        checks.append(_convergence(g))
    return VerificationReport(tuple(checks))


def _theory_checks(g: OrbitGraph) -> list[CheckResult]:
    skip = None
    if g.truncated:
        skip = "graph truncated"
    elif g.root.width != 1:
        skip = "membership theory covers single-column roots"
    if skip is not None:
        return [
            CheckResult(name, "skipped", skip)
            for name in ("lr-decomposable", "membership", "top-width", "sink-census")
        ]

    # Both predicates are one search for a crazed monotone split, which
    # spm_member asks to cut at t = 0, so a member has a split and a top
    # at most bound wide: each zone of a crazed split is monotone with no
    # height three times in a row, so at most two of its columns, next to
    # the cut, reach the maximum.  So a vertex without a split, or with a
    # wider top, fails membership, and the first such vertex in failed is
    # the first in id order.
    member = spm_member if g.model is Model.SPM else sspm_member
    bound = 4 if g.model is Model.SSPM else 2
    failed = [v for v in g.vertices if not member(v)]
    at = g.vertices.index  # a witness's id, looked up once its check has failed
    splitless = (f"{_named(g, at(v))} has no monotone split" for v in failed if not lr_splits(v))
    wide = (f"{_named(g, at(v))} has top wider than {bound}" for v in failed if top(v).size > bound)
    n = g.root.grains
    got = sorted(sinks(g))
    want = [spm_fixed_point(n)] if g.model is Model.SPM else list(enumerate_fixed_points(n))
    missing = next((f"({v}) missing" for v in want if v not in got), None)
    unexpected = next((f"({v}) unexpected" for v in got if v not in want), None)
    witnesses = ", ".join(filter(None, (missing, unexpected)))
    return [
        _judged("lr-decomposable", next(splitless, None)),
        _judged(
            "membership", f"{_named(g, at(failed[0]))} fails the predicate" if failed else None
        ),
        _judged("top-width", next(wide, None)),
        _judged(
            "sink-census",
            f"found {len(got)} sinks, expected {len(want)}: {witnesses}" if got != want else None,
        ),
    ]


def _convergence(g: OrbitGraph) -> CheckResult:
    # Chip-firing is strongly convergent (Björner, Lovász & Shor 1991):
    # every maximal SPM run from a root ends in the same shape after the
    # same number of moves, so a complete graph has one sink, and its
    # shortest and longest transients are equal.
    if g.truncated:
        return CheckResult("convergence", "skipped", "graph truncated")
    if g.topo_order is None:
        return CheckResult("convergence", "skipped", "cycle detected")
    if len(g.sink_ids) != 1:
        ids = f": vertices {', '.join(map(str, g.sink_ids))}" if g.sink_ids else ""
        return _judged("convergence", f"found {len(g.sink_ids)} sinks, expected 1{ids}")
    shortest, longest = transient_stats(g)
    unequal = f"transients of {shortest} and {longest} moves" if shortest != longest else None
    return _judged("convergence", unequal)


def export(g: OrbitGraph, fmt: str) -> bytes:
    """Serialize the graph, byte-identically across runs.

    JSON carries the field order (model, root, truncated, vertices,
    edges, sinks) with vertices as height lists in id order.  DOT names
    nodes by their comma-joined heights.
    """
    if fmt == "json":
        # json.dumps(doc, separators=(",", ":")) of the document, written
        # out: a label is a vertex's height list without its brackets, and
        # there is always a vertex, the root
        labels = g.labels
        vertices = "],[".join(labels)
        edges = ",".join([f"[{u},{v}]" for u, v in g.edges])
        sink_ids = ",".join(map(str, g.sink_ids))
        return (
            f'{{"model":"{g.model.name}","root":[{labels[0]}],'
            f'"truncated":{"true" if g.truncated else "false"},'
            f'"vertices":[[{vertices}]],"edges":[{edges}],"sinks":[{sink_ids}]}}'
        ).encode("ascii")
    if fmt == "dot":
        names = [f'"{s}"' for s in g.labels]
        lines = ["digraph og {"]
        lines += [f"  {name};" for name in names]
        lines += [f"  {names[u]} -> {names[v]};" for u, v in g.edges]
        lines.append("}")
        return ("\n".join(lines) + "\n").encode("ascii")
    raise ValueError(f"unsupported export format: {fmt!r}")
