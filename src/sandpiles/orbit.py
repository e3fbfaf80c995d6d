"""Orbit graphs: breadth-first construction, structural verification,
lattice and transient analysis, and deterministic exports.

Two exploration lanes live here.  ``build`` materialises the full graph
(vertices, edges, depths, sinks) and feeds every analysis below it.  For
sweeps where only the number of reachable shapes and the set of sinks
matter, ``sink_census`` walks the same state space without storing edges;
under either model it runs as a vectorised per-level sweep, which is what
makes exhaustive checks practical (up to a hundred grains under the
rightward-only rule).

The SPM sweep needs no visited table and no dedupe: every shape is
emitted once, by one canonical parent.  Write d_i = c_i - c_{i+1}.  A
rightward move at column i needs d_i >= 2, lowers d_i by 2 and raises
d_{i-1} and d_{i+1} by 1: it is a chip-firing move at vertex i of a path
(Björner, Lovász & Shor 1991).  A shape fixes how often each column has
fired (its firing vector: the grains that crossed each column border), so
every path from the root to a shape makes the same moves in some order,
all such paths have the same length, and a shape appears on one level
only.  Call a column an endpoint of a shape when undoing one of its
firings gives an orbit member from which that firing is legal; the
canonical parent undoes the largest endpoint.  So each row remembers the
column L fired to create it, and firing column i from it is kept only
when L <= i, or when L = i + 1 and the drop at i is exactly 2.  Every
other child has a larger endpoint, found by swapping the two firings: if
L >= i + 2, firing L left d_i alone, so i could fire first and L after
it; if L = i + 1 with d_i >= 3, d_i was at least 2 before L fired, and
firing i first only raises d_L.  When the drop at i is 2, firing L is
what enabled i, so this swap is not available.  (That a kept child has
no endpoint right of i is the other half; the tests compare this sweep
with the visited-set lane on every root of up to 14 grains in up to 4
columns.)

The SSPM model has no such structure: shapes recur at different
depths there, so its sweep keeps every shape it has seen and dedupes each
level against them.  A shape of n grains is a composition of n, and its
key is the 64-bit mask of its interior partial sums 0 < S < n, which is
exact and blind to translation.  A grain crossing the border after column
j changes only that partial sum S_j, by one, so a child's key is its
parent's key XOR bit[S_j] XOR bit[S_j +- 1], with bit[0] = bit[n] = 0 for
the borders past either end.  Each level computes its children's keys
without building a row, sorts them, drops the keys already seen, and only
then copies and moves the surviving rows.  The mask caps this sweep at 64
grains.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from math import isqrt
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .core import Configuration, Model, _fire, energy
from .structure import (
    enumerate_fixed_points,
    lr_splits,
    spm_fixed_point,
    spm_member,
    sspm_member,
    top,
)


@dataclass(frozen=True)
class ExplorationLimits:
    """Guard rails for exploration; hitting one flags the result as
    truncated rather than raising."""

    max_vertices: int = 5_000_000
    max_depth: int | None = None

    def __post_init__(self) -> None:
        if self.max_vertices < 1:
            raise ValueError("max_vertices must be positive")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be non-negative")


@dataclass(frozen=True)
class OrbitGraph:
    """Everything reachable from a root, as an explicit DAG.

    Vertex ids are assigned breadth-first, ties broken lexicographically
    on the height sequence, so two builds of the same orbit agree id for
    id.  Edges are deduplicated per (source, target) shape pair, since
    distinct moves may produce the same shape; the moves behind an edge
    can be recovered from its two endpoint shapes.
    """

    model: Model
    root: Configuration
    vertices: tuple[Configuration, ...]
    edges: tuple[tuple[int, int], ...]
    depths: tuple[int, ...]
    sink_ids: tuple[int, ...]
    truncated: bool

    @cached_property
    def out_lists(self) -> tuple[tuple[int, ...], ...]:
        outs: list[list[int]] = [[] for _ in self.vertices]
        for u, v in self.edges:
            outs[u].append(v)
        return tuple(tuple(t) for t in outs)

    @cached_property
    def topo_order(self) -> tuple[int, ...] | None:
        """The vertex ids in a topological order, or None on a cycle."""
        # Kahn's algorithm.  BFS discovery order is not topological here
        # because an edge may point at a shape discovered earlier on
        # another branch.
        indeg = [0] * self.vertex_count
        for _, v in self.edges:
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


def build(
    root: Configuration,
    model: Model,
    limits: ExplorationLimits | None = None,
) -> OrbitGraph:
    """Explore everything reachable from root and intern it as a graph.

    Exploration is breadth-first with the frontier kept in lexicographic
    order.  Every interned vertex is expanded exactly once, also when a
    limit cuts exploration short; the graph then keeps what was found,
    drops edges into shapes that were never interned, and is flagged
    truncated.
    """
    if limits is None:
        limits = ExplorationLimits()
    root_t = root.columns
    intern: dict[tuple[int, ...], int] = {root_t: 0}
    verts: list[tuple[int, ...]] = [root_t]
    depths: list[int] = [0]
    # children[u] is the set of shapes one move away from verts[u]
    children: list[set[tuple[int, ...]]] = []
    frontier: list[tuple[int, ...]] = [root_t]
    truncated = False
    depth = 0
    while frontier:
        level = [{child for _, _, child in _fire(t, model)} for t in frontier]
        children.extend(level)
        fresh = sorted(set().union(*level) - intern.keys())
        if fresh and limits.max_depth is not None and depth == limits.max_depth:
            truncated = True
            fresh = []
        room = limits.max_vertices - len(verts)
        if len(fresh) > room:
            truncated = True
            fresh = fresh[: max(room, 0)]
        for t in fresh:
            intern[t] = len(verts)
            verts.append(t)
            depths.append(depth + 1)
        frontier = fresh
        depth += 1
    edges = tuple(
        (u, v)
        for u, kids in enumerate(children)
        for v in sorted(intern[t] for t in kids if t in intern)
    )
    return OrbitGraph(
        model=model,
        root=root,
        vertices=tuple(Configuration(t) for t in verts),
        edges=edges,
        depths=tuple(depths),
        sink_ids=tuple(u for u, kids in enumerate(children) if not kids),
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
    shortest = min(g.depths[i] for i in g.sink_ids)
    order = g.topo_order
    if order is None:
        raise ValueError("orbit graph contains a cycle")
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

    The order is u below v iff u is reachable from v.  Requires a unique
    source and a unique sink, then checks every vertex pair for a
    greatest lower and least upper bound via ancestor/descendant bitset
    intersections.  If a pair has a greatest lower bound it must be the
    topologically earliest common descendant, so only that candidate is
    tested (dually for least upper bounds).
    """
    if g.truncated:
        raise ValueError("lattice check needs the complete orbit graph")
    m = g.vertex_count
    if m == 1:
        return True
    indeg = [0] * m
    for _, v in g.edges:
        indeg[v] += 1
    if sum(1 for d in indeg if d == 0) != 1:
        return False
    if len(g.sink_ids) != 1:
        return False
    order = g.topo_order
    if order is None:
        return False
    rank = [0] * m
    for r, u in enumerate(order):
        rank[u] = r
    out_r: list[list[int]] = [[] for _ in range(m)]
    in_r: list[list[int]] = [[] for _ in range(m)]
    for u, v in g.edges:
        out_r[rank[u]].append(rank[v])
        in_r[rank[v]].append(rank[u])
    desc = [0] * m
    for r in range(m - 1, -1, -1):
        acc = 1 << r
        for s in out_r[r]:
            acc |= desc[s]
        desc[r] = acc
    anc = [0] * m
    for r in range(m):
        acc = 1 << r
        for s in in_r[r]:
            acc |= anc[s]
        anc[r] = acc
    for a in range(m):
        da, aa = desc[a], anc[a]
        for b in range(a + 1, m):
            lower = da & desc[b]
            glb = (lower & -lower).bit_length() - 1
            if lower & ~desc[glb]:
                return False
            upper = aa & anc[b]
            lub = upper.bit_length() - 1
            if upper & ~anc[lub]:
                return False
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


def verify(g: OrbitGraph) -> VerificationReport:
    """Run the structural checks a correctly built orbit graph must pass.

    Energy monotonicity and acyclicity are checked on any graph.  The
    reachability-theory checks (membership predicates, top width, sink
    census) only apply to complete graphs grown from a single column, so
    they are reported as skipped on truncated graphs or other roots.
    """
    checks: list[CheckResult] = []

    energies = [energy(v) for v in g.vertices]
    bad_edge = next(((u, v) for u, v in g.edges if energies[u] <= energies[v]), None)
    if bad_edge is None:
        checks.append(CheckResult("energy-decrease", "pass"))
    else:
        u, v = bad_edge
        checks.append(
            CheckResult(
                "energy-decrease",
                "fail",
                f"edge ({g.vertices[u]}) -> ({g.vertices[v]}) does not drop",
            )
        )

    if g.topo_order is None:
        checks.append(CheckResult("acyclic", "fail", "cycle detected"))
    else:
        checks.append(CheckResult("acyclic", "pass"))

    skip = None
    if g.truncated:
        skip = "graph truncated"
    elif g.root.width != 1:
        skip = "membership theory covers single-column roots"
    if skip is not None:
        for name in ("lr-decomposable", "membership", "top-width", "sink-census"):
            checks.append(CheckResult(name, "skipped", skip))
        return VerificationReport(tuple(checks))

    witness = next((v for v in g.vertices if not lr_splits(v)), None)
    checks.append(
        CheckResult("lr-decomposable", "pass")
        if witness is None
        else CheckResult("lr-decomposable", "fail", f"({witness}) has no monotone split")
    )

    member = spm_member if g.model is Model.SPM else sspm_member
    witness = next((v for v in g.vertices if not member(v)), None)
    checks.append(
        CheckResult("membership", "pass")
        if witness is None
        else CheckResult("membership", "fail", f"({witness}) fails the predicate")
    )

    bound = 4 if g.model is Model.SSPM else 2
    witness = next((v for v in g.vertices if top(v).size > bound), None)
    checks.append(
        CheckResult("top-width", "pass")
        if witness is None
        else CheckResult("top-width", "fail", f"({witness}) has top wider than {bound}")
    )

    n = g.root.grains
    got = sorted(sinks(g))
    if g.model is Model.SPM:
        want = [spm_fixed_point(n)]
    else:
        want = sorted(enumerate_fixed_points(n))
    checks.append(
        CheckResult("sink-census", "pass")
        if got == want
        else CheckResult(
            "sink-census",
            "fail",
            f"found {len(got)} sinks, expected {len(want)}",
        )
    )
    return VerificationReport(tuple(checks))


def export(g: OrbitGraph, fmt: str) -> bytes:
    """Serialize the graph, byte-identically across runs.

    JSON carries the field order (model, root, truncated, vertices,
    edges, sinks) with vertices as height lists in id order.  DOT names
    nodes by their comma-joined heights.
    """
    kind = fmt.strip().lower()
    if kind == "json":
        doc = {
            "model": g.model.name,
            "root": list(g.root.columns),
            "truncated": g.truncated,
            "vertices": [list(v.columns) for v in g.vertices],
            "edges": [list(e) for e in g.edges],
            "sinks": list(g.sink_ids),
        }
        return json.dumps(doc, separators=(",", ":")).encode("ascii")
    if kind == "dot":
        names = [f'"{v}"' for v in g.vertices]
        lines = ["digraph og {"]
        lines.extend(f"  {name};" for name in names)
        lines.extend(f"  {names[u]} -> {names[v]};" for u, v in g.edges)
        lines.append("}")
        return ("\n".join(lines) + "\n").encode("ascii")
    raise ValueError(f"unsupported export format: {fmt!r}")


class SinkCensus(NamedTuple):
    """What a count-only sweep reports: how many shapes were reachable,
    which of them were fixed, how deep the sweep went, and whether a
    limit cut it short."""

    vertex_count: int
    sinks: tuple[Configuration, ...]
    depth: int
    truncated: bool


def _width_cap(n: int) -> int:
    # Widest reachable shape on n grains: the cheapest admissible shape
    # of width w is the staircase w-1, w-2, ..., 1 with the bottom step
    # doubled, holding (w-1)w/2 + 1 grains.
    if n <= 1:
        return 1
    m = (isqrt(8 * (n - 1) + 1) - 1) // 2
    return m + 1


def _census_spm_array(cols: tuple[int, ...], limits: ExplorationLimits) -> SinkCensus:
    n = sum(cols)
    width = max(len(cols), _width_cap(n)) + 1
    width += (-width) % 8
    a = np.zeros((1, width), dtype=np.uint8)
    a[0, : len(cols)] = cols
    last = np.array([-1])  # the column fired to create each row
    vertex_count = 0
    depth = 0
    truncated = False
    found: list[tuple[int, ...]] = []
    while True:
        vertex_count += len(a)
        diff = a[:, :-1].astype(np.int16)
        diff -= a[:, 1:]
        fire = diff >= 2
        movable = fire.any(axis=1)
        if not movable.all():
            for row in a[~movable]:
                found.append(tuple(int(x) for x in row if x))
        # Keep the children whose canonical parent is this row: column
        # i >= last, or i == last - 1 with a drop of exactly 2.
        col = np.arange(diff.shape[1], dtype=np.int16)
        fire &= col + (diff == 2) >= last[:, None]
        rows, last = np.nonzero(fire)
        kids = a[rows]
        lane = np.arange(len(rows))
        kids[lane, last] -= 1
        kids[lane, last + 1] += 1
        if not len(kids):
            break
        if kids[:, -1].any():
            # A shape reached the padded edge; widen so the next level's
            # rightmost slope is still visible.
            kids = np.pad(kids, ((0, 0), (0, 8)))
        if limits.max_depth is not None and depth == limits.max_depth:
            truncated = True
            break
        if vertex_count + len(kids) > limits.max_vertices:
            truncated = True
            break
        a = kids
        depth += 1
    return SinkCensus(
        vertex_count,
        tuple(Configuration(t) for t in sorted(found)),
        depth,
        truncated,
    )


def _census_sspm_array(cols: tuple[int, ...], limits: ExplorationLimits) -> SinkCensus:
    n = sum(cols)
    # bit[s] stands for an interior partial sum 0 < s < n; a shape's key
    # is the OR of bit[s] over all its column borders, so the borders past
    # either end (sums 0 and n) must add nothing.
    bit = np.zeros(n + 1, dtype=np.uint64)
    bit[1:n] = np.left_shift(np.uint64(1), np.arange(1, n, dtype=np.uint64))
    width = len(cols) + 2
    width += (-width) % 8
    # Rows hold heights left-aligned behind one zero guard column; int8
    # holds every height, slope and partial sum of at most 64 grains.
    a = np.zeros((1, width), dtype=np.int8)
    a[0, 1 : len(cols) + 1] = cols
    key = np.bitwise_or.reduce(bit[np.cumsum(a[0])], keepdims=True)
    seen = key  # every key visited so far, sorted
    depth = 0
    truncated = False
    found: list[tuple[int, ...]] = []
    while True:
        d = a[:, 1:] - a[:, :-1]  # d[:, j] is the slope across border j
        fire = np.abs(d) >= 2
        movable = fire.any(axis=1)
        if not movable.all():
            for row in a[~movable]:
                found.append(tuple(int(x) for x in row if x))
        flat = np.flatnonzero(fire)
        if not len(flat):
            break
        # A grain crossing border j moves the partial sum s there by one:
        # up when it moves left (d > 0), down when it moves right.
        step = np.sign(d.ravel()[flat])
        s = np.cumsum(a[:, :-1], axis=1, dtype=np.int8).ravel()[flat]
        kid_key = key[flat // (width - 1)] ^ bit[s] ^ bit[s + step]
        # Dedupe the level; any child of a key will do as its row.
        pick = np.argsort(kid_key)
        kid_key = kid_key[pick]
        first = np.concatenate(([True], kid_key[1:] != kid_key[:-1]))
        key, pick = kid_key[first], pick[first]
        at = np.minimum(np.searchsorted(seen, key), len(seen) - 1)
        fresh = seen[at] != key
        key, pick = key[fresh], pick[fresh]
        if not len(key):
            break
        if limits.max_depth is not None and depth == limits.max_depth:
            truncated = True
            break
        if len(seen) + len(key) > limits.max_vertices:
            truncated = True
            break
        seen = np.concatenate((seen, key))
        seen.sort(kind="stable")  # a merge of two sorted runs
        rows, j = np.divmod(flat[pick], width - 1)
        step = step[pick]
        kids = a[rows]
        cell = np.arange(len(rows)) * width + j
        flat_kids = kids.ravel()
        flat_kids[cell] += step
        flat_kids[cell + 1] -= step
        guard = np.flatnonzero(j == 0)
        if len(guard):
            # A grain landed on the guard column; move the row right.
            kids[guard, 1:] = kids[guard, :-1]
            kids[guard, 0] = 0
        if kids[:, -1].any():
            # Keep an empty last column so every right edge can fire.
            kids = np.pad(kids, ((0, 0), (0, 8)))
            width += 8
        a = kids
        depth += 1
    return SinkCensus(
        len(seen),
        tuple(Configuration(t) for t in sorted(found)),
        depth,
        truncated,
    )


def _census_python(
    cols: tuple[int, ...], model: Model, limits: ExplorationLimits
) -> SinkCensus:
    visited = {cols}
    frontier: set[tuple[int, ...]] = {cols}
    depth = 0
    truncated = False
    found: list[tuple[int, ...]] = []
    while True:
        nxt: set[tuple[int, ...]] = set()
        for t in frontier:
            kids = _fire(t, model)
            if not kids:
                found.append(t)
            nxt.update(map(itemgetter(2), kids))
        nxt -= visited
        if not nxt:
            break
        if limits.max_depth is not None and depth == limits.max_depth:
            truncated = True
            break
        if len(visited) + len(nxt) > limits.max_vertices:
            truncated = True
            break
        visited |= nxt
        frontier = nxt
        depth += 1
    return SinkCensus(
        len(visited),
        tuple(Configuration(t) for t in sorted(found)),
        depth,
        truncated,
    )


def sink_census(
    root: Configuration,
    model: Model,
    limits: ExplorationLimits | None = None,
) -> SinkCensus:
    """Count the reachable shapes and collect the sinks, without edges.

    Three lanes, picked by the model and the root alone:

    * rightward-only roots with heights under 256 go through the SPM
      array sweep, which emits each shape once, from its canonical
      parent, and so never sorts or dedupes a level;
    * symmetric roots of at most 64 grains go through the SSPM array
      sweep, which keys each shape by a 64-bit mask of its partial sums
      and dedupes every level against all keys seen so far;
    * everything else walks a plain visited-set frontier, which relies on
      the dynamics alone and is the oracle both array sweeps are tested
      against.

    The module docstring describes both sweeps.  Results agree with
    build() wherever both fit in memory, which the test suite pins down
    on small cases.
    """
    if limits is None:
        limits = ExplorationLimits()
    if model is Model.SPM and max(root.columns) <= 255:
        return _census_spm_array(root.columns, limits)
    if model is Model.SSPM and root.grains <= 64:
        return _census_sspm_array(root.columns, limits)
    return _census_python(root.columns, model, limits)
