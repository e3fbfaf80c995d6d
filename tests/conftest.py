"""Shared oracles for the test suite.

Everything here is deliberately written from the rule definitions with
different mechanics than the package (list surgery with explicit padding
instead of tuple splicing, pair positions instead of run scanning,
counting recurrences instead of a sweep, a left-to-right reader instead
of scans from both ends), so agreement between the two routes actually
means something.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator


def naive_successors(cols: tuple[int, ...], model: str) -> set[tuple[int, ...]]:
    """One-step images straight from the slope definitions."""

    k = len(cols)

    def shift(src: int, dst: int) -> tuple[int, ...]:
        work = [0] + list(cols) + [0]
        work[src + 1] -= 1
        work[dst + 1] += 1
        while work and work[0] == 0:
            work.pop(0)
        while work and work[-1] == 0:
            work.pop()
        return tuple(work)

    out: set[tuple[int, ...]] = set()
    for i in range(k):
        right = cols[i + 1] if i + 1 < k else 0
        if cols[i] - right >= 2:
            out.add(shift(i, i + 1))
        if model == "sspm":
            left = cols[i - 1] if i >= 1 else 0
            if cols[i] - left >= 2:
                out.add(shift(i, i - 1))
    return out


def naive_orbit(
    root: tuple[int, ...], model: str
) -> tuple[set[tuple[int, ...]], set[tuple[tuple[int, ...], tuple[int, ...]]], set[tuple[int, ...]]]:
    """Plain BFS over naive_successors: (vertices, edges, sinks)."""
    seen = {root}
    frontier = [root]
    edges: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    while frontier:
        nxt = []
        for c in frontier:
            for d in naive_successors(c, model):
                edges.add((c, d))
                if d not in seen:
                    seen.add(d)
                    nxt.append(d)
        frontier = nxt
    dead = {c for c in seen if not naive_successors(c, model)}
    return seen, edges, dead


def naive_census(
    cols: tuple[int, ...], model: str, max_vertices: int
) -> tuple[int, tuple[tuple[int, ...], ...], int, bool]:
    """Plain level-by-level BFS over naive_successors, read as a sink
    census: (shapes counted, sinks in sorted order, depth, truncated).

    Every shape of a level is expanded and its sinks collected.  The
    level's new shapes are then counted only if they all fit under the
    vertex limit; otherwise the census stops there, truncated.  Depth
    counts the levels counted after the root's.
    """
    seen = {cols}
    level = {cols}
    dead: list[tuple[int, ...]] = []
    depth = 0
    truncated = False
    while True:
        new: set[tuple[int, ...]] = set()
        for c in level:
            kids = naive_successors(c, model)
            if not kids:
                dead.append(c)
            new.update(kids - seen)
        if not new:
            break
        if len(seen) + len(new) > max_vertices:
            truncated = True
            break
        seen |= new
        level = new
        depth += 1
    return len(seen), tuple(sorted(dead)), depth, truncated


def naive_build(cols: tuple[int, ...], model: str, max_vertices: int) -> tuple[
    tuple[tuple[int, ...], ...],
    tuple[tuple[int, int], ...],
    tuple[int, ...],
    tuple[int, ...],
    bool,
]:
    """The orbit graph a capped breadth-first build should report:
    (vertices in id order, edges, depths, sink ids, truncated).

    First the kept shapes are chosen, level by level: each level's new
    shapes are kept, in lexicographic order, only if they all fit under
    the vertex limit, and every kept shape is expanded.  Only
    then are sinks and edges read off the kept shapes from the rule
    itself: a kept shape with no successor at all is a sink, wherever its
    successors went, and an edge joins two kept shapes one move apart.
    """
    order = [cols]
    depth_of = {cols: 0}
    level = [cols]
    truncated = False
    while level:
        depth = depth_of[level[0]]
        new = sorted({d for c in level for d in naive_successors(c, model)} - set(depth_of))
        if len(order) + len(new) > max_vertices:
            truncated = True
            new = []
        for d in new:
            depth_of[d] = depth + 1
            order.append(d)
        level = new
    ids = {c: i for i, c in enumerate(order)}
    edges = sorted(
        (ids[c], ids[d]) for c in order for d in naive_successors(c, model) if d in ids
    )
    sink_ids = tuple(i for i, c in enumerate(order) if not naive_successors(c, model))
    depths = tuple(depth_of[c] for c in order)
    return tuple(order), tuple(edges), depths, sink_ids, truncated


def naive_crazed(cols: tuple[int, ...]) -> bool:
    """Plateau discipline by pair positions: every two consecutive equal
    pairs need a jump of at least 2 strictly between them."""
    pairs = [i for i in range(len(cols) - 1) if cols[i] == cols[i + 1]]
    jumps = {i for i in range(len(cols) - 1) if abs(cols[i] - cols[i + 1]) >= 2}
    for p, q in zip(pairs, pairs[1:]):
        if not any(p < j < q for j in jumps):
            return False
    return True


def compositions(n: int) -> Iterator[tuple[int, ...]]:
    """All ordered sequences of positive integers summing to n, via the
    cut-position encoding (2^(n-1) of them)."""
    for mask in range(1 << (n - 1)):
        parts = []
        run = 1
        for i in range(n - 1):
            if mask >> i & 1:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        yield tuple(parts)


def spm_staircase(n: int) -> tuple[int, ...]:
    """The rightward rule's stable shape on n grains, from n = p(p+1)/2 + q
    with 0 <= q <= p: heights p down to 1, height q laid twice."""
    p = 0
    while (p + 1) * (p + 2) // 2 <= n:
        p += 1
    q = n - p * (p + 1) // 2
    heights: list[int] = []
    for h in range(p, 0, -1):
        heights.extend([h, h] if h == q else [h])
    return tuple(heights)


def spm_firing_vector(cols: tuple[int, ...]) -> tuple[int, ...]:
    """The grains right of each border j = 1..n-1 of a shape of n grains,
    border j lying between columns j and j+1.  Under the rightward rule
    from (n), that is how many grains crossed border j, since column 1
    never empties."""
    n = sum(cols)
    padded = list(cols) + [0] * (n - len(cols))
    return tuple(sum(padded[j:]) for j in range(1, n))


def spm_firing_length(n: int) -> int:
    """How many moves every maximal rightward run from (n) makes: each
    grain right of a border of spm_staircase(n) crossed it once."""
    return sum(spm_firing_vector(spm_staircase(n)))


@lru_cache(maxsize=None)
def _extensions(rem: int, h: int, run: int, cliff_clear: bool) -> int:
    # Count the non-increasing crazed tails that can follow a column of
    # height h holding `rem` more grains.  `run` is the current equal
    # run length, `cliff_clear` whether a plateau may start here.
    if rem == 0:
        return 1
    total = 0
    if run == 1 and cliff_clear and h <= rem:
        total += _extensions(rem - h, h, 2, False)
    for h2 in range(min(h - 1, rem), 0, -1):
        total += _extensions(rem - h2, h2, 1, cliff_clear or (h - h2 >= 2))
    return total


def spm_orbit_size(n: int) -> int:
    """How many shapes the rightward-only rule can reach from (n): counts
    non-increasing crazed shapes of n grains by a recurrence, with no
    dynamics involved."""
    return sum(_extensions(n - h, h, 1, True) for h in range(1, n + 1))


# The symmetric rules reach exactly the shapes that read, left to right,
# as a non-decreasing crazed zone and then a non-increasing crazed one;
# the pair across the cut belongs to neither zone.  A reader of such a
# shape is in one of four states: a zone, and whether that zone may
# still take a plateau (none since its last cliff).  Since the cut may
# fall anywhere, the recurrence carries the set of states some cut
# leaves alive, as bits.
LEFT_ARMED, LEFT_SPENT, RIGHT_ARMED, RIGHT_SPENT = 1, 2, 4, 8
FIRST_COLUMN = LEFT_ARMED | RIGHT_ARMED  # the cut after it, or before it


def _sspm_step(states: int, h: int, h2: int) -> int:
    # The states alive once a column of height h2 follows one of height h.
    out = RIGHT_ARMED if states & (LEFT_ARMED | LEFT_SPENT) else 0  # cut between
    for armed, spent, monotone in (
        (LEFT_ARMED, LEFT_SPENT, h <= h2),
        (RIGHT_ARMED, RIGHT_SPENT, h >= h2),
    ):
        live = states & (armed | spent)
        if not (monotone and live):
            continue
        if h == h2:
            if states & armed:
                out |= spent
        elif abs(h - h2) >= 2:
            out |= armed
        else:
            out |= live
    return out


@lru_cache(maxsize=None)
def _sspm_tails(rem: int, h: int, states: int, flat: bool) -> int:
    # Count the tails holding `rem` more grains that can follow a column
    # of height h, read in the (non-empty) set `states`, and leave some
    # state alive.  `flat` allows only steps of at most 1 and an end at
    # height 1.  Each zone is monotone with no height three times, so a
    # live shape has O(sqrt(n)) columns and the recursion stays shallow.
    total = int(rem == 0 and (not flat or h == 1))
    heights = range(max(1, h - 1), min(h + 1, rem) + 1) if flat else range(1, rem + 1)
    for h2 in heights:
        alive = _sspm_step(states, h, h2)
        if alive:
            total += _sspm_tails(rem - h2, h2, alive, flat)
    return total


def sspm_orbit_size(n: int) -> int:
    """How many shapes the symmetric rules can reach from (n): counts the
    shapes of n grains with a crazed monotone split by a recurrence over
    (grains left, last height, live states), with no dynamics involved."""
    return sum(_sspm_tails(n - h, h, FIRST_COLUMN, False) for h in range(1, n + 1))


def sspm_stable_count(n: int) -> int:
    """How many of those shapes are stable under the symmetric rules: the
    same recurrence over shapes that start and end at height 1 and step
    by at most 1, so that no column can shed a grain either way."""
    return _sspm_tails(n - 1, 1, FIRST_COLUMN, True)


def naive_is_lattice(m: int, edges) -> bool:
    """Whether vertices 0..m-1, ordered by u <= v iff u is reachable from
    v, form a lattice: reachability sets by depth-first search, then every
    pair tested for a meet and a join straight from the definitions."""
    outs: list[list[int]] = [[] for _ in range(m)]
    for u, v in edges:
        outs[u].append(v)
    below = []
    for u in range(m):
        seen = {u}
        stack = [u]
        while stack:
            for v in outs[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        below.append(seen)
    above = [{v for v in range(m) if u in below[v]} for u in range(m)]
    # a cycle puts two distinct vertices below each other: not a poset
    if any(v != u and u in below[v] for u in range(m) for v in below[u]):
        return False

    def has_bound(common: set[int], bounds: list[set[int]]) -> bool:
        # some common bound c that every other common bound lies beyond
        return any(all(x in bounds[c] for x in common) for c in common)

    for a in range(m):
        for b in range(a + 1, m):
            if not has_bound(below[a] & below[b], below):
                return False  # no greatest lower bound
            if not has_bound(above[a] & above[b], above):
                return False  # no least upper bound
    return True
