"""Count-only sweeps: the shapes reachable from a root and its sinks.

``sink_census`` walks the state space that ``orbit.build`` materialises,
without storing edges, for sweeps where only the number of reachable
shapes and the set of sinks matter.  ``orbit._explore``, the one loop of
both explorers, owns the limit and the sinks, and each model's lane is a
generator that yields one vectorised level at a time, which is what
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
with a plain visited-set search on every root of up to 14 grains in up
to 4 columns.)

The sweep stores each shape in these slope coordinates, as the row
(-c_0, d_0 - 2, ..., d_{W-1} - 2) with c_W = 0 and its last column kept
empty: the slopes offset by -2, -c_0 as it is.  Firing column j then adds
one fixed vector to the row, e_j - 2 e_{j+1} + e_{j+2}: the j-th row of
the path Laplacian, with -c_0 standing in for d_{-1}.  A column gains a
grain only from a neighbour at least 2 higher, so no column ever exceeds
the root's tallest, max; and no column inside a shape ever empties, so
every slope lies in [1 - max, max] and every offset slope still fits the
narrowest signed int that holds max.  Rows are int8 up to a column of
127, int16 up to 32767, int32 up to 2^31 - 1 and int64 up to 2^63 - 1,
so every SPM root takes this sweep.  They are kept in the unsigned type
of the same width, where "column j can fire" reads "entry j + 1 is below
the sign bit", and "fires with a drop of exactly 2" reads "entry j + 1 is
below 1".  So the canonical-parent rule is one table of bounds, indexed
by the entry that fired to make the row: 0 (never) for -c_0 and for the
columns left of L - 1, 1 for L - 1 and the sign bit for L and right of
it.  A level is one compare of its rows against the table rows of their
moves and one flat ``nonzero``: a kept child's move indexes the move
table and is the next level's table index.

Sinks are read off the last level alone.  Chip-firing is strongly
convergent (Björner, Lovász & Shor 1991): every maximal firing sequence
from the root has the same length and ends in the same shape.  So the
one sink lies on the deepest level, and a complete level with no kept
move is all sinks: a child of any of its rows would be kept by some row
of it.  There the heights are rebuilt, by a cumulative sum, and every row
is checked once more for a firing the table might have hidden; a row
that can still fire raises a RuntimeError naming the root and the depth.

The SSPM model has no such structure: shapes recur at different depths
there, so its sweep keeps every shape it has seen and dedupes each level
against them.  A shape of n grains is a composition of n, and the mask
of its interior partial sums 0 < S < n is exact and blind to
translation: sum S owns bit (S - 1) % 64 of word (S - 1) // 64 of k =
ceil((n - 1) / 64) uint64 words.  A shape's key is its mask XOR the
root's, so the root's is zero.  A grain crossing the border after column
j changes only that partial sum S_j, by one, so a child's key is its
parent's key XOR flip[t], where t = S_j or S_j - 1 is the lower of the
two sums, and flip[t] holds the bits of sums t and t + 1, none for the
sums 0 and n past either end.  The flip table has n rows of k words, n *
ceil((n - 1) / 64) words in all: 2 MB at 4,096 grains and 12 MB at 10^4.

The rows hold these partial sums too: (0, P_0, ..., P_{W-1}), with P_j
the grains in columns 0..j of W columns whose first and last are kept
empty, in the narrowest signed int that holds n, so every SSPM root
takes this sweep too.  One difference of a row gives its heights and a
second its slopes, the slope across border j standing at P_j, so a
firing's flat index reads both its slope and its t straight from the
level.  Each level computes its children's keys without building a row,
sorts them (as one uint64 when k = 1, as one opaque 8k-byte item
otherwise), drops the keys repeated within the level and then those
already seen, and only then copies the surviving rows and adds the
step, +1 or -1, to the one entry P_j of each.

Both lanes keep a level as one array of rows 2^s entries long, so W =
2^s - 1, starting at the smallest such length that holds the root's row
(at least 8 entries under SPM).  A flat index f into a level, or into
its compare, gives its row as f >> s and its entry, the move under SPM,
as f & W.  The kept-empty columns let every row keep its place until a
child puts a grain in one, and then the rows double, to 2^(s+1)
entries; a grain moves one column a level, so one doubling always
empties the edge again.  Under SPM only firing column W - 2, move W -
1, puts a grain in the last column, so the rows double exactly when the
compare keeps that move in some row; the new entries, the offset slopes
-2 of empty columns, go on the right, and both tables are rebuilt at the
new width.  Under SSPM a grain may reach the first or the last column,
so half the new entries go on each side, copies of the edge entry, 0 or
n.
"""

from __future__ import annotations

from itertools import accumulate, count
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .core import Configuration, Model
from .orbit import MAX_VERTICES, _check_args, _explore

if TYPE_CHECKING:
    import numpy as np


class SinkCensus(NamedTuple):
    """What a count-only sweep reports: how many shapes were reachable,
    which of them were fixed, how deep the sweep went, and whether
    max_vertices cut it short."""

    vertex_count: int
    sinks: tuple[Configuration, ...]
    depth: int
    truncated: bool


def _int_type(peak: int, root: tuple[int, ...]) -> type:
    import numpy as np

    # The narrowest signed integer type that holds -peak..peak.
    for t in (np.int8, np.int16, np.int32, np.int64):
        if peak <= np.iinfo(t).max:
            return t
    raise OverflowError(f"no numpy integer type holds {peak}, as the rows of {root} need")


def _spm_tables(width: int, signed: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    # Both tables are unsigned and indexed by a move p, the row entry of
    # the slope that fired: p = j + 1 fires column j, and p = 0, the -c_0
    # entry, stands for the root, which no firing made.
    #
    # moves[p] fires column p - 1: e_{p-1} - 2 e_p + e_{p+1}, a row of the
    # path Laplacian.  The last column is kept empty and never fires, so
    # the entry cut off from moves[W] is never needed.
    #
    # keep[p, q] is the bound below which entry q of a row made by move p
    # is a kept firing.  Slope entries hold d - 2, so 0 keeps nothing, 1
    # keeps d = 2 only and the sign bit keeps any d >= 2: column q - 1 is
    # kept when it is at least column p - 1, and with a drop of exactly 2
    # when it is just left of it.  Entry 0 never fires.
    p = np.arange(width + 1)[:, None]
    q = np.arange(width + 1)[None]
    moves = (q == p - 1) - 2 * (q == p) + (q == p + 1)
    moves = moves.astype(signed).view(f"u{signed.itemsize}")
    moves[0] = 0
    keep = np.zeros_like(moves)
    keep[q >= p] = 1 << 8 * signed.itemsize - 1
    keep[q == p - 1] = 1
    keep[:, 0] = 0
    return moves, keep


def _spm_levels(cols: tuple[int, ...]) -> Iterator[tuple[list, int]]:
    import numpy as np

    # A row is 2^s >= 8 entries, -c_0 and W = 2^s - 1 offset slopes, with
    # at least one empty column past the root, so a kept compare's flat
    # index splits into its row, flat >> s, and its move, flat & W.  Rows
    # double as shapes reach the edge, so the (W+1, W+1) tables stay as
    # small as the shapes the sweep has met.
    s = max(3, (len(cols) + 1).bit_length())
    width = (1 << s) - 1
    # No column ever exceeds the root's tallest and none inside a shape
    # ever empties, so -c_0 and every offset slope d - 2 lie in
    # [-1 - max(cols), max(cols) - 2], which the signed type of max(cols)
    # holds.  Rows are kept in the unsigned type of that width: sums wrap
    # alike, and the kept-move compare needs no cast.
    signed = np.dtype(_int_type(max(cols), cols))
    dtype = np.dtype(f"u{signed.itemsize}")
    h = np.zeros(width + 2, dtype=signed)
    h[1 : len(cols) + 1] = cols
    a = h[:-1] - h[1:]  # (-c_0, d_0, ..., d_{W-1}), with c_W = 0
    a[1:] -= 2  # the slopes offset, -c_0 as it is
    a = a.view(dtype)[None]
    moves, keep = _spm_tables(width, signed)
    last = np.zeros(1, dtype=np.intp)  # the move that made each row
    for depth in count():
        kept = a < keep.take(last, axis=0)
        flat = kept.ravel().nonzero()[0]
        if not len(flat):
            # Chip-firing is strongly convergent: every maximal firing
            # sequence has the same length, so a sink lies on the last
            # level only, and this level is all sinks.  A row that can
            # still fire would mean the kept-move table hid a child.
            level = a.view(signed).copy()
            level[:, 1:] += 2  # (-c_0, d_0, d_1, ...)
            if (level[:, 1:] >= 2).any():
                raise RuntimeError(
                    f"SPM census of {cols}: a row on the last level, depth {depth}, can still fire"
                )
            # whose partial sums are -c_0, -c_1, ...
            yield [[-int(x) for x in row] for row in level.cumsum(axis=1, dtype=signed)], 0
            return
        yield [], len(flat)
        last = flat & width
        kids = a.take(flat >> s, axis=0)
        kids += moves.take(last, axis=0)
        # Only firing column W - 2, move W - 1, puts a grain in the last
        # column, which the rows keep empty; double the rows so the next
        # level's rightmost slope is still visible.
        if np.count_nonzero(kept[:, -2]):
            kids = np.pad(kids.view(signed), ((0, 0), (0, width + 1)), constant_values=-2).view(dtype)
            s += 1
            width += width + 1
            moves, keep = _spm_tables(width, signed)
        a = kids


def _sspm_key_tables(n: int) -> np.ndarray:
    """The (n, k) flip table of the SSPM keys of n grains, k = max(1,
    ceil((n - 1) / 64)) uint64 words a key."""
    import numpy as np

    # A grain crossing a border moves its partial sum between t and t + 1,
    # which flips the bits of both sums.  Interior sum s owns bit (s - 1)
    # % 64 of word (s - 1) // 64, in rows s - 1 and s; 0 and n own none.
    k = max(1, -(-(n - 1) // 64))
    s = np.arange(1, n)
    word = (s - 1) // 64
    bit = np.left_shift(np.uint64(1), ((s - 1) % 64).astype(np.uint64))
    flip = np.zeros((n, k), dtype=np.uint64)
    flip[s - 1, word] = bit
    flip[s, word] ^= bit
    return flip


def _sspm_levels(cols: tuple[int, ...]) -> Iterator[tuple[list, int]]:
    import numpy as np

    n = sum(cols)
    dtype = _int_type(n, cols)  # holds every height, slope and partial sum
    flip = _sspm_key_tables(n)
    k = flip.shape[1]
    # One key word sorts as itself; wider keys sort as one opaque item,
    # which is a consistent total order, all that dedupe needs.
    kt = np.uint64 if k == 1 else np.dtype((np.void, 8 * k))
    # A row is (0, P_0, ..., P_{W-1}), W = 2^s - 1: a constant 0, then the
    # partial sums of W columns whose first and last are kept empty.
    s = (len(cols) + 2).bit_length()
    width = (1 << s) - 1
    a = np.full((1, width + 1), n, dtype=dtype)
    a[0, : len(cols) + 2] = (0, 0, *accumulate(cols))
    key = np.zeros(k, dtype=np.uint64).view(kt)  # keys are relative to the root
    seen = key  # every key visited so far, sorted
    while True:
        # One difference gives the heights and a second the slopes: d[r, i]
        # is the second difference of row r at entry i, for P_j the slope
        # across border j.  Both run over the level as one flat array, and
        # the two entries per row where it steps from one row to the next,
        # the constant and P_{W-1}, are zeroed.
        x = a.ravel()
        h = x[1:] - x[:-1]
        d = np.empty_like(a)
        np.subtract(h[1:], h[:-1], out=d.ravel()[1:-1])
        d[:, 0] = 0
        d[:, -1] = 0
        flat = (np.abs(d) >= 2).ravel().nonzero()[0]  # flat indices into a
        rows = flat >> s
        # the heights of the level's sinks, margins too; rows is sorted, so
        # a row that cannot move is a gap in it
        found = []
        if np.count_nonzero(rows[1:] != rows[:-1]) + (len(rows) > 0) < len(a):
            stuck = np.ones(len(a), dtype=bool)
            stuck.put(rows, False)
            found = np.diff(a.compress(stuck, axis=0)).tolist()
        if not len(flat):
            yield found, 0
            return
        # A grain crossing border j changes P_j alone, by one: up when it
        # moves left (d > 0), down when it moves right.  So the lower of
        # the two sums is P_j + (step >> 1), step >> 1 being 0 or -1.
        step = np.sign(d.ravel().take(flat))
        t = x.take(flat) + (step >> 1)
        words = key.view(np.uint64).reshape(-1, k)
        kid_key = (words.take(rows, axis=0) ^ flip.take(t, axis=0)).view(kt).ravel()
        # Dedupe the level, then drop the keys already seen; any child of
        # a key will do as its row.  Searching seen for the level's
        # distinct keys only, about a third of its children, is cheaper
        # than one mask over all of them.
        pick = kid_key.argsort()
        kid_key = kid_key.take(pick)
        first = np.concatenate(([True], kid_key[1:] != kid_key[:-1]))
        key = kid_key.compress(first)
        fresh = seen.take(seen.searchsorted(key), mode="clip") != key
        key = key.compress(fresh)
        pick = pick.compress(first).compress(fresh)
        yield found, len(key)
        seen = np.concatenate((seen, key))
        seen.sort(kind="stable")  # a merge of two sorted runs
        flat = flat.take(pick)
        kids = a.take(flat >> s, axis=0)
        cell = (flat & width) + np.arange(0, len(kids) << s, width + 1)
        kids.put(cell, kids.take(cell) + step.take(pick))
        # A child with a grain in the first or the last column doubles the
        # rows, half the new entries on each side: copies of the edge
        # entry, 0 or n.
        if np.count_nonzero(kids[:, 1]) or np.count_nonzero(kids[:, -2] != n):
            half = 1 << s - 1
            kids = kids.take(np.arange(-half, width + 1 + half), axis=1, mode="clip")
            s += 1
            width += width + 1
        a = kids


def sink_census(root: Configuration, model: Model, max_vertices: int = MAX_VERTICES) -> SinkCensus:
    """Count the reachable shapes and collect the sinks, without edges.

    The model's lane yields one level at a time to _explore, which cuts
    by the rule stated at MAX_VERTICES; a cut level's rows are never
    built.  The cap must be a positive plain int; floats, strings and
    bools raise TypeError, and so does a root that is not a
    Configuration.

    A root whose rows need more than 64 bits raises OverflowError, naming
    it, and an SPM row on the last level that can still fire raises
    RuntimeError.  The module docstring derives both sweeps.  Under any
    cap, the shape count, depth, truncation flag and sinks are those of
    build() with the same cap, and those of a plain visited-set search,
    which the tests check on small roots.
    """
    _check_args(root, max_vertices)
    model = Model(model)
    lane = _spm_levels if model is Model.SPM else _sspm_levels
    vertex_count, depth, truncated, found = _explore(lane(root.columns), max_vertices)
    # Configuration trims the empty columns the lanes keep
    return SinkCensus(vertex_count, tuple(sorted(map(Configuration, found))), depth, truncated)
