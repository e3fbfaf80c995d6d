"""Shape analysis for orbit members and closed-form fixed-point counts.

The predicates here characterise which shapes the grain rules can reach
from a single column, without running any dynamics:

* under the rightward rule alone, exactly the non-increasing shapes that
  are crazed end to end;
* under the symmetric pair of rules, exactly the shapes that split into a
  non-decreasing left zone and a non-increasing right zone, both crazed.

One scan over adjacent pairs from each end finds every such split and
every monotone one: either way the valid cuts form one interval.

Fixed points admit closed-form counts: n grains leave isqrt(n) distinct
stable shapes, split between those with a one-column top and those with a
two-column top.  Every stable shape is built from one staircase, h, h-1,
..., 1 with at most one step doubled, never by search, so orbit
explorations can be checked against an independent route.  The rightward
rule's one fixed point is that staircase itself.  A symmetric-rule fixed
point is a rising staircase to a top one or two columns wide joined to a
falling one, each flank taken from one table cache kept per top height
and width.  Each family comes out in lexicographic order, and one
family's shapes fit whole into a gap of the other's, so the two are
merged by slicing, with no sort and no comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from typing import NamedTuple

from .core import Configuration


@dataclass(frozen=True)
class TopSet:
    """Index interval (1-based, inclusive) of the maximal columns.

    For anything reachable from a single column the maximal columns are
    consecutive; arbitrary input may attain its maximum in several
    places, reported as the hull [lo, hi] with contiguous=False.
    """

    lo: int
    hi: int
    contiguous: bool

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1


@dataclass(frozen=True)
class LRSplit:
    """A cut 0 <= t <= width: columns [1,t] climb, columns [t+1,width] fall."""

    t: int
    left: tuple[int, ...]
    right: tuple[int, ...]


class FixedPointCensus(NamedTuple):
    """Stable-shape counts for n grains, split by top width.

    single_top counts shapes whose maximum is attained by one column,
    wide_top those where it is attained by two or more.  The shapes
    themselves ride along when the census was asked to enumerate them.
    """

    n: int
    single_top: int
    wide_top: int
    shapes: tuple[Configuration, ...] | None = None

    @property
    def total(self) -> int:
        return self.single_top + self.wide_top


def top(c: Configuration) -> TopSet:
    """Locate the maximal columns of c.

    Returns the first and last index attaining the maximum height and
    whether every column in between does too.
    """
    cols = c.columns
    mx = max(cols)
    lo = cols.index(mx) + 1
    hi = len(cols) - cols[::-1].index(mx)
    contiguous = min(cols[lo - 1 : hi]) == mx
    return TopSet(lo, hi, contiguous)


def _prefix(cols: tuple[int, ...], crazed: bool, climb: bool) -> int:
    # The length of the longest prefix of cols that is crazed if crazed is
    # set and non-decreasing if climb is, in one pass over adjacent pairs.
    # A plateau is an equal pair and a cliff a pair at least 2 apart; with
    # crazed, the scan stops at the first plateau with no cliff since the
    # one before it, so a run of three equal heights stops it too.
    armed = True  # no plateau since the last cliff, or none yet
    for i, (x, y) in enumerate(zip(cols, cols[1:])):
        if x == y:
            if crazed and not armed:
                return i + 1
            armed = False
        elif climb and x > y:
            return i + 1
        elif not -2 < x - y < 2:
            armed = True
    return len(cols)


def is_crazed(c: Configuration) -> bool:
    """Check the plateau discipline on every column of c.

    A shape is crazed when no height repeats three times in a row and any
    two plateaus (adjacent equal pairs) have a cliff, a height jump of at
    least 2, strictly between them.  Check a zone as its own Configuration.
    """
    return _prefix(c.columns, True, False) == len(c.columns)


def plateau_spans(c: Configuration) -> tuple[tuple[int, int], ...]:
    """Maximal equal-height runs of length >= 2, as (first, last) index
    pairs, 1-based."""
    cols = c.columns
    spans: list[tuple[int, int]] = []
    for i in range(1, len(cols)):
        if cols[i] == cols[i - 1]:
            # equal columns i and i + 1, 1-based: extend a run ending at i
            first = spans.pop()[0] if spans and spans[-1][1] == i else i
            spans.append((first, i + 1))
    return tuple(spans)


def cliffs(c: Configuration) -> tuple[int, ...]:
    """Positions i with |c_i - c_{i+1}| >= 2, 1-based."""
    cols = c.columns
    return tuple(i for i in range(1, len(cols)) if abs(cols[i] - cols[i - 1]) >= 2)


def _cuts(cols: tuple[int, ...], crazed: bool) -> range:
    # The cuts t of a monotone split of cols, both zones crazed if asked.
    # A window inside a non-decreasing (crazed) window is one too, so the
    # prefix [1, t] qualifies for t up to some L and the suffix [t+1, k],
    # read backwards, from some t = R on: the cuts are R..L.
    return range(len(cols) - _prefix(cols[::-1], crazed, True), _prefix(cols, crazed, True) + 1)


def lr_splits(c: Configuration) -> tuple[LRSplit, ...]:
    """All cuts t where the prefix [1,t] is non-decreasing and the suffix
    [t+1,k] is non-increasing, in ascending t order.  Ends count: t=0
    leaves the left zone empty and t=k the right one.  Empty exactly when
    the shape has a valley and so splits nowhere.  The cuts are one
    interval, found by one scan from each end, as for has_crazed_lr.
    """
    cols = c.columns
    return tuple(LRSplit(t, cols[:t], cols[t:]) for t in _cuts(cols, False))


def has_crazed_lr(c: Configuration) -> LRSplit | None:
    """Find a monotone split whose two zones are both crazed.

    Returns the lowest-cut such split, or None.  Existence is exactly
    membership in the orbit of the single column with the same grain
    count under the symmetric rules.  lr_splits' two scans, plateau
    rule added, give these cuts as one interval.
    """
    cols = c.columns
    t = next(iter(_cuts(cols, True)), None)
    return None if t is None else LRSplit(t, cols[:t], cols[t:])


# Membership runs on every vertex verify sees: it tests R, L with no range.
def spm_member(c: Configuration) -> bool:
    """Reachable from the single column under the rightward rule alone:
    non-increasing and crazed end to end, a crazed split at t = 0."""
    return _prefix(c.columns[::-1], True, True) == len(c.columns)


def sspm_member(c: Configuration) -> bool:
    """Reachable from the single column under the symmetric rules."""
    cols = c.columns
    return len(cols) - _prefix(cols[::-1], True, True) <= _prefix(cols, True, True)


def _check_n(n: int) -> None:
    # What every function of n grains takes: a positive plain int.
    if type(n) is not int:
        raise TypeError(f"n must be int, got {n!r}")
    if n < 1:
        raise ValueError("need at least one grain")


def spm_fixed_point(n: int) -> Configuration:
    """The unique stable shape of the rightward rule on n grains.

    Write n = p(p+1)/2 + q with 0 <= q <= p (the decomposition is unique).
    The shape is the staircase p, p-1, ..., 1 with the step of height q
    doubled (none when q = 0), the same staircase that every
    symmetric-rule fixed point is built from, falling only.  n must be a
    positive plain int; floats, strings and bools raise TypeError.
    """
    _check_n(n)
    p = (isqrt(8 * n + 1) - 1) // 2
    return Configuration(_stairs(p, n - p * (p + 1) // 2))


def fixed_point_counts(n: int, include_shapes: bool = False) -> FixedPointCensus:
    """Closed-form stable-shape counts for the symmetric rules on n grains.

    With p = isqrt(n) and u = n - p*p, the single-top count is u+1 for
    u < p, then tapers as 2p-u-1 until it hits 0.  With q the largest
    integer satisfying q*q+q <= n and v = n - q*q - q, the wide-top
    count is v+1 for v < q, drops to q at v = q (two templates collide
    there), then tapers as 2q-v+1.  The two always sum to isqrt(n).

    Both bracketing integers come from exact integer square roots; float
    sqrt misclassifies near perfect squares once n gets large.  n must be
    a positive plain int; floats, strings and bools raise TypeError.
    """
    _check_n(n)
    p, u, q, v = _pyramids(n)
    if u < p:
        g1 = u + 1
    elif u < 2 * p:
        g1 = 2 * p - u - 1
    else:
        g1 = 0
    if v < q:
        g2 = v + 1
    elif v == q:
        g2 = q
    else:
        g2 = 2 * q - v + 1
    shapes = enumerate_fixed_points(n) if include_shapes else None
    return FixedPointCensus(n, g1, g2, shapes)


def _pyramids(n: int) -> tuple[int, int, int, int]:
    # The tallest pyramids that n grains cover, 1..p..1 of p*p grains and
    # 1..q,q..1 of q*q+q, each with the grains u and v left above it.
    p = isqrt(n)
    q = (isqrt(4 * n + 1) - 1) // 2
    return p, n - p * p, q, n - q * q - q


def _stairs(h: int, j: int) -> tuple[int, ...]:
    # The staircase h, h-1, ..., 1 with the step of height j doubled: none
    # when j = 0, and j = h + 1 puts one more step, h + 1, in front.
    return tuple(range(h, max(j - 1, 0), -1)) + tuple(range(j, 0, -1))


# The flank tables depend on the top height and width alone, which
# consecutive n share, so the last table of each family is kept.
@lru_cache(maxsize=2)
def _flanks(h: int, wide: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    # The pyramid 1..h..1 (wide = 0) holds h*h grains, 1..h,h..1 (wide =
    # 1) h*h+h.  lefts[j] is its rising flank up to the top with step j
    # doubled and rights[j] its falling flank below the top with step j
    # doubled; j = 0 doubles none.  Under a two-column top j runs up to
    # h, and doubling step h widens the top to three columns.
    js = range(h + wide)
    lefts = tuple(_stairs(h, j)[::-1] + (h,) * wide for j in js)
    return lefts, tuple(_stairs(h - 1, j) for j in js)


def _family(h: int, wide: int, spare: int) -> list[tuple[int, ...]]:
    # Every split jl + jr = spare of the grains above the pyramid over the
    # two flanks, in lexicographic order: jl = 1, 2, ... and last jl = 0,
    # whose left flank climbs one step higher than any doubled one at the
    # first place they differ.
    lefts, rights = _flanks(h, wide)
    lo, hi = max(0, spare - len(rights) + 1), min(len(lefts) - 1, spare)
    shapes = [lefts[j] + rights[spare - j] for j in range(max(lo, 1), hi + 1)]
    # Under a two-column top with spare == h, jl = 0 doubles step h on
    # the right, 1..h-1,h,h,h,h-1..1: the jl = h shape again.
    if lo == 0 and not (wide and spare == h):
        shapes.append(lefts[0] + rights[spare])
    return shapes


def _fixed_point_tuples(n: int) -> list[tuple[int, ...]]:
    p, u, q, v = _pyramids(n)
    single = _family(p, 0, u)
    double = _family(q, 1, v)  # empty at n = 1, where q = 0 and v = 1
    # A shape leaves the staircase 1, 2, 3, ... at index jl, where it
    # repeats jl, or at its top (index p or q) when jl = 0.  There it is
    # lower than any shape still on the staircase, so the earlier a shape
    # leaves, the smaller it is.  q is p or p - 1.  When q == p, v = u - p: the
    # two-column tops take jl = 1..v and 0 (leaving at index p), and the
    # one-column tops jl = v+1..p-1 fit between them.  When q == p - 1,
    # v = u + p: the one-column tops take jl = 1..u and 0 (at index p),
    # and the two-column tops jl = u+1..q fit between.  No two shapes
    # leave at the same index, so the merge needs no comparison.
    if q == p:
        return double[:v] + single + double[v:]
    return single[:u] + double + single[u:]


def enumerate_fixed_points(n: int) -> tuple[Configuration, ...]:
    """All stable shapes of the symmetric rules on n grains, built from
    one staircase and returned in lexicographic order.

    The list always has exactly isqrt(n) entries.  Each shape is one
    concatenation of a left and a right flank, each a staircase with at
    most one step doubled, read from one cache of tables kept per top
    height and width.  Each family comes out already in lexicographic
    order, and the two runs are merged without a comparison: one of them
    fits whole between the last doubled-step shape and the undoubled one
    of the other (see _fixed_point_tuples).  One collision remains: when
    the grains above the two-column-top pyramid number exactly its
    height q, doubling step q on the right flank alone and on the left
    flank alone both widen the top to the same three columns.  The
    right-flank template is skipped, so no duplicate is built and no set
    is needed.  n must be a positive plain int; floats, strings and bools
    raise TypeError.
    """
    _check_n(n)
    return tuple(map(Configuration._trusted, _fixed_point_tuples(n)))
