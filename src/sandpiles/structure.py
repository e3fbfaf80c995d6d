"""Shape analysis for orbit members and closed-form fixed-point counts.

The predicates here characterise which shapes the grain rules can reach
from a single column, without running any dynamics:

* under the rightward rule alone, exactly the non-increasing shapes that
  are crazed end to end;
* under the symmetric pair of rules, exactly the shapes that split into a
  non-decreasing left zone and a non-increasing right zone, both crazed.

Fixed points admit closed-form counts: n grains leave isqrt(n) distinct
stable shapes, split between those with a one-column top and those with a
two-column top.  ``enumerate_fixed_points`` materialises them directly
from staircase templates, never by search, so orbit explorations can be
checked against an independent route.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Iterator

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

    def __contains__(self, i: int) -> bool:
        return self.lo <= i <= self.hi

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1


@dataclass(frozen=True)
class LRSplit:
    """A cut 0 <= t <= width: columns [1,t] climb, columns [t+1,width] fall."""

    t: int
    left: tuple[int, ...]
    right: tuple[int, ...]


@dataclass(frozen=True)
class FixedPointCensus:
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


def _runs(cols: tuple[int, ...], a: int, b: int) -> Iterator[tuple[int, int]]:
    # Maximal equal-height runs inside the half-open 0-based window [a, b).
    i = a
    while i < b:
        j = i + 1
        while j < b and cols[j] == cols[i]:
            j += 1
        yield i, j - i
        i = j


def is_crazed(c: Configuration, lo: int = 1, hi: int | None = None) -> bool:
    """Check the plateau discipline on columns lo..hi (1-based, inclusive).

    A window is crazed when no height repeats three times in a row and any
    two plateaus (adjacent equal pairs) have a cliff, a height jump of at
    least 2, strictly between them.  An empty window is vacuously crazed.
    """
    cols = c.columns
    if hi is None:
        hi = len(cols)
    if not (0 <= lo - 1 and hi <= len(cols)):
        raise IndexError(f"window {lo}..{hi} out of range for width {len(cols)}")
    a, b = lo - 1, hi
    seen_plateau = False
    cliff_since = True
    for start, length in _runs(cols, a, b):
        if length >= 3:
            return False
        if length == 2:
            if seen_plateau and not cliff_since:
                return False
            seen_plateau = True
            cliff_since = False
        nxt = start + length
        if nxt < b and abs(cols[nxt] - cols[nxt - 1]) >= 2:
            cliff_since = True
    return True


def plateau_spans(
    c: Configuration, lo: int = 1, hi: int | None = None
) -> tuple[tuple[int, int], ...]:
    """Maximal equal-height runs of length >= 2 inside a window, as
    (first, last) index pairs, 1-based."""
    cols = c.columns
    if hi is None:
        hi = len(cols)
    return tuple(
        (start + 1, start + length)
        for start, length in _runs(cols, lo - 1, hi)
        if length >= 2
    )


def cliffs(c: Configuration, lo: int = 1, hi: int | None = None) -> tuple[int, ...]:
    """Positions i with |c_i - c_{i+1}| >= 2, both columns in the window."""
    cols = c.columns
    if hi is None:
        hi = len(cols)
    return tuple(
        i for i in range(lo, hi) if abs(cols[i] - cols[i - 1]) >= 2
    )


def _split_cuts(cols: tuple[int, ...]) -> tuple[int, ...]:
    k = len(cols)
    nondec_upto = 0
    while nondec_upto < k - 1 and cols[nondec_upto] <= cols[nondec_upto + 1]:
        nondec_upto += 1
    # prefix [1, t] is non-decreasing for every t <= nondec_upto + 1
    noninc_from = k - 1
    while noninc_from > 0 and cols[noninc_from - 1] >= cols[noninc_from]:
        noninc_from -= 1
    # suffix [t+1, k] is non-increasing for every t >= noninc_from
    return tuple(
        t for t in range(k + 1) if t <= nondec_upto + 1 and t >= noninc_from
    )


def lr_splits(c: Configuration) -> tuple[LRSplit, ...]:
    """All cuts t where the prefix [1,t] is non-decreasing and the suffix
    [t+1,k] is non-increasing, in ascending t order.  Ends count: t=0
    leaves the left zone empty and t=k the right one.  Empty exactly when
    the shape has a valley and so splits nowhere.
    """
    cols = c.columns
    return tuple(LRSplit(t, cols[:t], cols[t:]) for t in _split_cuts(cols))


def has_crazed_lr(c: Configuration) -> LRSplit | None:
    """Find a monotone split whose two zones are both crazed.

    Returns the lowest-cut such split, or None.  Existence is exactly
    membership in the orbit of the single column with the same grain
    count under the symmetric rules.
    """
    k = c.width
    for t in _split_cuts(c.columns):
        if is_crazed(c, 1, t) and is_crazed(c, t + 1, k):
            return LRSplit(t, c.columns[:t], c.columns[t:])
    return None


def _non_increasing(cols: tuple[int, ...]) -> bool:
    return all(cols[i] >= cols[i + 1] for i in range(len(cols) - 1))


def spm_member(c: Configuration) -> bool:
    """Reachable from the single column under the rightward rule alone:
    non-increasing and crazed end to end."""
    return _non_increasing(c.columns) and is_crazed(c)


def sspm_member(c: Configuration) -> bool:
    """Reachable from the single column under the symmetric rules."""
    return has_crazed_lr(c) is not None


def spm_fixed_point(n: int) -> Configuration:
    """The unique stable shape of the rightward rule on n grains.

    Write n = p(p+1)/2 + q with 0 <= q <= p (the decomposition is unique).
    The shape is the staircase p, p-1, ..., 1 with the step of height q
    doubled when q > 0.
    """
    if n < 1:
        raise ValueError("need at least one grain")
    p = (isqrt(8 * n + 1) - 1) // 2
    q = n - p * (p + 1) // 2
    if q == 0:
        return Configuration(tuple(range(p, 0, -1)))
    stairs = list(range(p, q, -1)) + [q, q] + list(range(q - 1, 0, -1))
    return Configuration(tuple(stairs))


def fixed_point_counts(n: int, include_shapes: bool = False) -> FixedPointCensus:
    """Closed-form stable-shape counts for the symmetric rules on n grains.

    With p = isqrt(n) and u = n - p*p, the single-top count is u+1 for
    u < p, then tapers as 2p-u-1 until it hits 0.  With q the largest
    integer satisfying q*q+q <= n and v = n - q*q - q, the wide-top
    count is v+1 for v < q, drops to q at v = q (two templates collide
    there), then tapers as 2q-v+1.  The two always sum to isqrt(n).

    Both bracketing integers come from exact integer square roots; float
    sqrt misclassifies near perfect squares once n gets large.
    """
    if n < 1:
        raise ValueError("need at least one grain")
    p = isqrt(n)
    u = n - p * p
    if u < p:
        g1 = u + 1
    elif u < 2 * p:
        g1 = 2 * p - u - 1
    else:
        g1 = 0
    q = (isqrt(4 * n + 1) - 1) // 2
    v = n - q * q - q
    if v < q:
        g2 = v + 1
    elif v == q:
        g2 = q
    else:
        g2 = 2 * q - v + 1
    shapes = enumerate_fixed_points(n) if include_shapes else None
    return FixedPointCensus(n, g1, g2, shapes)


def _fixed_point_tuples(n: int) -> set[tuple[int, ...]]:
    # Each flank is a staircase with at most one step doubled: slicing the
    # ascending stairs asc at j, asc[:j] + asc[j - 1:], doubles the step
    # of height j, and the same cut on the descending stairs mirrors it.
    shapes: set[tuple[int, ...]] = set()
    p = isqrt(n)
    u = n - p * p
    if p >= 1:
        # one-column top: pyramid 1..p..1 holds p*p grains, the u spare
        # grains double one step on each flank (jl on the left, jr right)
        asc = tuple(range(1, p))
        desc = asc[::-1]
        for jl in range(max(0, u - (p - 1)), min(p - 1, u) + 1):
            jr = u - jl
            left = asc[:jl] + asc[max(jl - 1, 0) :]
            right = desc[: p - jr] + desc[p - 1 - jr :]
            shapes.add(left + (p,) + right)
    q = (isqrt(4 * n + 1) - 1) // 2
    v = n - q * q - q
    if q >= 1:
        # two-column top: base pyramid 1..q,q..1 holds q*q+q grains; a
        # flank value of q widens the top to three columns
        asc = tuple(range(1, q + 1))
        desc = asc[::-1]
        for jl in range(max(0, v - q), min(q, v) + 1):
            jr = v - jl
            left = asc[:jl] + asc[max(jl - 1, 0) : q - 1]
            right = desc[1 : q - jr + 1] + desc[q - jr :]
            shapes.add(left + (q, q) + right)
    return shapes


def enumerate_fixed_points(n: int) -> tuple[Configuration, ...]:
    """All stable shapes of the symmetric rules on n grains, built from
    staircase templates and returned in lexicographic order.

    The list always has exactly isqrt(n) entries; the two template
    families overlap in one shape whenever both flanks of the double-top
    family are fully loaded, and the set construction absorbs that.
    """
    if n < 1:
        raise ValueError("need at least one grain")
    return tuple(Configuration._trusted(t) for t in sorted(_fixed_point_tuples(n)))
