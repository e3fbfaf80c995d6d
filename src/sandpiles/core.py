"""Column configurations and the grain-moving rules acting on them.

A configuration is a finite sequence of positive column heights, identified
up to horizontal translation. Two local rules rewrite it:

* the rightward rule takes one grain from column i and drops it on column
  i+1 whenever the drop ``c[i] - c[i+1]`` is at least 2, where a missing
  right neighbour counts as height 0 (so the pile may grow a new column at
  its right edge);
* the leftward rule is the mirror image, and may grow a new column at the
  left edge.

``Model.SPM`` enables only the rightward rule; ``Model.SSPM`` enables both.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Model(Enum):
    """Which local rules are enabled.

    Every public function that takes a model also takes its value, "spm"
    or "sspm", and converts it once per call; anything else raises
    ValueError.
    """

    SPM = "spm"
    SSPM = "sspm"

    def __str__(self) -> str:
        return self.value


class Direction(str, Enum):
    RIGHT = "right"
    LEFT = "left"


class MoveError(ValueError):
    """Raised when a move is applied where its slope condition fails."""


@dataclass(frozen=True, order=True, slots=True)
class Configuration:
    """An immutable pile shape: positive column heights, left to right.

    Heights are stored trimmed, so translated copies of the same shape
    compare equal.  Zero columns are accepted only at the edges of the
    input (where trimming removes them); an interior zero would describe
    a disconnected pile and is rejected.  Every height must be a plain
    int; floats, strings and bools are refused with a TypeError.
    """

    columns: tuple[int, ...]

    def __post_init__(self) -> None:
        cols = tuple(self.columns)
        for h in cols:
            if type(h) is not int:
                raise TypeError(f"heights must be int, got {h!r} in {cols!r}")
        lo, hi = 0, len(cols)
        while lo < hi and cols[lo] == 0:
            lo += 1
        while hi > lo and cols[hi - 1] == 0:
            hi -= 1
        cols = cols[lo:hi]
        if not cols:
            raise ValueError("a configuration needs at least one grain")
        if min(cols) < 1:
            raise ValueError(f"interior zero or negative height in {cols!r}")
        object.__setattr__(self, "columns", cols)

    @classmethod
    def _trusted(cls, cols: tuple[int, ...]) -> "Configuration":
        # Skips the checks above, for two callers whose tuples are trimmed
        # positive plain ints by construction.  enumerate_fixed_points
        # concatenates flank tables built from range(); the benchmark's
        # sqrt_law workload wraps 38,019 of them (up to 78 columns wide)
        # for n <= 1500, in 0.023 s this way against 0.17 s through the
        # checks (best of 11, 2 vCPU, Python 3.11); with a __dict__ per
        # instance and object.__setattr__ it took 0.031 s, and the
        # wrappers held 3.4 MB live instead of 1.9.  orbit.build wraps
        # the root's checked columns and _fire's children, and a fired
        # column keeps at least 1 grain while its neighbour gains one, so
        # no child has a zero or a non-int height.  A C-level check (the
        # set of height types) was slower still on those widths.
        c = object.__new__(cls)
        _set_columns(c, cols)
        return c

    @property
    def width(self) -> int:
        return len(self.columns)

    @property
    def grains(self) -> int:
        return sum(self.columns)

    def __str__(self) -> str:
        return ",".join(map(str, self.columns))


# The slot's own setter, which the frozen class's __setattr__ does not
# guard.
_set_columns = Configuration.columns.__set__


@dataclass(frozen=True)
class Move:
    """One grain displacement: the rule fired at a 1-based column index."""

    direction: Direction
    index: int

    def __post_init__(self) -> None:
        # "right" and "left" become their Direction; anything else raises
        # ValueError here rather than later, inside apply_move.
        if type(self.direction) is not Direction or type(self.index) is not int:
            object.__setattr__(self, "direction", Direction(self.direction))
            if type(self.index) is not int:
                raise TypeError(f"move index must be int, got {self.index!r}")

    def __str__(self) -> str:
        return f"{self.direction.value}@{self.index}"


# build runs the kernel once per vertex, which reads the model through this
# alias: aliases in place of Enum attributes, when the kernel also read the
# two directions, took the SSPM builds of (1)..(18) and six 18-grain roots
# from 0.073-0.086 s to 0.069-0.078 s (best of 15, three interleaved runs,
# 2 vCPU).
_SSPM = Model.SSPM


def _fire(cols: tuple[int, ...], model: Model) -> tuple[list[int], list[tuple[int, ...]]]:
    # The rule kernel, and the only place the slope threshold is read: the
    # enabled moves as signed 1-based column indices, -j leftward and +j
    # rightward, and their children, in two parallel lists in ascending
    # index with the leftward move first at the same index.  Every child
    # is already trimmed because a fired column keeps height >= 1.  A
    # missing neighbour has height 0, so a grain dropped past an edge lands
    # as a new column of height 1.
    sspm = model is _SSPM
    k = len(cols)
    moves: list[int] = []
    kids: list[tuple[int, ...]] = []
    left = 0
    for j, h in enumerate(cols, 1):
        right = cols[j] if j < k else 0
        if sspm and h - left >= 2:
            moves.append(-j)
            kids.append((cols[: j - 2] if j > 1 else ()) + (left + 1, h - 1) + cols[j:])
        if h - right >= 2:
            moves.append(j)
            kids.append(cols[: j - 1] + (h - 1, right + 1) + cols[j + 1 :])
        left = h
    return moves, kids


def enabled_moves(c: Configuration, model: Model) -> frozenset[Move]:
    """All moves whose slope condition holds at c under the model."""
    moves, _ = _fire(c.columns, Model(model))
    return frozenset(Move(Direction.RIGHT, j) if j > 0 else Move(Direction.LEFT, -j) for j in moves)


def apply_move(c: Configuration, move: Move) -> Configuration:
    """Fire one move and return the rewritten configuration.

    Raises IndexError when the move's column lies outside the pile and
    MoveError when the slope there is below 2; applying a disabled move
    is a rule violation, never a no-op.  Which directions are available
    at all is decided where moves are generated (enabled_moves), not here.
    """
    if not 1 <= move.index <= c.width:
        raise IndexError(f"column {move.index} out of range 1..{c.width}")
    moves, kids = _fire(c.columns, Model.SSPM)
    signed = move.index if move.direction is Direction.RIGHT else -move.index
    if signed in moves:
        return Configuration(kids[moves.index(signed)])
    raise MoveError(f"{move} is not enabled on {c}")


def successors(c: Configuration, model: Model) -> frozenset[Configuration]:
    """The deduplicated one-step images of c.

    Distinct moves may collide on the same shape (on (2) the left and
    right rules both give (1,1)), so this can be smaller than the set of
    enabled moves.
    """
    return frozenset(map(Configuration, set(_fire(c.columns, Model(model))[1])))


def energy(c: Configuration) -> int:
    """Sum of m(m+1)/2 over column heights m.

    Strictly decreases along every move: the fired column loses height h
    (paying h) while its neighbour climbs to at most h-1 (gaining at most
    h-1).  Among shapes with n grains the single column is the unique
    maximum, at n(n+1)/2.
    """
    # every m(m+1) is even, so halving the total is exact
    return sum([m * (m + 1) for m in c.columns]) // 2


def is_fixed_point(c: Configuration, model: Model) -> bool:
    """True when no move is enabled on c under the model."""
    return not _fire(c.columns, Model(model))[0]
