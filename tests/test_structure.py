"""Tops, crazed shapes, LR splits, membership and fixed-point counting."""

from __future__ import annotations

import hashlib
import random
import re
from itertools import groupby
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sandpiles import (
    Configuration,
    LRSplit,
    Model,
    cliffs,
    enumerate_fixed_points,
    fixed_point_counts,
    has_crazed_lr,
    is_crazed,
    is_fixed_point,
    lr_splits,
    plateau_spans,
    spm_fixed_point,
    spm_member,
    sspm_member,
    top,
)

from conftest import (
    compositions,
    naive_crazed,
    naive_orbit,
    spm_staircase,
    sspm_orbit_size,
    sspm_stable_count,
)

C = Configuration

# sha256 of every shape for n = 1..N, one per line in the order of n and
# then of enumerate_fixed_points, recorded from the earlier set-and-sort
# construction of the templates.
FIXED_POINTS_400 = "1e60ae9b5917210c7ffdebe07b38189aceed7d1e98b546a9b2d726d47f27d7ca"
FIXED_POINTS_2000 = "bc6cd548b577493a59021df34e73ec5d05bfa389e330322f2e6ae34467806fe3"


def fixed_point_digest(shapes: dict[int, tuple[Configuration, ...]], n_max: int) -> str:
    text = "\n".join(str(c) for n in range(1, n_max + 1) for c in shapes[n])
    return hashlib.sha256(text.encode()).hexdigest()

shapes = st.lists(st.integers(1, 12), min_size=1, max_size=10).map(tuple).map(C)


class TestTop:
    def test_examples(self):
        t = top(C((1, 2, 2, 1)))
        assert (t.lo, t.hi, t.size) == (2, 3, 2)
        t = top(C((5,)))
        assert (t.lo, t.hi) == (1, 1)
        t = top(C((1, 2, 3, 2, 1)))
        assert (t.lo, t.hi) == (3, 3)

    def test_contiguity_flag(self):
        assert top(C((1, 2, 2, 1))).contiguous
        assert not top(C((2, 1, 2))).contiguous

    @given(shapes)
    def test_hull_is_tight(self, c):
        t = top(c)
        mx = max(c.columns)
        assert c.columns[t.lo - 1] == mx and c.columns[t.hi - 1] == mx
        assert all(h < mx for h in c.columns[: t.lo - 1])
        assert all(h < mx for h in c.columns[t.hi :])


class TestLRSplits:
    def test_peak_has_two_cuts(self):
        # a one-column prefix is monotone by vacuity, so the cut just
        # before the peak qualifies alongside the cut just after it
        assert [s.t for s in lr_splits(C((1, 2, 1)))] == [1, 2]

    def test_valley_has_none(self):
        assert lr_splits(C((2, 1, 2))) == ()

    def test_constant_allows_every_cut(self):
        assert [s.t for s in lr_splits(C((1, 1)))] == [0, 1, 2]

    def test_split_slices(self):
        s = lr_splits(C((1, 2, 1)))[0]
        assert s.left == (1,) and s.right == (2, 1)

    @given(shapes)
    def test_against_definition(self, c):
        cols = c.columns
        k = len(cols)
        want = []
        for t in range(k + 1):
            left, right = cols[:t], cols[t:]
            if all(a <= b for a, b in zip(left, left[1:])) and all(
                a >= b for a, b in zip(right, right[1:])
            ):
                want.append(t)
        got = lr_splits(c)
        assert [s.t for s in got] == want
        assert all(s.left == cols[: s.t] and s.right == cols[s.t :] for s in got)


class TestCrazed:
    def test_examples(self):
        assert is_crazed(C((2, 2, 1)))
        assert not is_crazed(C((1, 1, 1)))
        assert not is_crazed(C((3, 3, 2, 1, 1)))

    def test_cliff_separates(self):
        assert is_crazed(C((3, 3, 1, 1)))

    @given(shapes)
    def test_against_pair_position_oracle(self, c):
        assert is_crazed(c) == naive_crazed(c.columns)


class TestPlateausAndCliffs:
    def test_plateau_spans(self):
        assert plateau_spans(C((3, 3, 2, 1, 1))) == ((1, 2), (4, 5))
        assert plateau_spans(C((1, 1, 1, 2))) == ((1, 3),)
        assert plateau_spans(C((3, 2, 1))) == ()

    def test_cliffs(self):
        assert cliffs(C((3, 1, 2))) == (1,)
        assert cliffs(C((1, 2, 1))) == ()

    @given(shapes)
    # three equal neighbours make one span, not two overlapping pairs
    @example(C((1, 3, 3, 3, 2)))
    def test_plateau_spans_against_runs(self, c):
        # maximal runs of equal heights, from groupby
        want, first = [], 1
        for _, run in groupby(c.columns):
            length = len(list(run))
            if length >= 2:
                want.append((first, first + length - 1))
            first += length
        assert plateau_spans(c) == tuple(want)


class TestHasCrazedLR:
    def test_single_column_splits_at_zero(self):
        s = has_crazed_lr(C((7,)))
        assert s is not None and s.t == 0 and s.right == (7,)

    def test_example_configurations(self):
        assert has_crazed_lr(C((1, 1, 2, 1))) is not None
        assert has_crazed_lr(C((1, 1, 1, 1, 1))) is None

    @given(shapes)
    def test_returned_split_is_valid(self, c):
        s = has_crazed_lr(c)
        if s is None:
            return
        assert all(a <= b for a, b in zip(s.left, s.left[1:]))
        assert all(a >= b for a, b in zip(s.right, s.right[1:]))
        # each non-empty zone is checked as a shape of its own
        assert all(is_crazed(C(zone)) for zone in (s.left, s.right) if zone)

    @staticmethod
    def monotone_cuts(cols):
        # every cut tried in turn: the prefix climbs and the suffix falls
        return [
            t
            for t in range(len(cols) + 1)
            if all(a <= b for a, b in zip(cols[:t], cols[1:t]))
            and all(a >= b for a, b in zip(cols[t:], cols[t + 1 :]))
        ]

    @classmethod
    def lowest_crazed_split(cls, cols):
        # each zone of each monotone cut judged by the pair-position oracle
        want = next(
            (t for t in cls.monotone_cuts(cols) if naive_crazed(cols[:t]) and naive_crazed(cols[t:])),
            None,
        )
        return None if want is None else LRSplit(want, cols[:want], cols[want:])

    @settings(max_examples=500)
    @given(shapes)
    def test_lowest_cut_against_definition(self, c):
        assert has_crazed_lr(c) == self.lowest_crazed_split(c.columns)

    def test_every_small_composition_against_definition_and_membership(self):
        # sspm_member reads the same two scans without building the split,
        # and lr_splits reads them with plateaus left alone; all must agree
        # with the definition on every shape
        for n in range(1, 13):
            for cols in compositions(n):
                c = C(cols)
                s = has_crazed_lr(c)
                assert s == self.lowest_crazed_split(cols), cols
                assert sspm_member(c) == (s is not None), cols
                assert [split.t for split in lr_splits(c)] == self.monotone_cuts(cols), cols


class TestMembership:
    def test_examples(self):
        assert spm_member(C((3, 1)))
        assert not spm_member(C((2, 2, 1, 1)))
        assert not spm_member(C((1, 2)))

    def test_exhaustive_against_naive_bfs(self):
        for n in range(1, 11):
            reachable_sym = naive_orbit((n,), "sspm")[0]
            reachable_right = naive_orbit((n,), "spm")[0]
            for cols in compositions(n):
                c = C(cols)
                assert sspm_member(c) == (cols in reachable_sym), cols
                assert spm_member(c) == (cols in reachable_right), cols

    def test_spm_every_small_composition_against_definition(self):
        # spm_member is the crazed split search at t = 0
        for n in range(1, 15):
            for cols in compositions(n):
                c = C(cols)
                s = has_crazed_lr(c)
                falls = all(a >= b for a, b in zip(cols, cols[1:]))
                assert spm_member(c) == (falls and naive_crazed(cols)), cols
                assert spm_member(c) == (s is not None and s.t == 0), cols

    def test_sspm_counting_recurrences_against_compositions(self):
        for n in range(1, 17):
            members = [c for c in map(C, compositions(n)) if sspm_member(c)]
            assert sspm_orbit_size(n) == len(members), n
            stable = sum(is_fixed_point(c, Model.SSPM) for c in members)
            assert sspm_stable_count(n) == stable, n

    def test_members_split_and_have_narrow_tops(self):
        # verify seeks its lr-decomposable and top-width witnesses only
        # among the vertices that fail membership, which this makes sound
        for n in range(1, 15):
            for cols in compositions(n):
                c = C(cols)
                if spm_member(c):
                    assert top(c).size <= 2 and lr_splits(c), cols
                if sspm_member(c):
                    assert top(c).size <= 4 and lr_splits(c), cols


class TestSpmFixedPoint:
    def test_examples(self):
        assert spm_fixed_point(1) == C((1,))
        assert spm_fixed_point(8) == C((3, 2, 2, 1))
        assert spm_fixed_point(10) == C((4, 3, 2, 1))

    def test_doubled_step_cases(self):
        assert spm_fixed_point(2) == C((1, 1))
        assert spm_fixed_point(5) == C((2, 2, 1))  # doubled step at the top
        assert spm_fixed_point(7) == C((3, 2, 1, 1))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            spm_fixed_point(0)

    def test_shape_properties(self):
        for n in range(1, 200):
            pi = spm_fixed_point(n)
            assert pi.grains == n
            assert is_fixed_point(pi, Model.SPM)

    def test_matches_unique_naive_sink(self):
        for n in range(1, 31):
            dead = naive_orbit((n,), "spm")[2]
            assert dead == {spm_fixed_point(n).columns}

    def test_matches_the_triangular_staircase(self):
        for n in range(1, 10_001):
            assert spm_fixed_point(n).columns == spm_staircase(n), n


class TestCounting:
    def test_examples(self):
        fc = fixed_point_counts(5)
        assert (fc.single_top, fc.wide_top, fc.total) == (2, 0, 2)
        assert fixed_point_counts(16).total == 4
        fc = fixed_point_counts(1)
        assert (fc.single_top, fc.wide_top, fc.total) == (1, 0, 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fixed_point_counts(0)
        with pytest.raises(ValueError):
            enumerate_fixed_points(-3)

    @pytest.mark.parametrize(
        "n", [True, "3", 3.0, None], ids=["bool", "str", "float", "none"]
    )
    @pytest.mark.parametrize(
        "fn",
        [spm_fixed_point, fixed_point_counts, enumerate_fixed_points],
        ids=["spm_fixed_point", "counts", "enumerate"],
    )
    def test_n_must_be_an_int(self, fn, n):
        # True would count as one grain and "3" fail inside a comparison
        with pytest.raises(TypeError, match=re.escape(f"n must be int, got {n!r}")):
            fn(n)

    def test_shapes_ride_along_when_asked(self):
        fc = fixed_point_counts(12, include_shapes=True)
        assert fc.shapes == enumerate_fixed_points(12)
        assert fixed_point_counts(12).shapes is None

    def test_square_root_law_exhaustive(self):
        for n in range(1, 3001):
            fc = fixed_point_counts(n)
            assert fc.total == isqrt(n), n
            assert fc.total == fc.single_top + fc.wide_top

    def test_counts_classify_by_top_size(self):
        for n in range(1, 600):
            fc = fixed_point_counts(n)
            fps = enumerate_fixed_points(n)
            narrow = sum(1 for f in fps if top(f).size == 1)
            assert narrow == fc.single_top, n
            assert len(fps) - narrow == fc.wide_top, n

    def test_square_root_law_by_counting_recurrence(self):
        # a route to the law that shares nothing with the closed form or
        # the flank templates: count the stable members by a recurrence
        for n in range(1, 1001):
            assert sspm_stable_count(n) == isqrt(n) == fixed_point_counts(n).total, n

    @settings(max_examples=30)
    @given(st.integers(1, 10**9))
    def test_formula_consistency_scales(self, n):
        fc = fixed_point_counts(n)
        assert fc.total == isqrt(n)


class TestEnumeration:
    def test_examples(self):
        assert enumerate_fixed_points(2) == (C((1, 1)),)
        assert set(enumerate_fixed_points(5)) == {C((1, 2, 1, 1)), C((1, 1, 2, 1))}
        assert len(enumerate_fixed_points(4)) == 2

    def test_lexicographic_and_distinct(self):
        # every n <= 3000 covers the v == q collision of the two-column-top
        # templates, both tapers of the counts and the p/q boundaries
        for n in range(1, 3001):
            fps = enumerate_fixed_points(n)
            cols = [f.columns for f in fps]
            assert all(a < b for a, b in zip(cols, cols[1:])), n
            assert list(fps) == sorted(fps), n

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 10**6))
    @example(10**6)  # p * p: q == p - 1 and u == 0
    @example(999 * 1000)  # q == p and v == 0
    @example(1000 * 1001 - 1)  # q == p - 1 with the most one-column tops
    @example(999 * 1001)  # q == p and v == q, the collision
    def test_merge_order_holds_for_large_n(self, n):
        # the two families are merged by slicing, with no comparison, so
        # the order is checked well past the sizes the other tests reach
        fps = enumerate_fixed_points(n)
        cols = [f.columns for f in fps]
        assert len(fps) == isqrt(n)
        assert all(a < b for a, b in zip(cols, cols[1:]))
        assert list(fps) == sorted(fps)

    def test_call_order_does_not_matter(self):
        # the flank tables are cached per top height; calls that jump
        # between heights must not see a stale table.  Each order is held
        # to the digest, since the ascending calls may share its fault.
        shuffled = list(range(1, 401))
        random.Random(6).shuffle(shuffled)
        for order in (range(1, 401), range(400, 0, -1), shuffled):
            shapes = {n: enumerate_fixed_points(n) for n in order}
            assert fixed_point_digest(shapes, 400) == FIXED_POINTS_400, list(order)[:3]

    def test_golden_digest(self):
        shapes = {n: enumerate_fixed_points(n) for n in range(1, 2001)}
        assert fixed_point_digest(shapes, 2000) == FIXED_POINTS_2000

    def test_every_shape_is_a_reachable_fixed_point(self):
        for n in range(1, 150):
            for f in enumerate_fixed_points(n):
                assert f.grains == n
                assert is_fixed_point(f, Model.SSPM)
                assert has_crazed_lr(f) is not None
                assert len(plateau_spans(f)) <= 3
                assert cliffs(f) == ()

    def test_matches_naive_bfs_sinks(self):
        for n in range(1, 15):
            got = {f.columns for f in enumerate_fixed_points(n)}
            assert got == naive_orbit((n,), "sspm")[2], n
