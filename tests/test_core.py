"""Configurations, moves and the two rule sets."""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sandpiles
from sandpiles import (
    Configuration,
    Direction,
    Model,
    Move,
    MoveError,
    apply_move,
    build,
    enabled_moves,
    energy,
    enumerate_fixed_points,
    is_fixed_point,
    sink_census,
    successors,
)
from sandpiles.cli import evolve

from conftest import naive_successors

C = Configuration
R, L = Direction.RIGHT, Direction.LEFT

shapes = st.lists(st.integers(1, 40), min_size=1, max_size=9).map(tuple).map(C)
models = st.sampled_from([Model.SPM, Model.SSPM])


class TestConfiguration:
    def test_trims_edge_zeros(self):
        assert C((0, 3, 2, 1, 0, 0)).columns == (3, 2, 1)

    def test_translation_identity(self):
        assert C((0, 2, 1)) == C((2, 1)) == C((2, 1, 0))
        assert hash(C((0, 2, 1))) == hash(C((2, 1)))

    def test_rejects_interior_zero(self):
        with pytest.raises(ValueError):
            C((2, 0, 1))

    def test_rejects_empty_and_negative(self):
        with pytest.raises(ValueError):
            C(())
        with pytest.raises(ValueError):
            C((0, 0))
        with pytest.raises(ValueError):
            C((3, -1, 1))
        for bad in [(2.5,), (True, 3), ("3",)]:
            with pytest.raises(TypeError, match="heights must be int"):
                C(bad)

    def test_ordering_is_lexicographic(self):
        assert sorted([C((2, 1)), C((1, 2)), C((1, 1, 1))]) == [
            C((1, 1, 1)),
            C((1, 2)),
            C((2, 1)),
        ]

    @given(shapes, shapes)
    def test_slotted_class_keeps_value_semantics(self, c, other):
        # Configuration is a frozen dataclass with slots, and _trusted sets
        # its one slot directly; the wrappers it makes must be the values
        # the checked constructor makes
        t = c.columns
        trusted = C._trusted(t)
        assert trusted == c and hash(trusted) == hash(c) == hash(C(t))
        assert (trusted < other) == (t < other.columns) == (c < other)
        assert (trusted <= other) == (t <= other.columns)
        assert sorted([other, trusted]) == sorted([other, c])
        for copied in (pickle.loads(pickle.dumps(trusted)), copy.deepcopy(trusted)):
            assert type(copied) is C and copied == c and copied.columns == t
        assert not hasattr(trusted, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            trusted.columns = (1,)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del trusted.columns
        # no other attribute can be set either: there is no slot for it,
        # and Python 3.11's frozen slotted dataclasses raise TypeError
        # here rather than FrozenInstanceError
        with pytest.raises((TypeError, AttributeError)):
            trusted.extra = 1

    def test_str(self):
        assert str(C((3, 1))) == "3,1"

    def test_grains(self):
        assert C((8,)).grains == 8
        assert C((3, 2, 2, 1)).grains == 8
        assert C((1, 1)).grains == 2


class TestMoves:
    def test_move_coerces_its_direction(self):
        assert Move("right", 1) == Move(R, 1)
        assert Move("left", 2).direction is L
        assert apply_move(C((3, 1)), Move("right", 1)) == C((2, 2))
        # refused when built, not when apply_move formats its error
        with pytest.raises(ValueError, match="'bogus' is not a valid Direction"):
            Move("bogus", 1)

    def test_move_index_must_be_an_int(self):
        for bad in (True, 1.0, "1"):
            with pytest.raises(TypeError, match="move index must be int"):
                Move(R, bad)

    def test_enabled_moves_examples(self):
        assert enabled_moves(C((8,)), Model.SSPM) == {Move(R, 1), Move(L, 1)}
        assert enabled_moves(C((1, 1)), Model.SSPM) == frozenset()
        assert enabled_moves(C((2, 2)), Model.SPM) == {Move(R, 2)}

    def test_spm_never_moves_left(self):
        for c in (C((8,)), C((1, 7)), C((2, 5, 2))):
            assert all(
                mv.direction is R for mv in enabled_moves(c, Model.SPM)
            )

    def test_apply_move_examples(self):
        assert apply_move(C((4,)), Move(L, 1)) == C((1, 3))
        assert apply_move(C((8,)), Move(R, 1)) == C((7, 1))
        assert apply_move(C((2, 2)), Move(R, 2)) == C((2, 1, 1))

    def test_apply_move_out_of_range(self):
        with pytest.raises(IndexError):
            apply_move(C((3, 1)), Move(R, 3))
        with pytest.raises(IndexError):
            apply_move(C((3, 1)), Move(L, 0))

    def test_disabled_move_is_an_error(self):
        with pytest.raises(MoveError):
            apply_move(C((1, 1)), Move(R, 1))
        with pytest.raises(MoveError):
            apply_move(C((2, 2)), Move(R, 1))  # slope 0
        with pytest.raises(MoveError):
            apply_move(C((1, 2)), Move(L, 2))  # slope 1

    def test_threshold_is_two(self):
        # slope exactly 2 fires, slope 1 does not
        assert apply_move(C((3, 1)), Move(R, 1)) == C((2, 2))
        with pytest.raises(MoveError):
            apply_move(C((2, 1)), Move(R, 1))


class TestSuccessors:
    def test_examples(self):
        assert successors(C((2,)), Model.SSPM) == {C((1, 1))}
        assert successors(C((8,)), Model.SSPM) == {C((7, 1)), C((1, 7))}
        assert successors(C((5,)), Model.SSPM) == {C((4, 1)), C((1, 4))}

    def test_collision_of_distinct_moves(self):
        # two distinct enabled moves, one successor shape
        assert len(enabled_moves(C((2,)), Model.SSPM)) == 2
        assert len(successors(C((2,)), Model.SSPM)) == 1


class TestEnergy:
    def test_examples(self):
        assert energy(C((3,))) == 6
        assert energy(C((2, 1))) == 4
        assert energy(C((8,))) == 36

    def test_single_column_closed_form(self):
        for n in range(1, 50):
            assert energy(C((n,))) == n * (n + 1) // 2


class TestFixedPoints:
    def test_examples(self):
        assert is_fixed_point(C((1, 2, 1, 1)), Model.SSPM)
        assert is_fixed_point(C((3, 2, 2, 1)), Model.SPM)
        assert not is_fixed_point(C((2, 2)), Model.SSPM)

    def test_spm_sspm_differ(self):
        # stable under the rightward rule alone, not under both
        assert is_fixed_point(C((2, 1)), Model.SPM)
        assert not is_fixed_point(C((2, 1)), Model.SSPM)


@given(shapes, models)
def test_moves_conserve_grains_and_positivity(c, model):
    for mv in enabled_moves(c, model):
        d = apply_move(c, mv)
        assert d.grains == c.grains
        assert min(d.columns) >= 1


@given(shapes, models)
def test_energy_strictly_decreases(c, model):
    for d in successors(c, model):
        assert energy(d) < energy(c)


@given(shapes)
def test_energy_maximal_only_for_single_column(c):
    n = c.grains
    bound = n * (n + 1) // 2
    if c.width == 1:
        assert energy(c) == bound
    else:
        assert energy(c) < bound


@given(shapes)
def test_sspm_fixed_point_shape_characterization(c):
    cols = c.columns
    flat = (
        cols[0] == 1
        and cols[-1] == 1
        and all(abs(a - b) <= 1 for a, b in zip(cols, cols[1:]))
    )
    assert is_fixed_point(c, Model.SSPM) == flat


@given(shapes)
def test_spm_fixed_point_shape_characterization(c):
    cols = c.columns
    gentle = cols[-1] == 1 and all(a - b <= 1 for a, b in zip(cols, cols[1:]))
    assert is_fixed_point(c, Model.SPM) == gentle


@given(shapes, models)
def test_successors_agree_with_enabled_moves(c, model):
    assert successors(c, model) == {
        apply_move(c, mv) for mv in enabled_moves(c, model)
    }


@settings(max_examples=200)
@given(shapes, models)
def test_successors_agree_with_naive_rule_reading(c, model):
    got = {d.columns for d in successors(c, model)}
    assert got == naive_successors(c.columns, model.value)


@given(shapes, models)
def test_purity(c, model):
    assert successors(c, model) == successors(c, model)
    assert enabled_moves(c, model) == enabled_moves(c, model)


@given(st.integers(1, 400))
def test_enumerated_fixed_points_pass_the_constructor_checks(n):
    # enumerate_fixed_points skips the constructor's checks for the tuples
    # it computes (Configuration._trusted); each must be a shape the
    # checked constructor accepts unchanged
    for d in enumerate_fixed_points(n):
        assert d == C(d.columns)


# Every public entry point that takes a model, called on inputs where the
# two rule sets give different answers.
BY_MODEL = {
    "enabled_moves": lambda m: enabled_moves(C((5,)), m),
    "successors": lambda m: successors(C((5,)), m),
    "is_fixed_point": lambda m: is_fixed_point(C((2, 1)), m),
    "build": lambda m: build(C((5,)), m),
    "sink_census": lambda m: sink_census(C((5,)), m),
    "evolve": lambda m: evolve(C((5,)), m, 3),
}


@pytest.mark.parametrize("name", sorted(BY_MODEL))
def test_a_model_may_be_given_by_its_value(name):
    call = BY_MODEL[name]
    assert call(Model.SPM) != call(Model.SSPM)
    for model in Model:
        got = call(model.value)
        assert got == call(model)
        # an orbit graph keeps the member, never the string it was given
        assert getattr(got, "model", model) is model
    with pytest.raises(ValueError, match="bogus"):
        call("bogus")


def test_by_model_lists_every_public_entry_point_that_takes_a_model():
    public = [getattr(sandpiles, name) for name in sandpiles.__all__] + [evolve]
    takes_a_model = {
        f.__name__
        for f in public
        if inspect.isfunction(f) and "model" in inspect.signature(f).parameters
    }
    assert takes_a_model == set(BY_MODEL)
