import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rank1lab.construction import stage_geometry, thm2, toy, utv1
from rank1lab.oracle import IntervalSystem, OrbitWalker, oracle_intersection
from rank1lab.tower import LevelSet, apply_power_bounds, intersect, measure

TOY = toy()
UTV = utv1()


def test_toy_shift_one_fully_defined():
    e1 = LevelSet.base(TOY, 1)
    res = oracle_intersection(e1, e1, 1, 3)
    assert res.value == Fraction(1, 2)
    assert res.undefined_mass == 0


def test_toy_shift_three_fully_defined_at_stage_four():
    e1 = LevelSet.base(TOY, 1)
    res = oracle_intersection(e1, e1, 3, 4)
    assert res.value == Fraction(5, 8)
    assert res.fully_defined


def test_zero_power_is_intersection():
    a = LevelSet.from_levels(UTV, 2, [0, 1])
    b = LevelSet.from_levels(UTV, 2, [1, 4])
    res = oracle_intersection(a, b, 0, 4)
    assert res.fully_defined
    assert res.value == measure(intersect(a, b))


def test_refuses_shift_at_least_tower_height():
    e1 = LevelSet.base(TOY, 1)
    with pytest.raises(ValueError, match="height"):
        oracle_intersection(e1, e1, 7, 3)  # h_3 = 7


def test_intervals_are_disjoint_unit_cells_covering_the_space():
    for params in (TOY, UTV, thm2(2)):
        system = IntervalSystem(params, 4)
        w = system.cell_width
        assert w == stage_geometry(params, 4).level_width
        seen = []
        for level in range(system.height):
            left, right = system.interval(level)
            assert right - left == w
            assert left % w == 0
            seen.append(left / w)
        assert sorted(seen) == list(range(system.height))


def test_translation_moves_levels_by_one_interval():
    system = IntervalSystem(TOY, 3)
    walker = OrbitWalker(LevelSet.single(TOY, 3, 2), 3)
    walker.step()
    (left, right) = system.interval(3)
    assert walker.cells == {int(left / system.cell_width)}
    assert right - left == system.cell_width


def test_backward_steps_fully_defined_away_from_the_base():
    a = LevelSet.single(TOY, 3, 5)
    res = oracle_intersection(a, LevelSet.single(TOY, 3, 3), -2, 5)
    assert res.fully_defined
    calc = apply_power_bounds(a, LevelSet.single(TOY, 3, 3), -2)
    assert calc.exact and calc.value == res.value


def test_backward_orbit_of_the_base_loses_mass():
    # the base sliver E_{j+1} never has a backward image inside the stage-j
    # tower, so a literal backward walk always reports undefined mass; the
    # calculus reaches the exact value through the invertibility swap
    e1 = LevelSet.base(TOY, 1)
    res = oracle_intersection(e1, e1, -1, 4)
    assert res.undefined_mass > 0
    calc = apply_power_bounds(e1, e1, -1)
    assert calc.exact
    assert res.value <= calc.value <= res.value + res.undefined_mass


_stage_levels = st.tuples(
    st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=100)
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([TOY, UTV]),
    _stage_levels,
    _stage_levels,
    st.integers(min_value=-15, max_value=15),
)
def test_matched_budget_identity(params, a_spec, b_spec, n):
    """Oracle (value, undefined) == calculus (lo, hi - lo) at the same stage."""
    stage_a, raw_a = a_spec
    stage_b, raw_b = b_spec
    a = LevelSet.single(params, stage_a, raw_a % stage_geometry(params, stage_a).h)
    b = LevelSet.single(params, stage_b, raw_b % stage_geometry(params, stage_b).h)
    res = oracle_intersection(a, b, n, 6)
    calc = apply_power_bounds(a, b, n, max_stage=6)
    if n >= 0:
        assert res.value == calc.lo
        assert res.undefined_mass == calc.hi - calc.lo
    else:
        # backward walks and the swapped forward computation resolve
        # different partitions; their brackets must still overlap
        assert max(res.value, calc.lo) <= min(res.value + res.undefined_mass, calc.hi)
        if res.fully_defined and calc.exact:
            assert res.value == calc.value


def test_walker_sweep_matches_one_shot_runs():
    a = LevelSet.base(UTV, 2)
    system = IntervalSystem(UTV, 5)
    b_cells = frozenset(system.cells_of(a))
    for direction in (1, -1):
        walker = OrbitWalker(a, 5)
        for n in range(0, 30):
            if n:
                walker.step(direction)
            value = len(walker.cells & b_cells) * system.cell_width
            res = oracle_intersection(a, a, direction * n, 5)
            assert value == res.value
            assert walker.undefined == res.undefined_mass
            assert walker.lost * system.cell_width == res.undefined_mass


def test_deep_power_is_one_pass():
    # a per-step walk costs about n x |A| set operations, here 65,534 steps
    # over 32,768 cells; the bound is a count no such loop can finish, so
    # the check does not depend on host speed
    e1 = LevelSet.base(TOY, 1)
    n = stage_geometry(TOY, 16).h - 1
    start = time.perf_counter()
    res = oracle_intersection(e1, e1, n, 16)
    elapsed = time.perf_counter() - start
    calc = apply_power_bounds(e1, e1, n, max_stage=16)
    assert (res.value, res.undefined_mass) == (calc.lo, calc.hi - calc.lo)
    assert elapsed < 10


def test_mismatched_constructions_rejected():
    system = IntervalSystem(TOY, 3)
    with pytest.raises(ValueError):
        system.cells_of(LevelSet.base(UTV, 2))
    with pytest.raises(ValueError):
        system.cells_of(LevelSet.base(TOY, 4))
