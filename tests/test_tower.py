import math
import sys
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, given, settings, strategies as st

from kernel_blocks import expand, triples
from rank1lab.construction import height, params_from_config, stage_geometry, thm2, toy, utv1
from rank1lab.joinings import partial_joining, partial_joining_grid
import rank1lab.tower as tower_module
from rank1lab.oracle import IntervalSystem, OrbitWalker, oracle_intersection
from rank1lab.products import ProductSystem, dissipativity_scan, product_return
from rank1lab.tower import (
    LevelSet,
    MeasureBound,
    apply_power_bounds,
    difference,
    format_level_set,
    intersect,
    measure,
    parse_level_set,
    power_grid,
    power_profile,
    refine,
    tower_of,
    union,
)

TOY = toy()
UTV = utv1()


def test_sets_of_equal_constructions_built_apart_mix():
    # a construction is its value: sets over two equal params objects pair
    a, b = LevelSet.base(toy(), 1), LevelSet.base(toy(), 2)
    assert a.params is not b.params
    same = LevelSet.base(a.params, 2)
    assert apply_power_bounds(a, b, 3) == apply_power_bounds(a, same, 3)
    assert power_grid([(a, same), (a, b)], [3]) == [[apply_power_bounds(a, b, 3)]] * 2
    assert intersect(a, b) == intersect(a, same)


def test_refine_base_level_through_stages():
    e1 = LevelSet.base(TOY, 1)
    assert refine(e1, 2).levels == (0, 1)
    assert refine(e1, 3).levels == (0, 1, 3, 4)


def test_refine_identity():
    a = LevelSet.from_levels(TOY, 2, [0, 2])
    assert refine(a, 2) is not None
    assert refine(a, 2).levels == a.levels


def test_refine_rejects_coarsening():
    a = LevelSet.base(TOY, 3)
    with pytest.raises(ValueError):
        refine(a, 2)


def test_measure_of_base():
    assert measure(LevelSet.base(TOY, 1)) == 1
    assert measure(LevelSet.base(UTV, 2)) == Fraction(1, 2)


def test_intersect_idempotent():
    e1 = LevelSet.base(TOY, 1)
    assert intersect(e1, e1).levels == refine(e1, 1).levels


def test_intersect_disjoint_levels():
    a = LevelSet.single(TOY, 2, 0)
    b = LevelSet.single(TOY, 2, 1)
    assert measure(intersect(a, b)) == 0


def test_set_algebra_aligns_stages():
    e1 = LevelSet.base(TOY, 1)          # refines to {0,1} at stage 2
    spacer = LevelSet.single(TOY, 2, 2)  # the stage-2 spacer level
    assert intersect(e1, spacer).levels == ()
    assert union(e1, spacer).levels == (0, 1, 2)
    assert difference(union(e1, spacer), e1).levels == (2,)
    assert measure(union(e1, spacer)) == measure(e1) + spacer.measure


def test_levels_validated():
    with pytest.raises(ValueError):
        LevelSet(TOY, 2, (0, 0))
    with pytest.raises(ValueError):
        LevelSet(TOY, 2, (2, 1))
    with pytest.raises(ValueError):
        LevelSet(TOY, 2, (3,))  # h_2 = 3, levels live in [0, 3)
    assert LevelSet.from_levels(TOY, 2, [1, 0, 1]).levels == (0, 1)


_NOT_INTEGERS = [1.5, 2.0, 2.9, Fraction(1), Fraction(3, 2), np.float64(1), np.float32(0.5)]


@pytest.mark.parametrize("value", _NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("build", [
    lambda v: LevelSet(UTV, 2, (v,)),
    lambda v: LevelSet(UTV, 2, (0, v)),
    lambda v: LevelSet(UTV, v, (1,)),
    lambda v: LevelSet.single(UTV, 2, v),
    lambda v: LevelSet.from_levels(UTV, 2, [0.5, v]),
    lambda v: LevelSet.from_levels(UTV, 2, [v]),
], ids=["level", "second level", "stage", "single", "from_levels mixed", "from_levels"])
def test_levels_and_stages_that_are_not_integers_are_refused(build, value):
    """A level or a stage that is not an integer names no level of any tower:
    ``LevelSet(utv1(), 2, (1.5,))`` once stood for a set that does not exist
    (``apply_power_bounds`` gave it an exact 0), and ``single`` and
    ``from_levels`` once rounded 2.9 to 2 and 1.99 to 1.  Each is a
    ``ValueError`` now, even a float or a Fraction with an integral value."""
    with pytest.raises(ValueError, match="stage and levels must be integers"):
        build(value)


def test_numpy_integer_levels_and_stages_pass():
    """``operator.index`` admits numpy integers: ``single`` and
    ``from_levels`` turn them into Python ints, and a set built directly on
    them is the same set."""
    single = LevelSet.single(UTV, np.int32(2), np.int64(3))
    assert single == LevelSet.single(UTV, 2, 3)
    assert all(type(v) is int for v in single.levels)
    listed = LevelSet.from_levels(UTV, 2, np.array([4, 1, 4], dtype=np.int64))
    assert listed.levels == (1, 4) and all(type(v) is int for v in listed.levels)
    assert LevelSet(UTV, np.int64(2), (np.int64(1), np.int16(4))) == listed


def test_apply_power_toy_examples():
    e1 = LevelSet.base(TOY, 1)
    one = apply_power_bounds(e1, e1, 1)
    assert one.exact and one.value == Fraction(1, 2)
    three = apply_power_bounds(e1, e1, 3)
    assert three.exact and three.value == Fraction(5, 8)


def test_apply_power_zero_is_intersection():
    a = LevelSet.from_levels(UTV, 2, [0, 3])
    b = LevelSet.from_levels(UTV, 2, [3, 4])
    bound = apply_power_bounds(a, b, 0)
    assert bound.exact and bound.value == measure(intersect(a, b))


def test_apply_power_requires_same_construction():
    with pytest.raises(ValueError):
        apply_power_bounds(LevelSet.base(TOY, 1), LevelSet.base(UTV, 1), 1)


def test_unresolved_interval_is_honest():
    # toy's top stage-3 level pushed far: resolution needs ~stage 18
    a = LevelSet.single(TOY, 3, 6)
    bound = apply_power_bounds(a, LevelSet.base(TOY, 3), 15, max_stage=6)
    assert not bound.exact
    assert bound.lo <= bound.hi
    deep = apply_power_bounds(a, LevelSet.base(TOY, 3), 15, max_stage=18)
    assert deep.exact


def test_monotone_tightening():
    a = LevelSet.single(TOY, 3, 6)
    b = LevelSet.base(TOY, 3)
    previous = apply_power_bounds(a, b, 15, max_stage=5)
    for budget in range(6, 19):
        bound = apply_power_bounds(a, b, 15, max_stage=budget)
        assert previous.lo <= bound.lo and bound.hi <= previous.hi
        previous = bound


def test_the_environment_sets_no_stage_cap(monkeypatch):
    """max_stage is the one stage cap: RANK1_MAX_STAGE, once a global cap,
    changes no answer of the kernel or of the product-return memo."""
    e1 = LevelSet.base(TOY, 1)
    monkeypatch.setenv("RANK1_MAX_STAGE", "6")
    free = apply_power_bounds(e1, e1, 15)
    assert free.resolved_stage == 13
    assert product_return(ProductSystem(TOY, 1, TOY, 1), e1, e1, 15) == free.times(free)


@pytest.mark.parametrize("query", [
    lambda e1, max_stage: apply_power_bounds(e1, e1, 3, max_stage),
    lambda e1, max_stage: power_profile(e1, e1, [3], max_stage),
    lambda e1, max_stage: power_grid([(e1, e1)], [3], max_stage),
    lambda e1, max_stage: product_return(ProductSystem(TOY, 1, TOY, 1), e1, e1, 3, max_stage),
    lambda e1, max_stage: dissipativity_scan(ProductSystem(TOY, 1, TOY, 1), e1, e1, 2, 3, 1,
                                             max_stage),
], ids=["apply_power_bounds", "power_profile", "power_grid", "product_return",
        "dissipativity_scan"])
def test_a_stage_cap_below_1_is_rejected(query):
    """A max_stage below 1 is an error, as --max-stage is; one below the start
    stage (h_3 = 7 > 3 on toy) still means the start stage."""
    e1 = LevelSet.base(TOY, 1)
    for max_stage in (-5, 0):
        with pytest.raises(ValueError, match=f"max_stage must be >= 1, got {max_stage}"):
            query(e1, max_stage)
    assert query(e1, 1) == query(e1, 3)


_toy_sets = st.builds(
    lambda levels, stage: LevelSet.from_levels(TOY, stage, [l % stage_geometry(TOY, stage).h for l in levels]),
    st.lists(st.integers(min_value=0, max_value=200), min_size=0, max_size=6),
    st.integers(min_value=2, max_value=4),
)
_utv_sets = st.builds(
    lambda levels, stage: LevelSet.from_levels(UTV, stage, [l % stage_geometry(UTV, stage).h for l in levels]),
    st.lists(st.integers(min_value=0, max_value=200), min_size=0, max_size=6),
    st.integers(min_value=2, max_value=4),
)


@settings(max_examples=50, deadline=None)
@given(_toy_sets | _utv_sets, st.integers(min_value=0, max_value=4))
def test_refinement_preserves_measure(a, extra):
    assert measure(refine(a, a.stage + extra)) == measure(a)


@settings(max_examples=50, deadline=None)
@given(_utv_sets, _utv_sets, st.integers(min_value=-40, max_value=40))
def test_invertibility_identity(a, b, n):
    forward = apply_power_bounds(a, b, n)
    backward = apply_power_bounds(b, a, -n)
    assert (forward.lo, forward.hi) == (backward.lo, backward.hi)


@settings(max_examples=50, deadline=None)
@given(_utv_sets, _utv_sets, st.integers(min_value=-30, max_value=30))
def test_low_bound_below_both_masses(a, b, n):
    bound = apply_power_bounds(a, b, n)
    assert bound.lo <= min(measure(a), measure(b))


_spacer_rules = st.one_of(
    st.just("zero"),
    st.builds(lambda c: {"rule": "constant", "c": c}, st.integers(0, 3)),
    st.builds(lambda c: {"rule": "linear", "c": c}, st.integers(0, 2)),
    st.builds(lambda c: {"rule": "times_height", "c": c}, st.integers(0, 1)),
    st.just({"rule": "j_times_h"}),
    st.just({"rule": "blocks"}),
)
_constructions = st.builds(
    lambda h1, r, spacers, width: params_from_config(
        {"h1": h1, "base_width": width, "stages": {"r": r, "spacers": spacers}}),
    st.integers(1, 3),
    st.sampled_from([2, 3, {"rule": "j_plus", "c": 1}]),
    st.lists(_spacer_rules, max_size=2),
    st.sampled_from(["1/1", "2/3"]),
)
_ORACLE_CELLS = 400  # keeps each brute-force walk small


def _deepest_oracle_stage(params):
    """The deepest stage <= 6 whose tower the oracle can walk quickly."""
    deepest = 1
    while deepest < 6 and stage_geometry(params, deepest + 1).h <= _ORACLE_CELLS:
        deepest += 1
    return deepest


@st.composite
def _oracle_queries(draw):
    params = draw(_constructions)
    # the budget J may equal the sets' own stage
    J = draw(st.integers(1, _deepest_oracle_stage(params)))

    def level_set():
        stage = draw(st.integers(1, min(J, 3)))
        h = stage_geometry(params, stage).h
        levels = draw(st.lists(st.integers(0, h - 1), max_size=4))
        return LevelSet.from_levels(params, stage, levels)

    a, b = level_set(), level_set()
    h_J = stage_geometry(params, J).h
    return a, b, draw(st.integers(-(h_J - 1), h_J - 1)), J


@settings(max_examples=150, deadline=None)
@given(_oracle_queries())
def test_kernel_matches_oracle_at_matched_budget(query):
    """(lo, hi - lo) is the oracle's (value, undefined mass) at stage J, for
    random constructions of the config grammar; n < 0 is the forward walk of
    the swapped pair."""
    a, b, n, J = query
    bound = apply_power_bounds(a, b, n, max_stage=J)
    res = oracle_intersection(a, b, n, J) if n >= 0 else oracle_intersection(b, a, -n, J)
    assert (bound.lo, bound.hi - bound.lo) == (res.value, res.undefined_mass)
    assert bound.resolved_stage <= J


def _stepped(system, cells, n):
    """T^n of a cell set through |n| single moves of one level, read off the
    interval layout; returns the image and the number of cells lost."""
    level_of = {int(system.interval(level)[0] / system.cell_width): level
                for level in range(system.height)}
    cell_of = {level: cell for cell, level in level_of.items()}
    lost = 0
    for _ in range(abs(n)):
        moved = set()
        for cell in cells:
            image = cell_of.get(level_of[cell] + (1 if n > 0 else -1))
            if image is None:
                lost += 1
            else:
                moved.add(image)
        cells = moved
    return cells, lost


@st.composite
def _walks(draw):
    params = draw(_constructions)
    J = draw(st.integers(1, _deepest_oracle_stage(params)))
    stage = draw(st.integers(1, min(J, 3)))
    h = stage_geometry(params, stage).h
    a = LevelSet.from_levels(params, stage, draw(st.lists(st.integers(0, h - 1), max_size=4)))
    # both signs, and powers past the tower height that empty the set
    h_J = stage_geometry(params, J).h
    return a, J, draw(st.lists(st.integers(-h_J - 2, h_J + 2), min_size=1, max_size=3))


@settings(max_examples=100, deadline=None)
@given(_walks())
def test_walker_power_matches_single_steps(walk):
    """One OrbitWalker.step(n) moves the cells, the lost count and the power
    exactly as |n| literal one-level moves, for random config-grammar
    constructions and multi-level sets."""
    a, J, powers = walk
    walker = OrbitWalker(a, J)
    system = IntervalSystem(a.params, J)
    cells, lost = set(walker.cells), 0
    for n in powers:
        walker.step(n)
        cells, dropped = _stepped(system, cells, n)
        lost += dropped
        assert (walker.cells, walker.lost) == (cells, lost)
    assert walker.power == sum(powers)


@st.composite
def _orbit_grids(draw):
    params = draw(st.sampled_from([TOY, utv1(), thm2(2)]) | _constructions)
    J = draw(st.integers(1, _deepest_oracle_stage(params)))

    def level_set():
        stage = draw(st.integers(1, min(J, 3)))
        h = stage_geometry(params, stage).h
        return LevelSet.from_levels(params, stage, draw(st.lists(st.integers(0, h - 1),
                                                                  max_size=4)))

    # 0-4 sources, each a fresh (possibly empty) set or a repeat of an earlier one
    sources = []
    for _ in range(draw(st.integers(0, 4))):
        repeat = sources and draw(st.booleans())
        sources.append(draw(st.sampled_from(sources)) if repeat else level_set())
    targets = [level_set() for _ in range(draw(st.integers(0, 5)))]
    # a run of powers of one sign, up to past the tower height
    last = draw(st.integers(0, stage_geometry(params, J).h + 2))
    return params, sources, targets, J, draw(st.sampled_from([1, -1])), last


@settings(max_examples=100, deadline=None)
@given(_orbit_grids())
def test_orbit_counts_match_the_literal_walk(grid):
    """One orbit_counts call yields, for each source in order and every power
    of a run, the hits of a literal walk of that source (step(1) or step(-1),
    then a set intersection with cells_of(b)) and the cells it lost, on toy,
    utv1, thm2(2) and random config-grammar constructions, with repeated and
    empty sources and multi-level, overlapping and empty targets."""
    params, sources, targets, J, direction, last = grid
    system = IntervalSystem(params, J)
    powers = [direction * n for n in range(last + 1)]
    rows = list(system.orbit_counts(sources, targets, powers))
    assert len(rows) == len(sources)
    for a, (hits, lost) in zip(sources, rows):
        assert hits.shape == (len(targets), len(powers)) and lost.shape == (len(powers),)
        walker = OrbitWalker(a, J)
        for i in range(len(powers)):
            if i:
                walker.step(direction)
            assert lost[i] == walker.lost
            for t, b in enumerate(targets):
                assert hits[t, i] == len(walker.cells & system.cells_of(b))


def _replayed_layouts(params, J):
    """cell_of_level of stages 1..J, replayed one cell at a time: each cut
    slices every level in place (cell * r + column) and each spacer takes the
    next free cell at the end of the used line."""
    cells = list(range(params.h1))
    layouts = [cells]
    for index in range(1, J):
        h, r = len(cells), params.cut_count(index)
        spacers = params.spacer_vector(index, h)
        sliced, free = [], h * r
        for column in range(r):
            for level in range(h):
                sliced.append(cells[level] * r + column)
            for _ in range(spacers[column]):
                sliced.append(free)
                free += 1
        cells = sliced
        layouts.append(cells)
    return layouts


@settings(max_examples=100, deadline=None)
@given(_constructions)
def test_oracle_table_is_the_literal_replay(params):
    """Every stage's array table is the per-cell replay of the stacking rule,
    and a permutation of the cells: ``argsort`` inverts it both ways."""
    for j, cells in enumerate(_replayed_layouts(params, _deepest_oracle_stage(params)), 1):
        system = IntervalSystem(params, j)
        assert system.cell_of_level.tolist() == cells
        levels = list(range(len(cells)))
        inverse = np.argsort(system.cell_of_level)
        assert inverse[system.cell_of_level].tolist() == levels
        assert system.cell_of_level[inverse].tolist() == levels


@st.composite
def _profile_queries(draw):
    params = draw(_constructions)

    def level_set():
        stage = draw(st.integers(1, 4))
        h = stage_geometry(params, stage).h
        levels = draw(st.lists(st.integers(0, h - 1), max_size=5))
        return LevelSet.from_levels(params, stage, levels)

    a, b = level_set(), level_set()
    reach = stage_geometry(params, draw(st.integers(2, 7))).h
    # unsorted, with repeats and negative shifts
    shifts = draw(st.lists(st.integers(-reach, reach), min_size=1, max_size=30))
    shifts += draw(st.lists(st.sampled_from(shifts), max_size=5))
    return a, b, shifts, draw(st.none() | st.integers(1, 12))


@settings(max_examples=150, deadline=None)
@given(_profile_queries())
def test_power_profile_equals_single_queries(query):
    """One profile call answers exactly like one apply_power_bounds per shift,
    for random config-grammar constructions and budgets."""
    a, b, shifts, max_stage = query
    profile = power_profile(a, b, shifts, max_stage)
    single = [apply_power_bounds(a, b, n, max_stage) for n in shifts]
    assert [(x.lo, x.hi, x.resolved_stage) for x in profile] == [
        (x.lo, x.hi, x.resolved_stage) for x in single]


@settings(max_examples=150, deadline=None)
@given(_profile_queries())
def test_level_counts_scale_to_power_profile(query):
    """The kernel's integer triples, times the level width of their stage, are
    exactly the bounds of power_profile."""
    a, b, shifts, max_stage = query
    scaled = []
    for count, overflow, K in triples(tower_of(a.params), [(a, b)], shifts, max_stage)[0]:
        width = stage_geometry(a.params, K).level_width
        scaled.append((count * width, (count + overflow) * width, K))
    assert scaled == [(x.lo, x.hi, x.resolved_stage)
                      for x in power_profile(a, b, shifts, max_stage)]


def test_power_profile_edge_cases():
    e1 = LevelSet.base(TOY, 1)
    assert power_profile(e1, e1, []) == []
    assert power_profile(e1, e1, iter([3, -3])) == [apply_power_bounds(e1, e1, 3)] * 2
    with pytest.raises(ValueError):
        power_profile(e1, LevelSet.base(UTV, 1), [1])


@st.composite
def _grid_queries(draw):
    params = draw(_constructions)

    def level_set():
        stage = draw(st.integers(1, 4))
        h = stage_geometry(params, stage).h
        levels = draw(st.lists(st.integers(0, h - 1), max_size=4))  # may be empty
        return LevelSet.from_levels(params, stage, levels)

    # a small pool, so that pairs share A, share B and mix stages; a refined
    # copy is the same source written at a deeper stage
    pool = [level_set() for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        pool.append(refine(pool[0], pool[0].stage + 1))
    pairs = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)),
                          max_size=8))
    reach = stage_geometry(params, draw(st.integers(2, 7))).h
    # unsorted, with repeats and negative shifts
    shifts = draw(st.lists(st.integers(-reach, reach), max_size=12))
    if shifts:
        shifts += draw(st.lists(st.sampled_from(shifts), max_size=4))
    return pairs, shifts, draw(st.none() | st.integers(1, 12))


@st.composite
def _target_grids(draw):
    params = draw(_constructions)
    j0 = draw(st.integers(2, 4))

    def level_set(stage):
        h = stage_geometry(params, stage).h
        return LevelSet.from_levels(params, stage, draw(st.lists(st.integers(0, h - 1),
                                                                  max_size=4)))

    # the source sits at j0, so every shallower target is refined to it
    a = level_set(j0)
    targets = [level_set(draw(st.integers(1, j0))) for _ in range(draw(st.integers(1, 4)))]
    targets += [union(targets[0], targets[-1]), LevelSet(params, 1, ()), a]
    j = draw(st.integers(j0, j0 + 2))
    reach = stage_geometry(params, j).h
    shifts = draw(st.lists(st.integers(-reach, reach), min_size=1, max_size=8))
    return a, targets, shifts, j, draw(st.none() | st.integers(1, 10))


@settings(max_examples=100, deadline=None)
@given(_target_grids())
def test_one_target_index_serves_every_target(grid):
    """One source against many targets (multi-level, overlapping, empty and
    refined from below j0) counts each pair as its own one-pair grid does,
    and partial_joining equals the literal count of stage-j level pairs."""
    a, targets, shifts, j, max_stage = grid
    tower = tower_of(a.params)
    pairs = [(a, b) for b in targets]
    assert triples(tower, pairs, shifts, max_stage) == [
        triples(tower, [pair], shifts, max_stage)[0] for pair in pairs]
    source, width = refine(a, j).levels, stage_geometry(a.params, j).level_width
    for b in targets:
        levels = set(refine(b, j).levels)
        for k in shifts:
            count = sum(x + k in levels for x in source)
            assert partial_joining(a, b, k, j).value == count * width


@settings(max_examples=150, deadline=None)
@given(_grid_queries())
def test_grid_counts_equal_single_queries(query):
    """One grid pass gives every (pair, shift) the triple of its own one-pair,
    one-shift query, for random config-grammar constructions, grids that
    share sources and targets, mixed stages and budgets."""
    pairs, shifts, max_stage = query
    if not pairs:
        return
    tower = tower_of(pairs[0][0].params)
    assert triples(tower, pairs, shifts, max_stage) == [
        [triples(tower, [(a, b)], [n], max_stage)[0][0] for n in shifts]
        for a, b in pairs]


@st.composite
def _family_grids(draw):
    """Grids over the named families: sets at stages 1-4 sharing sources and
    targets, both signs of n, repeated shifts and stage caps."""
    params = draw(st.sampled_from([TOY, UTV, thm2(2), thm2(3)]))

    def level_set():
        stage = draw(st.integers(1, 4))
        h = stage_geometry(params, stage).h
        return LevelSet.from_levels(params, stage, draw(st.lists(st.integers(0, h - 1),
                                                                  max_size=3)))

    pool = [level_set() for _ in range(draw(st.integers(1, 4)))]
    pairs = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)),
                          min_size=1, max_size=6))
    reach = stage_geometry(params, draw(st.integers(2, 6))).h
    shifts = draw(st.lists(st.integers(-reach, reach), min_size=1, max_size=8))
    shifts += draw(st.lists(st.sampled_from(shifts), max_size=4))
    return pairs, shifts, draw(st.sampled_from([None, 1, 3, 5, 8]))


@settings(max_examples=150, deadline=None)
@given(_family_grids())
def test_blocks_equal_one_query_per_cell(query):
    """Each cell of the expanded ``grid_counts`` blocks is the (count,
    overflow, K) of its own one-pair, one-shift grid; there is one block per
    j0 and sign of n, and each span of a block holds the pairs of its own
    source set; and ``power_grid`` gives each cell the lo, hi and resolved
    stage of its own ``apply_power_bounds``, with equal answers sharing one
    bound."""
    pairs, shifts, max_stage = query
    tower = tower_of(pairs[0][0].params)
    blocks = tower.grid_counts(pairs, shifts, max_stage)
    assert expand(blocks, len(pairs), len(shifts)) == [
        [triples(tower, [pair], [n], max_stage)[0][0] for n in shifts] for pair in pairs]
    groups = set()
    for rows, cols, _, spans in blocks:
        (backward,) = {shifts[col] < 0 for col in cols}
        (j0,) = {max(a.stage, b.stage) for a, b in map(pairs.__getitem__, rows)}
        groups.add((j0, backward))
        sources, start = set(), 0
        for end, _, _ in spans:
            (source,) = {(pairs[i][backward].stage, pairs[i][backward].levels)
                         for i in rows[start:end]}
            sources.add(source)
            start = end
        assert len(sources) == len(spans)
    assert len(groups) == len(blocks) == len(
        {(max(a.stage, b.stage), n < 0) for a, b in pairs for n in shifts})
    grid = power_grid(pairs, shifts, max_stage)
    assert [[(x.lo, x.hi, x.resolved_stage) for x in row] for row in grid] == [
        [(x.lo, x.hi, x.resolved_stage)
         for x in (apply_power_bounds(a, b, n, max_stage) for n in shifts)]
        for a, b in pairs]
    shared = {}
    for row in grid:
        for x in row:
            assert shared.setdefault((x.lo, x.hi, x.resolved_stage), x) is x


def test_a_grid_holds_one_count_list_per_group_and_shift():
    """utv1's 120 stage-4 levels, each against E4 and the top level, over
    the 719 shifts in (-3h_4, 3h_4): two (j0, sign) groups, one forward and
    one backward, so the blocks hold one count list per shift, 719 in all,
    not one per source and shift (43,918).  With the pair tables warm, the
    blocks hold under 20 bytes per (pair, shift) cell (a list slot is 8);
    per-source copies of the columns held about 30."""
    h4 = stage_geometry(UTV, 4).h
    pairs = [(LevelSet.single(UTV, 4, level), b) for level in range(h4)
             for b in (LevelSet.base(UTV, 4), LevelSet.single(UTV, 4, h4 - 1))]
    shifts = range(-3 * h4 + 1, 3 * h4)
    tower = tower_module.Tower(UTV)
    tower.grid_counts(pairs, shifts, None)  # fills the pair tables
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        blocks = tower.grid_counts(pairs, shifts, None)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(blocks) == 2
    assert len({id(column) for _, _, counts, _ in blocks for column in counts}) == len(shifts)
    assert held / (len(pairs) * len(shifts)) < 20


@settings(max_examples=150, deadline=None)
@given(_grid_queries())
def test_power_grid_equals_power_profiles(query):
    pairs, shifts, max_stage = query
    grid = power_grid(iter(pairs), shifts, max_stage)
    assert [[(x.lo, x.hi, x.resolved_stage) for x in row] for row in grid] == [
        [(x.lo, x.hi, x.resolved_stage) for x in power_profile(a, b, shifts, max_stage)]
        for a, b in pairs]


def test_power_grid_edge_cases():
    e1, e2 = LevelSet.base(TOY, 1), LevelSet.base(TOY, 2)
    assert power_grid([], [1, 2]) == []
    assert power_grid([(e1, e2), (e2, e1)], []) == [[], []]
    with pytest.raises(ValueError):
        power_grid([(e1, e1), (LevelSet.base(UTV, 1), LevelSet.base(UTV, 1))], [1])
    with pytest.raises(ValueError):
        power_grid([(e1, LevelSet.base(UTV, 1))], [1])


@settings(max_examples=100, deadline=None)
@given(_profile_queries())
def test_negative_shift_is_the_mirrored_query(query):
    """mu(T^n A /\\ B) and mu(T^{-n} B /\\ A) are one query: equal lo, hi and
    resolved stage."""
    a, b, shifts, max_stage = query
    for n in shifts:
        assert apply_power_bounds(a, b, n, max_stage) == apply_power_bounds(b, a, -n, max_stage)


def test_negative_query_enters_apply_power_bounds_once(monkeypatch):
    entered = []
    original = tower_module.apply_power_bounds

    def counted(*args, **kwargs):
        entered.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(tower_module, "apply_power_bounds", counted)
    a, b = LevelSet.single(UTV, 2, 3), LevelSet.single(UTV, 2, 2)
    bound = tower_module.apply_power_bounds(a, b, -121)
    assert entered == [-121]
    assert bound == original(b, a, 121)


def _refined(tower, stage, levels, to_stage):
    """The levels of a stage-``stage`` set written out at ``to_stage``."""
    for k in range(stage, to_stage):
        levels = [off + lvl for off in tower.stage(k).column_offsets for lvl in levels]
    return levels


def _frontier_pair_counts(tower, index, shifts, K):
    """Reference for ``Tower.pair_counts`` that keeps no table and counts one
    shift at a time: a column per n of ``shifts``."""
    return [_frontier_column(tower, index, n, K) for n in shifts]


def _frontier_column(tower, index, n, K):
    """One shift of ``_frontier_pair_counts``: for each cell (source, target)
    of the index, both sets refined to their common stage J, then the digit
    recursion walked top-down as one frontier of values v = n + s - (o' - o),
    each peeled stage pruned to the span of the refined target, and the
    final frontier read against the target's levels."""
    counts = []
    for source_set, target_set in index.cells:
        J = max(source_set.stage, target_set.stage)
        holders = set(_refined(tower, target_set.stage, target_set.levels, J))
        source = _refined(tower, source_set.stage, source_set.levels, J)
        if not source or not holders:
            counts.append(0)
            continue
        low, high = min(holders), max(holders)
        base = tower.stage(J).top
        frontier = {n + x: 1 for x in source}
        for k in range(K - 1, J - 1, -1):
            st = tower.stage(k)
            reach = st.top - base
            diffs, mults = st.offset_differences
            step = {}
            for v, weight in frontier.items():
                for d, mult in zip(diffs, mults):
                    if v - high - reach <= d <= v - low + reach:
                        step[v - d] = step.get(v - d, 0) + weight * mult
            frontier = step
        counts.append(sum(weight for v, weight in frontier.items() if v in holders))
    return counts


@st.composite
def _batches(draw):
    """Cells of sources, each against its own targets, at mixed stages, and a batch
    of shifts of both signs at a stage K at or below three past them, with
    repeats, plus a few of the batch's shifts counted first."""
    params = draw(st.sampled_from([TOY, UTV, thm2(2), thm2(3)]))

    def level_set():
        stage = draw(st.integers(1, 3))
        h = stage_geometry(params, stage).h
        return LevelSet.from_levels(params, stage, draw(st.lists(st.integers(0, h - 1),
                                                                  max_size=4)))

    sources = [level_set() for _ in range(draw(st.integers(1, 3)))]
    cells = [(source, level_set()) for source in sources
             for _ in range(draw(st.integers(1, 3)))]
    K = max(max(source.stage, target.stage) for source, target in cells)
    K += draw(st.integers(0, 3))
    reach = stage_geometry(params, K).h
    menu = draw(st.lists(st.integers(-reach, reach), min_size=1, max_size=6))
    shifts = draw(st.lists(st.sampled_from(menu), min_size=1, max_size=10))
    first = draw(st.lists(st.sampled_from(menu), max_size=3))
    return params, tower_module.TargetIndex(cells), shifts, first, K


@settings(max_examples=120, deadline=None)
@given(_batches())
def test_batched_pair_counts_equal_one_shift_at_a_time(batch):
    """One ``pair_counts`` batch gives, per shift, the column of the
    tableless walk that counts one shift at a time: on a cold tower, and on
    one whose table already holds the keys of some of the batch's shifts.
    The batch leaves the table entries that one call per shift leaves."""
    params, index, shifts, first, K = batch
    expected = _frontier_pair_counts(tower_module.Tower(params), index, shifts, K)
    cold, warm, single = (tower_module.Tower(params) for _ in range(3))
    for kernel in (cold, warm, single):
        kernel.stage(K)
    assert cold.pair_counts(index, shifts, K) == expected
    warm.pair_counts(index, first, K)
    assert warm.pair_counts(index, shifts, K) == expected
    assert [single.pair_counts(index, [n], K)[0] for n in shifts] == expected
    assert single._pairs == cold._pairs


@st.composite
def _kernel_queries(draw):
    params = draw(_constructions)

    def level_set():
        stage = draw(st.integers(1, 3))
        h = stage_geometry(params, stage).h
        return LevelSet.from_levels(params, stage, draw(st.lists(st.integers(0, h - 1),
                                                                  max_size=4)))

    pool = [level_set() for _ in range(draw(st.integers(1, 3)))]
    pairs = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)),
                          min_size=1, max_size=5))
    reach = stage_geometry(params, draw(st.integers(2, 6))).h
    shifts = draw(st.lists(st.integers(-reach, reach), min_size=1, max_size=10))
    return pairs, shifts, draw(st.sampled_from([None, 4, 6, 9])), draw(st.integers(0, 3))


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_kernel_queries())
def test_pair_table_matches_the_frontier_walk(monkeypatch, query):
    """Counts read from the pair-count table equal the tableless frontier
    walk's: ``grid_counts`` triples on a fresh tower (random constructions,
    sets at stages 1-3, negative shifts, stage budgets) and ``partial_joining``
    values at stages j0..j0+3."""
    pairs, shifts, max_stage, extra = query
    params = pairs[0][0].params
    joinings = [(a, b, k, j) for a, b in pairs
                for j in [max(a.stage, b.stage) + extra]
                for k in shifts if abs(k) <= stage_geometry(params, j).h]
    counted = triples(tower_module.Tower(params), pairs, shifts, max_stage)
    values = [partial_joining(*args) for args in joinings]
    with monkeypatch.context() as patched:
        patched.setattr(tower_module.Tower, "pair_counts", _frontier_pair_counts)
        assert triples(tower_module.Tower(params), pairs, shifts, max_stage) == counted
        assert [partial_joining(*args) for args in joinings] == values


@settings(max_examples=60, deadline=None)
@given(_kernel_queries())
def test_pair_table_does_not_depend_on_query_order(query):
    """Two fresh towers fill their tables in opposite orders, shift by shift
    and pair by pair, and give the same triples as one grid call."""
    pairs, shifts, max_stage, _ = query
    params = pairs[0][0].params
    forward, backward = tower_module.Tower(params), tower_module.Tower(params)
    one_by_one = [[triples(forward, [pair], [n], max_stage)[0][0] for n in shifts]
                  for pair in pairs]
    reversed_grid = triples(backward, pairs[::-1], shifts[::-1], max_stage)
    assert one_by_one == [row[::-1] for row in reversed_grid[::-1]]
    assert one_by_one == triples(tower_module.Tower(params), pairs, shifts, max_stage)


@st.composite
def _shared_stage_grids(draw):
    """Many source sets at one stage (single levels, random sets and the
    empty set) against targets at stages around it, in both orientations, so
    each sign of n has many sources per stage; shifts next to tower heights,
    where the sources' top levels cross the top at different stages, and
    stage caps that leave some of them unresolved."""
    params = draw(st.sampled_from([TOY, UTV, thm2(2), thm2(3)]))
    stage = draw(st.integers(1, 3))
    h = stage_geometry(params, stage).h

    def level_set(at):
        top = stage_geometry(params, at).h
        return LevelSet.from_levels(params, at, draw(st.lists(st.integers(0, top - 1),
                                                               max_size=3)))

    singles = draw(st.lists(st.integers(0, h - 1), min_size=min(2, h), max_size=6,
                            unique=True))
    sources = [LevelSet.single(params, stage, level) for level in singles]
    sources += [level_set(stage) for _ in range(draw(st.integers(0, 2)))]
    sources.append(LevelSet(params, stage, ()))
    targets = [level_set(draw(st.integers(1, stage + 1))) for _ in range(draw(st.integers(1, 3)))]
    targets.append(LevelSet(params, draw(st.integers(1, stage + 1)), ()))
    pairs = [(a, b) for a in sources for b in targets] + [(b, a) for a in sources for b in targets]
    # n = h_K - (top_K - top_stage) - l puts the top of level l's copies at
    # stage K just past h_K, so the sources above l need a deeper K
    base = stage_geometry(params, stage).top
    edges = [stage_geometry(params, k).h - stage_geometry(params, k).top + base
             for k in range(stage, stage + 4)]
    near = st.builds(lambda edge, level, sign: sign * max(0, edge - level),
                     st.sampled_from(edges), st.integers(-1, h), st.sampled_from([1, -1]))
    reach = stage_geometry(params, stage + 3).h
    shifts = draw(st.lists(st.one_of(near, near, st.integers(-reach, reach)), min_size=1,
                           max_size=6))
    max_stage = draw(st.sampled_from([None, stage + 1, stage + 2, stage + 4]))
    return pairs, shifts, max_stage


@settings(max_examples=80, deadline=None)
@given(_shared_stage_grids())
def test_shared_index_equals_one_query_per_cell(query):
    """The sources of one stage share one index and read each pair-table
    value once, at the deepest K of their shift.  Every cell's (count,
    overflow, K) gives the lo, hi and resolved stage of its own
    ``apply_power_bounds``; a source resolved at K below the deepest K' of
    its (j0, sign) group overflows nothing at K, and its count at K' is its
    count at K times ``copies_K' // copies_K``.  The shared tower's pair
    table holds every entry of one grid per pair, with the same value."""
    pairs, shifts, max_stage = query
    params = pairs[0][0].params
    shared = tower_module.Tower(params)
    cells = triples(shared, pairs, shifts, max_stage)
    for (a, b), row in zip(pairs, cells):
        for n, (count, overflow, K) in zip(shifts, row):
            width = stage_geometry(params, K).level_width
            bound = apply_power_bounds(a, b, n, max_stage)
            assert (count * width, (count + overflow) * width, K) == (
                bound.lo, bound.hi, bound.resolved_stage)
    alone = tower_module.Tower(params)
    for pair in pairs:
        triples(alone, [pair], shifts, max_stage)
    for at, table in alone._pairs.items():
        assert table.items() <= shared._pairs[at].items()
    apart = 0
    for col, n in enumerate(shifts):
        deepest = {}  # j0 -> the deepest K of its sources at n (one sign per column)
        for (a, b), row in zip(pairs, cells):
            group = max(a.stage, b.stage)
            deepest[group] = max(deepest.get(group, 0), row[col][2])
        for (a, b), row in zip(pairs, cells):
            count, overflow, K = row[col]
            deep = deepest[max(a.stage, b.stage)]
            if K == deep:
                continue
            apart += 1
            source, target = (b, a) if n < 0 else (a, b)
            index = tower_module.TargetIndex([(source, target)])
            ratio = alone.stage(deep).copies // alone.stage(K).copies
            assert overflow == 0
            assert alone.pair_counts(index, [abs(n)], deep) == [[ratio * count]]
    event(f"cells resolved below their shift's deepest K: {min(apart, 3)}")


def test_sources_resolved_apart_share_one_count_at_the_deepest_stage(monkeypatch):
    """toy's seven stage-3 levels against E3 at n = 7 (h_4 = 15): T^7 keeps
    levels 0 and 1 of the stage-4 tower inside, the others overflow and
    resolve deeper, so one shift needs several K.  The shift is still counted
    once, at the deepest K, and the counts equal one query per source."""
    sources = [LevelSet.single(TOY, 3, level) for level in range(7)]
    target = LevelSet.base(TOY, 3)
    pairs = [(a, target) for a in sources]
    calls = []
    pair_counts = tower_module.Tower.pair_counts

    def counted(self, index, shifts, K):
        calls.append((list(shifts), K))
        return pair_counts(self, index, shifts, K)

    monkeypatch.setattr(tower_module.Tower, "pair_counts", counted)
    rows = triples(tower_module.Tower(TOY), pairs, [7], 6)
    stages = [K for ((_, _, K),) in rows]
    assert len(set(stages)) > 1
    assert calls == [([7], max(stages))]
    monkeypatch.undo()
    assert rows == [triples(tower_module.Tower(TOY), [pair], [7], 6)[0] for pair in pairs]


@st.composite
def _mixed_stage_queries(draw):
    """Pairs of sets up to ``gap`` stages apart, in both orientations, with
    shifts of both signs, stage caps and partial-joining stages."""
    params, gap = draw(st.sampled_from([(TOY, 8), (UTV, 3), (thm2(2), 4), (thm2(3), 4)]))

    def level_set(stage):
        h = stage_geometry(params, stage).h
        return LevelSet.from_levels(params, stage, draw(st.lists(st.integers(0, h - 1),
                                                                  max_size=3)))

    shallow = draw(st.integers(1, 2))
    deep = shallow + draw(st.integers(1, gap))
    low, high = level_set(shallow), level_set(deep)
    pool = [low, high, level_set(draw(st.integers(shallow, deep)))]
    # the deeper set is the source of (high, low) at n >= 0 and of (low, high) at n < 0
    pairs = [(low, high), (high, low)] + draw(st.lists(
        st.tuples(st.sampled_from(pool), st.sampled_from(pool)), max_size=3))
    reach = stage_geometry(params, deep + draw(st.integers(0, 2))).h
    shifts = draw(st.lists(st.integers(-reach, reach), min_size=1, max_size=6))
    max_stage = draw(st.sampled_from([None, deep, deep + 2]))
    return pairs, shifts, max_stage, draw(st.integers(0, 2))


@settings(max_examples=60, deadline=None)
@given(_mixed_stage_queries())
def test_mixed_stage_pairs_equal_the_refined_pairs(query):
    """A pair of sets at two stages counts exactly as the pair with its
    shallower set written out at the deeper stage: equal ``grid_counts``
    triples (count, overflow and resolved stage) and ``partial_joining``
    values, for stage gaps up to 8 (toy) and 4 (thm2), a deeper source and
    n < 0."""
    pairs, shifts, max_stage, extra = query
    params = pairs[0][0].params
    tower = tower_of(params)

    def written_out(a, j0):
        return LevelSet(params, j0, tuple(_refined(tower, a.stage, list(a.levels), j0)))

    refined = [(written_out(a, j0), written_out(b, j0))
               for a, b in pairs for j0 in [max(a.stage, b.stage)]]
    assert (triples(tower_module.Tower(params), pairs, shifts, max_stage)
            == triples(tower_module.Tower(params), refined, shifts, max_stage))
    for (a, b), (ra, rb) in zip(pairs, refined):
        j = ra.stage + extra
        for k in shifts:
            if abs(k) <= stage_geometry(params, j).h:
                assert partial_joining(a, b, k, j) == partial_joining(ra, rb, k, j)


@st.composite
def _mixed_oracle_queries(draw):
    params = draw(st.sampled_from([TOY, UTV, thm2(2)]) | _constructions)
    deepest = _deepest_oracle_stage(params)
    assume(deepest >= 2)
    J = draw(st.integers(2, deepest))
    stages = draw(st.lists(st.integers(1, min(J, 3)), min_size=2, max_size=2, unique=True))

    def level_set(stage):
        h = stage_geometry(params, stage).h
        return LevelSet.from_levels(params, stage, draw(st.lists(st.integers(0, h - 1),
                                                                  min_size=1, max_size=4)))

    h_J = stage_geometry(params, J).h
    return level_set(stages[0]), level_set(stages[1]), draw(st.integers(-(h_J - 1), h_J - 1)), J


@settings(max_examples=100, deadline=None)
@given(_mixed_oracle_queries())
def test_mixed_stage_pairs_match_oracle(query):
    """Sets at two different stages: (lo, hi - lo) is the oracle's (value,
    undefined mass) at stage J, in both orientations of the stages."""
    a, b, n, J = query
    bound = apply_power_bounds(a, b, n, max_stage=J)
    res = oracle_intersection(a, b, n, J) if n >= 0 else oracle_intersection(b, a, -n, J)
    assert (bound.lo, bound.hi - bound.lo) == (res.value, res.undefined_mass)


def test_thousand_stage_walk_needs_no_recursion():
    """A shift near 2^1050 walks the toy tower to stage 1059; the pair-count
    table fills its entries without Python recursion, so the interpreter's
    recursion limit does not bound the depth."""
    assert sys.getrecursionlimit() < 1059  # a recursion per stage would overflow
    e = LevelSet.single(TOY, 2, 0)
    bound = apply_power_bounds(e, e, 2**1050 + 5)
    assert bound.resolved_stage == 1059
    assert bound.lo == Fraction(17, 256)
    # 1/1024 less one stage-1059 level (w = 2^-1058)
    assert bound.hi - bound.lo == Fraction(1, 1024) - Fraction(1, 2**1058)


@pytest.mark.parametrize("level", [1, 3, 5])
def test_utv1_closed_forms_far_beyond_enumeration(level):
    a = LevelSet.single(UTV, 2, level)
    b = LevelSet.single(UTV, 2, level - 1)  # T B = A
    pair = LevelSet.from_levels(UTV, 3, (3, 17))
    for j in range(25, 41):
        h_j = height(UTV, j)
        quarter = apply_power_bounds(a, a, h_j + height(UTV, j - 3))
        assert quarter.exact and quarter.value == a.measure / 4
        unit = apply_power_bounds(a, b, -(h_j + 1))
        assert unit.exact and unit.value == a.measure / 2
        halving = apply_power_bounds(pair, pair, h_j)
        assert halving.exact and halving.value == pair.measure / 2


def test_thm2_four_resolves_exactly_at_stage_thirty():
    p = thm2(4)
    e2 = LevelSet.base(p, 2)
    bound = apply_power_bounds(e2, e2, -height(p, 30))
    # the mixture law: (N - 1)/(N + 1) of E2 returns, N = 4
    assert bound.exact and bound.value == Fraction(3, 5) * e2.measure


@pytest.mark.parametrize("params", [TOY, UTV, thm2(3)], ids=lambda p: p.label())
def test_kernel_and_geometry_share_one_chain(params):
    tower = tower_of(params)
    for k in range(1, 9):
        assert tower.stage(k) is stage_geometry(params, k)


def test_shared_chain_grows_consistently_under_threads():
    # a construction no other test builds (no strategy draws a base width of
    # 1/7), so its first tower_of and its first stage happen inside the threads
    params = params_from_config({"h1": 3, "base_width": "1/7", "stages": {
        "r": 3, "spacers": ["zero", "zero", {"rule": "constant", "c": 2}]}})
    assert params not in tower_module._towers
    # the heights from a private tower, so planning below meets stages that
    # are not yet built in the shared one
    private = tower_module.Tower(params)
    heights = [private.stage(k).h for k in range(1, 42)]
    assert params not in tower_module._towers
    seen, towers, errors, planned = [], [], [], []

    def work(offset):
        try:
            for i in range(200):
                k = 1 + (7 * i + offset) % 40
                if offset % 2:
                    owner = tower_of(params)
                    towers.append(owner)
                    # planning bisects the built chain while other threads grow
                    # it, before this thread builds stage k: h_k - 1 and
                    # h_{k-1} both start at stage k, and h_{k+1} - 1 at k + 1,
                    # often above every stage built so far
                    shifts = [heights[k - 1] - 1, heights[k] - 1]
                    if k > 1:
                        shifts.append(heights[k - 2])
                    starts = owner._plans(1, shifts, None)[False][2]
                    planned.append((k, starts))
                    st = owner.stage(k)
                else:
                    st = stage_geometry(params, k)
                seen.append((k, st))
        except Exception as exc:  # reported below; a thread cannot fail the test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(seen) == 8 * 200
    tower = tower_of(params)
    assert all(t is tower for t in towers)  # one Tower for the construction
    chain = [stage_geometry(params, k) for k in range(1, 42)]
    assert len(tower._chain) == 41  # one chain, each stage appended once
    assert [st.h for st in chain] == heights
    assert len(planned) == 4 * 200
    assert all(starts == [k, k + 1] + [k] * (k > 1) for k, starts in planned)
    assert [st.j for st in chain] == list(range(1, 42))
    assert [st.copies for st in chain] == [3 ** (k - 1) for k in range(1, 42)]
    assert all(st is chain[k - 1] for k, st in seen)
    # planning bisects these heights: one per stage, in the chain's order
    assert tower._heights == heights


def test_planning_holds_when_a_stage_is_built_between_its_reads(monkeypatch):
    # planning reads the built chain without the lock, so another thread may
    # append a stage right after the bisect; here the bisect itself builds
    # one, once, to hold that window open
    tower = tower_module.Tower(TOY)
    heights = [tower_module.Tower(TOY).stage(k).h for k in range(1, 6)]
    tower.stage(2)
    real, grown = tower_module.bisect_right, []

    def bisect_then_grow(*args, **kwargs):
        found = real(*args, **kwargs)
        if not grown:
            grown.append(tower.stage(len(tower._chain) + 1))
        return found

    monkeypatch.setattr(tower_module, "bisect_right", bisect_then_grow)
    # h_4 - 1 lies above both built stages and above the one built in the
    # window, so it starts at stage 4, and so does the budget's count
    plan = tower._plans(1, [heights[3] - 1, -heights[3]], 6)
    assert grown and plan[False][2] == [4] and plan[True][2] == [5]
    assert plan[False][3] == [tower_module.stage_budget(4, 6)]


def _plans_one_shift_at_a_time(tower, j0, shifts, max_stage):
    """``Tower._plans`` as a loop over the shifts: each shift's start walks
    the chain from j0 to the first stage taller than |n|, and its budget is
    ``stage_budget`` of that start."""
    plans = {}
    for col, n in enumerate(shifts):
        start = j0
        while tower.stage(start).h <= abs(n):
            start += 1
        cols, ms, starts, budgets = plans.setdefault(n < 0, ([], [], [], []))
        cols.append(col)
        ms.append(abs(n))
        starts.append(start)
        budgets.append(tower_module.stage_budget(start, max_stage))
    return plans


@st.composite
def _plan_queries(draw):
    """Shifts of either sign one below, at and one above tower heights, and
    anywhere below them, for a pair stage j0, with or without a stage cap,
    on a tower whose chain is cold, partly built or built past the shifts."""
    params = draw(st.sampled_from([TOY, UTV, thm2(2), thm2(3)]))
    heights = [stage_geometry(params, k).h for k in range(1, 12)]
    near = st.builds(lambda h, d: h + d, st.sampled_from(heights), st.integers(-1, 1))
    shifts = draw(st.lists(st.builds(lambda m, sign: sign * m,
                                     near | st.integers(0, heights[-1]),
                                     st.sampled_from([1, -1])), max_size=12))
    j0 = draw(st.integers(1, 5))
    max_stage = draw(st.sampled_from([None, 1, j0, j0 + 3, 15]))
    built = draw(st.integers(0, 13))
    return params, j0, shifts, max_stage, built


@settings(max_examples=150, deadline=None)
@given(_plan_queries())
def test_plans_equal_the_per_shift_loop(query):
    """The comprehension plan gives the columns, |n|s, starts and budgets of
    the per-shift loop for both signs, whatever part of the chain is built."""
    params, j0, shifts, max_stage, built = query
    tower = tower_module.Tower(params)
    if built:
        tower.stage(built)
    plans = tower._plans(j0, shifts, max_stage)
    assert plans == _plans_one_shift_at_a_time(tower_module.Tower(params), j0, shifts,
                                                max_stage)
    assert tower._heights == [stage.h for stage in tower._chain]


@st.composite
def _stage_grids(draw):
    """Pairs of one construction at stages up to j, with repeated and empty
    sets, against shifts of both signs up to h_j, repeated."""
    params = draw(st.sampled_from([TOY, UTV, thm2(2)]))
    j = draw(st.integers(2, 5))

    def level_set():
        stage = draw(st.integers(1, j))
        h = stage_geometry(params, stage).h
        return LevelSet.from_levels(params, stage, draw(st.lists(st.integers(0, h - 1),
                                                                  max_size=4)))

    pool = [level_set() for _ in range(draw(st.integers(1, 4)))]
    pairs = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)),
                          min_size=1, max_size=6))
    h = stage_geometry(params, j).h
    shifts = draw(st.lists(st.integers(-h, h), min_size=1, max_size=8))
    return pairs, shifts + draw(st.lists(st.sampled_from(shifts), max_size=3)), j


@settings(max_examples=100, deadline=None)
@given(_stage_grids())
def test_stage_grid_equals_one_cell_grids_and_shares_equal_bounds(query):
    """``Tower.stage_grid`` builds its bounds off the counted columns: each
    cell equals the one-cell grid of its pair and shift (lo, hi and stage j),
    and within one grid equal values are one bound object."""
    pairs, shifts, j = query
    tower = tower_of(pairs[0][0].params)
    grid = tower.stage_grid(pairs, shifts, j)
    cells = [[tower.stage_grid([pair], [k], j)[0][0] for k in shifts] for pair in pairs]
    assert [[(x.lo, x.hi, x.resolved_stage) for x in row] for row in grid] == [
        [(x.lo, x.hi, x.resolved_stage) for x in row] for row in cells]
    assert all(x.lo is x.hi and x.resolved_stage == j for row in grid for x in row)
    shared = {}
    for row in grid:
        for bound in row:
            assert shared.setdefault(bound.lo, bound) is bound


def test_a_lone_source_that_steps_has_the_deepest_row_itself():
    """``_resolve`` hands a source whose stage row is the deepest row that
    very list, so ``grid_counts`` divides nothing for it; of two sources
    that step, the deepest row is their elementwise max, a list of its own."""
    tower = tower_of(UTV)
    h = tower.stage(6).h
    top = LevelSet.single(UTV, 2, 5)
    (_, ms, starts, budgets), = tower._plans(2, [h - 1, h - 3, 5], None).values()
    stage_rows, _, deepest = tower._resolve([(2, top.levels)], ms, starts, budgets)
    assert deepest is stage_rows[0] and deepest != starts
    low = LevelSet.single(UTV, 2, 0)
    sources = [(2, top.levels), (2, low.levels)]
    stage_rows, _, deepest = tower._resolve(sources, ms, starts, budgets)
    assert deepest == list(map(max, *stage_rows))
    assert all(row is not deepest for row in stage_rows)


@pytest.mark.parametrize("k", [0, -1])
def test_stage_rejects_indices_below_one(k):
    with pytest.raises(ValueError, match="stage index must be >= 1"):
        tower_of(TOY).stage(k)
    with pytest.raises(ValueError, match="stage index must be >= 1"):
        stage_geometry(TOY, k)
    e1 = LevelSet.base(TOY, 1)
    with pytest.raises(ValueError, match="stage index must be >= 1"):
        partial_joining(e1, e1, 0, k)


def test_reset_empties_both_memos_and_keeps_the_chain():
    """``reset`` drops the pair-count table a long profile leaves behind; the
    stage objects stay the same objects, and the profile is answered again
    with equal bounds, resolved stages included."""
    tower = tower_of(TOY)
    e1 = LevelSet.base(TOY, 1)
    first = power_profile(e1, e1, range(2001))
    assert tower._pairs
    chain = list(tower._chain)
    tower.reset()
    assert tower._pairs == {} and tower._returns == {} and tower._shared == {}
    assert power_profile(e1, e1, range(2001)) == first  # lo, hi and resolved_stage
    assert len(tower._chain) == len(chain)
    assert all(x is y for x, y in zip(tower._chain, chain))


def _resolved_at_4(a):
    """A shift n that ``apply_power_bounds(a, a, n)`` answers exactly at
    stage 4, where the stage-4 partial joining counts the same level pairs."""
    return next(n for n in range(height(UTV, 3), height(UTV, 4))
                if (bound := apply_power_bounds(a, a, n)).resolved_stage == 4 and bound.exact)


def test_equal_answers_are_one_bound_across_calls_and_entry_points():
    """One ``MeasureBound`` per distinct (count, overflow, K) per tower: a
    query asked again, its mirror, a grid, a self-return and a partial
    joining with the same answer all hand out the first object, until
    ``reset``, after which the answer is an equal new object."""
    tower = tower_of(UTV)
    tower.reset()
    a = LevelSet.single(UTV, 2, 1)
    n = _resolved_at_4(a)
    first = apply_power_bounds(a, a, n)
    assert first.resolved_stage == 4 and first.lo > 0
    assert apply_power_bounds(a, a, n) is first
    assert apply_power_bounds(a, a, -n) is first
    assert all(bound is first for bound in power_grid([(a, a)], [n, -n, n])[0])
    assert tower.self_returns([a], [n, -n], None)[0] == [first, first]
    assert all(bound is first for bound in tower.self_returns([a], [n, -n], None)[0])
    assert partial_joining(a, a, n, 4) is first
    assert dissipativity_scan(ProductSystem(UTV, 1, UTV, 1), a, a, n - 1, n, 1).rows[0].left \
        is first
    tower.reset()
    assert tower._shared == {}
    again = apply_power_bounds(a, a, n)
    assert again == first and again is not first


def test_a_known_answer_makes_no_bound(monkeypatch):
    """A lone partial joining or query whose answer the tower already holds
    reads it: ``Tower._bound`` is not called.  A new answer makes exactly
    one bound, however often the call that found it repeats it."""
    tower = tower_of(UTV)
    a, b = LevelSet.single(UTV, 2, 1), LevelSet.single(UTV, 3, 7)
    joining, query = partial_joining(a, b, 3, 6), apply_power_bounds(a, b, 25)
    made = []
    bound = tower_module.Tower._bound
    monkeypatch.setattr(tower_module.Tower, "_bound",
                        lambda self, *args: made.append(args) or bound(self, *args))
    assert partial_joining(a, b, 3, 6) is joining
    assert apply_power_bounds(a, b, 25) is query
    assert made == []
    tower.reset()
    row = partial_joining_grid([(a, b)] * 3, [3] * 4, 6)
    assert made == [(joining.lo / tower.stage(6).level_width, 0, 6)]
    assert all(cell is row[0][0] for cells in row for cell in cells)


@settings(max_examples=60, deadline=None)
@given(_kernel_queries())
def test_answers_after_a_reset_equal_fresh_answers(query):
    """Grids and partial joinings asked again after ``reset`` equal the
    answers given before it and those of a fresh tower, resolved stages
    included and of type int; on the tower, equal answers are one object."""
    pairs, shifts, max_stage, extra = query
    params = pairs[0][0].params
    joinings = [(a, b, k, j) for a, b in pairs
                for j in [max(a.stage, b.stage) + extra]
                for k in shifts if abs(k) <= stage_geometry(params, j).h]
    before = (power_grid(pairs, shifts, max_stage), [partial_joining(*q) for q in joinings])
    tower_of(params).reset()
    after = (power_grid(pairs, shifts, max_stage), [partial_joining(*q) for q in joinings])
    fresh = tower_module.Tower(params)
    grid = fresh._bounds(fresh.grid_counts(pairs, shifts, max_stage), len(pairs), len(shifts))
    assert before == after
    assert after[0] == grid
    fresh.stage(max([j for *_, j in joinings], default=1))  # stage_grid's caller builds j
    assert after[1] == [fresh.stage_grid([(a, b)], [k], j)[0][0] for a, b, k, j in joinings]
    answers = [bound for row in after[0] for bound in row] + after[1]
    assert all(type(bound.resolved_stage) is int for bound in answers)
    first = {}
    assert all(first.setdefault(bound, bound) is bound for bound in answers)


def test_racing_threads_get_one_bound_per_answer():
    """Four threads ask one grid and one partial joining grid of a freshly
    reset tower at once: they get equal rows, and each answer is one object
    across all of them."""
    tower = tower_of(TOY)
    sets = [LevelSet.single(TOY, 3, level) for level in range(7)]
    pairs = [(a, b) for a in sets for b in sets[:3]]
    start = threading.Barrier(4)
    results, errors = [None] * 4, []

    def work(t):
        try:
            start.wait(timeout=30)
            results[t] = (power_grid(pairs, range(-20, 21)),
                          partial_joining_grid(pairs, range(-7, 8), 4))
        except Exception as exc:  # reported below; a thread cannot fail the test
            errors.append(exc)

    tower.reset()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert all(result == results[0] for result in results)
    for grids in zip(*results):
        for rows in zip(*grids):
            for cells in zip(*rows):
                assert all(cell is cells[0] for cell in cells)


def test_cold_chain_plans_a_shift_above_every_built_stage():
    """Shifts above every stage built so far make ``Tower._plans`` build the
    chain one stage at a time to the first h > |n|; the answers are the ones
    planned again on the built chain, resolved stage included."""
    # a construction no other test builds, so its chain starts empty here;
    # h_1 = 2 and h_{j+1} = (j + 4) h_j: 2, 10, 60, 420, 3360, 30240, 302400
    params = params_from_config(
        {"h1": 2, "stages": {"r": 4, "spacers": ["zero", "zero", {"rule": "j_times_h"}]}})
    e2 = LevelSet.base(params, 2)
    assert len(tower_of(params)._chain) == 2  # built by the set's stage alone
    shifts = [419, 420, 3359, -3360, 30239, -30240, 30241, 302399]
    cold = power_profile(e2, e2, shifts)
    assert [tower_of(params).stage(k).h for k in range(3, 8)] == [60, 420, 3360, 30240, 302400]
    assert cold == [apply_power_bounds(e2, e2, n) for n in shifts]
    assert cold[5] == MeasureBound.exactly(Fraction(3, 16), 7)


@pytest.mark.parametrize("params", [UTV, TOY], ids=["utv1", "toy"])
def test_planning_reads_a_warm_chain_like_a_fresh_one(params):
    """Shifts one below, at and one above every height of a 40-stage chain,
    of both signs, start at the stage a fresh tower finds by building its
    chain on demand: a warm tower's grid gives each the triple, and so the
    bound, of its own query on a fresh tower."""
    warm = tower_module.Tower(params)
    warm.stage(40)
    e1 = LevelSet.base(params, 1)
    pairs = [(e1, e1), (e1, LevelSet.single(params, 2, 1))]
    for k in range(1, 41):
        h = warm.stage(k).h
        shifts = [sign * n for n in (h - 1, h, h + 1) for sign in (1, -1)]
        fresh = [triples(tower_module.Tower(params), pairs, [n], None) for n in shifts]
        assert triples(warm, pairs, shifts, None) == [
            [cells[i][0] for cells in fresh] for i in range(len(pairs))]


def test_stage_prefix_data_closed_forms():
    # utv1: r = 2 and the second column starts at h_i = (i+1)!
    geoms = [stage_geometry(UTV, j) for j in range(1, 6)]
    assert [g.copies for g in geoms] == [2 ** (j - 1) for j in range(1, 6)]
    tops = [sum(math.factorial(i + 1) for i in range(1, j)) for j in range(1, 6)]
    assert [g.top for g in geoms] == tops == [0, 2, 8, 32, 152]


def test_offset_differences_count_column_pairs():
    geom = stage_geometry(thm2(3), 4)
    pairs = Counter()
    for p in geom.column_offsets:
        for q in geom.column_offsets:
            pairs[q - p] += 1
    diffs, mults = geom.offset_differences
    assert list(diffs) == sorted(pairs)
    assert dict(zip(diffs, mults)) == pairs


def test_textual_form_roundtrip():
    a = LevelSet.from_levels(TOY, 3, [0, 1, 3, 4])
    text = format_level_set(a)
    assert text == "stage=3; levels=0,1,3,4"
    assert parse_level_set(text, TOY) == a
    assert parse_level_set("stage=2; levels=", TOY).levels == ()


def test_textual_form_errors():
    with pytest.raises(ValueError):
        parse_level_set("levels=0,1", TOY)
    with pytest.raises(ValueError):
        parse_level_set("stage=2; shape=round", TOY)


def test_a_bound_from_a_negative_count_or_overflow_is_refused():
    """``Tower._bound`` checks count >= 0 and overflow >= 0 on the integers
    before it fills the slots, which is ``MeasureBound``'s own check
    0 <= lo <= hi, since every level width is positive."""
    tower = tower_of(UTV)
    width = tower.stage(4).level_width
    for count, overflow in ((-1, 0), (-3, 5), (2, -1)):
        with pytest.raises(ValueError, match="bad measure interval"):
            tower._bound(count, overflow, 4)
        with pytest.raises(ValueError, match="bad measure interval"):
            MeasureBound(count * width, (count + overflow) * width, 4)
    exact, open_ = tower._bound(3, 0, 4), tower._bound(3, 2, 4)
    assert exact == MeasureBound(3 * width, 3 * width, 4) and exact.lo is exact.hi
    assert open_ == MeasureBound(3 * width, 5 * width, 4) and not open_.exact


def test_measure_bound_validation_and_arithmetic():
    with pytest.raises(ValueError):
        MeasureBound(Fraction(2), Fraction(1), 1)
    with pytest.raises(ValueError):
        MeasureBound(Fraction(-1), Fraction(1), 1)
    bound = MeasureBound(Fraction(1, 4), Fraction(1, 2), 3)
    assert bound.unresolved_mass == Fraction(1, 4)
    with pytest.raises(ValueError):
        bound.value
    total = bound + MeasureBound.exactly(Fraction(1, 4))
    assert (total.lo, total.hi) == (Fraction(1, 2), Fraction(3, 4))
    assert bound.scaled(2).hi == 1
    assert bound.times(MeasureBound.exactly(2)).lo == Fraction(1, 2)
    dev_lo, dev_hi = bound.deviation_from(MeasureBound.exactly(Fraction(3, 4)))
    assert (dev_lo, dev_hi) == (Fraction(1, 4), Fraction(1, 2))
