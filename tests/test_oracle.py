import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import rank1lab
from rank1lab.construction import stage_geometry, thm2, toy, utv1
from rank1lab.oracle import IntervalSystem, OrbitWalker, oracle_intersection
from rank1lab.tower import LevelSet, apply_power_bounds, intersect, measure
from test_construction import _params

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


class _CellWalker:
    """Reference for ``OrbitWalker``: the walk over the set's cells, each
    step through the stage's inverse table, computed here by ``argsort``."""

    def __init__(self, system, a):
        self.system, self.lost = system, 0
        self.level_of_cell = np.argsort(system.cell_of_level)
        self.cells = np.array(sorted(system.cells_of(a)), dtype=np.int64)

    def step(self, n):
        h = self.system.height
        levels = self.level_of_cell[self.cells] + max(-h, min(n, h))
        levels = levels[(levels >= 0) & (levels < h)]
        self.lost += len(self.cells) - len(levels)
        self.cells = self.system.cell_of_level[levels]

    def value_against(self, b):
        hits = np.isin(self.cells, sorted(self.system.cells_of(b)))
        return int(np.count_nonzero(hits)) * self.system.cell_width


@st.composite
def _walks(draw):
    """A system of a random construction at a stage of at most 4,000
    levels, two sets at stages up to it, and steps of both signs next to
    the height and past it, huge ones included."""
    params = draw(st.one_of(st.sampled_from([TOY, UTV, thm2(2)]), _params()))
    stage = draw(st.integers(1, 6))
    assume(stage_geometry(params, stage).h <= 4000)

    def level_set():
        at = draw(st.integers(1, stage))
        h = stage_geometry(params, at).h
        return LevelSet.from_levels(params, at, draw(st.lists(st.integers(0, h - 1),
                                                               max_size=5)))

    h = stage_geometry(params, stage).h
    steps = st.one_of(st.integers(-h - 2, h + 2), st.integers(-3, 3),
                      st.sampled_from([10**30, -10**30, 2**63, -2**63 - 1]))
    return params, stage, level_set(), level_set(), draw(st.lists(steps, max_size=6))


@settings(max_examples=150, deadline=None)
@given(_walks())
def test_level_walker_equals_the_cell_walk(walk):
    """The walker that moves its set's levels reads what the walk of its
    cells through the inverse table reads, after every step: the same cells,
    the same lost count and the same value against another set."""
    params, stage, a, b, steps = walk
    system = IntervalSystem(params, stage)
    walker = OrbitWalker(a, stage)
    reference = _CellWalker(system, a)
    for n in [0, *steps]:
        walker.step(n)
        reference.step(n)
        assert walker.cells == set(reference.cells.tolist())
        assert walker.lost == reference.lost
        assert walker.value_against(b) == reference.value_against(b)
        assert walker.value_against(a) == reference.value_against(a)


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


def test_powers_past_int64_leave_the_tower():
    walker = OrbitWalker(LevelSet.base(TOY, 1), 4)
    size = len(walker.cells)
    walker.step(10**30)
    assert (walker.cells, walker.lost, walker.power) == (set(), size, 10**30)
    system, a = IntervalSystem(TOY, 4), LevelSet.from_levels(TOY, 2, [0, 2])
    size = len(system.cells_of(a))
    (hits, lost), = system.orbit_counts([a], [a], [10**30, 0, -10**30])
    assert (hits.tolist(), lost.tolist()) == ([[0, size, 0]], [size, 0, size])


@pytest.mark.parametrize("params,J", [(TOY, 8), (utv1(), 6), (thm2(2), 5)],
                         ids=["toy", "utv1", "thm2(2)"])
def test_orbit_counts_equal_a_walker_per_source_over_mixed_stages(params, J):
    """``orbit_counts`` finds each level's owner once per distinct source
    stage and reads every source of that stage through it: each source's
    row is still what its own ``OrbitWalker`` reads, for sources at every
    stage 1..J, several at one stage, repeated and empty, against targets
    at mixed stages, over powers of both signs past the tower height."""
    sources = []
    for stage in range(1, J + 1):
        h = stage_geometry(params, stage).h
        sources += [LevelSet.single(params, stage, h - 1),
                    LevelSet.from_levels(params, stage, range(0, h, 3))]
    sources += [sources[3], LevelSet(params, 2, ())]
    targets = [LevelSet.single(params, 1, 0), LevelSet.from_levels(params, 3, [1, 2]),
               LevelSet.base(params, J)]
    h = stage_geometry(params, J).h
    powers = [-h - 1, -h // 2, -3, 0, 1, 5, h // 3, h - 1, h]
    system = IntervalSystem(params, J)
    rows = list(system.orbit_counts(sources, targets, powers))
    assert len(rows) == len(sources)
    for a, (hits, lost) in zip(sources, rows):
        for i, n in enumerate(powers):
            walker = OrbitWalker(a, J)
            walker.step(n)
            assert lost[i] == walker.lost
            assert hits[:, i].tolist() == [len(walker.cells & system.cells_of(b))
                                           for b in targets]


@pytest.mark.parametrize("params,J", [(TOY, 9), (utv1(), 6), (thm2(2), 5)],
                         ids=["toy", "utv1", "thm2(2)"])
def test_owned_gathers_as_the_int32_division(params, J):
    """``_owned`` divides in intp before it gathers: for sets at every stage
    1..J, empty, single, sparse and full, over every cell, a shuffled part
    of them and none, it reads what ``marks[cells // ratio]`` reads with
    the int32 stage tables."""
    system = IntervalSystem(params, J)
    assert system.cell_of_level.dtype == np.int32
    everything = system.cell_of_level
    some = np.random.default_rng(0).permutation(everything)[: len(everything) // 3]
    for stage in range(1, J + 1):
        h = stage_geometry(params, stage).h
        for a in (LevelSet(params, stage, ()), LevelSet.single(params, stage, h - 1),
                  LevelSet.from_levels(params, stage, range(1, h, 3)),
                  LevelSet.full_tower(params, stage)):
            marks, ratio = system._marks(a)
            for cells in (everything, some, everything[:0]):
                owned = system._owned(a, cells)
                assert owned.dtype == bool
                assert np.array_equal(owned, marks[cells // ratio])


def test_interval_refuses_levels_outside_the_tower():
    system = IntervalSystem(TOY, 3)  # h_3 = 7
    for level in (-1, 7):
        with pytest.raises(ValueError, match=r"level -?\d+ is outside \[0, 7\)"):
            system.interval(level)
    w = system.cell_width
    for level in (0, 6):
        left, right = system.interval(level)
        assert right - left == w and 0 <= left < 7 * w


def test_no_system_holds_an_inverse_after_walks_and_orbit_counts():
    # the replay of stages 1..J reads only cell_of_level, and so do height,
    # interval, cells_of, a walk, which moves its set's levels, and
    # orbit_counts, which finds its sources' levels as a walk does: after
    # all of them the system holds its replayed tables and no other array
    a = LevelSet.base(TOY, 1)
    walker = OrbitWalker(a, 6)
    system = walker.system
    system.cells_of(LevelSet.single(TOY, 3, 2)), system.interval(0), system.height
    walker.step(5)
    walker.value_against(LevelSet.single(TOY, 3, 2)), walker.cells
    oracle_intersection(a, a, 5, 6)
    sources = [a, LevelSet.single(TOY, 3, 2), LevelSet.from_levels(TOY, 6, [0, 40, 62])]
    rows = list(system.orbit_counts(sources, sources, [-5, 0, 5]))
    assert len(rows) == 3
    arrays = [value for value in vars(system).values() if isinstance(value, np.ndarray)]
    assert len(arrays) == 1 and arrays[0] is system.cell_of_level
    assert [len(table) for table, _ in system._stages] == [
        stage_geometry(TOY, j).h for j in range(1, 7)]
    assert not hasattr(system, "level_of_cell")


def test_stages_below_one_are_refused_before_the_replay():
    # a stage below 1 names no tower, so it must not read as another stage's
    # (h = 31 for stage 0, once stage 5 was built): stage 5 is built first
    e1 = LevelSet.base(TOY, 1)
    assert IntervalSystem(TOY, 5).height == 31
    for stage in (0, -3):
        for call in (lambda: IntervalSystem(TOY, stage).height,
                     lambda: OrbitWalker(e1, stage),
                     lambda: oracle_intersection(e1, e1, 0, stage)):
            with pytest.raises(ValueError, match=f"stage {stage} is below 1"):
                call()


def test_mismatched_constructions_rejected():
    system = IntervalSystem(TOY, 3)
    with pytest.raises(ValueError):
        system.cells_of(LevelSet.base(UTV, 2))
    with pytest.raises(ValueError):
        system.cells_of(LevelSet.base(TOY, 4))


def _plain(value):
    """A Python int, or a Fraction of Python ints: never a numpy scalar."""
    if isinstance(value, Fraction):
        return type(value.numerator) is int and type(value.denominator) is int
    return type(value) is int


@pytest.mark.parametrize("params,stage,n", [(TOY, 5, 3), (TOY, 5, -4), (UTV, 4, 25)])
def test_results_are_python_numbers(params, stage, n):
    a = LevelSet.from_levels(params, 2, [0, 1])
    b = LevelSet.single(params, 3, 2)
    res = oracle_intersection(a, b, n, stage)
    assert all(map(_plain, (res.value, res.undefined_mass, res.stage)))
    walker = OrbitWalker(a, stage)
    walker.step(n)
    assert walker.cells and all(map(_plain, walker.cells))
    assert all(map(_plain, (walker.lost, walker.power, walker.undefined,
                            walker.value_against(b))))
    system = IntervalSystem(params, stage)
    assert all(map(_plain, system.cells_of(b)))
    assert all(map(_plain, (system.height, system.cell_width,
                            *system.interval(0), *system.interval(system.height - 1))))


def _child(source):
    """stdout of ``source`` run in a fresh interpreter that imports this
    checkout's rank1lab."""
    src = os.path.dirname(os.path.dirname(rank1lab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", source], env=env, check=True,
                          capture_output=True, text=True, timeout=120).stdout


_TABLE_BYTES = """
import tracemalloc
from rank1lab.construction import toy
from rank1lab.oracle import IntervalSystem
from rank1lab.tower import LevelSet
tracemalloc.start()
system = IntervalSystem(toy(), 18)
h = system.height
print(tracemalloc.get_traced_memory()[0] / h)
e1 = LevelSet.base(toy(), 1)
list(system.orbit_counts([e1], [e1], [15]))
print(tracemalloc.get_traced_memory()[0] / h)
"""


def test_stage_18_tables_hold_int32_cells():
    # the system replays toy's stages 1..18 when it is built, and stays alive
    # across both readings; tracemalloc sees numpy's buffers too.  Toy's
    # heights double, so the system holds about two stage-18 tables: 8 bytes
    # a stage-18 cell in int32 (16 in int64).  A walk at stage 18 adds that
    # stage's inverse: 12 bytes a cell (24 in int64).  Each bound lies
    # halfway between the two layouts.
    chain, walked = map(float, _child(_TABLE_BYTES).split())
    assert chain <= 12
    assert walked <= 18


_HUGE_STAGES = """
import dataclasses, resource, time
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from rank1lab.construction import SpacerRule, toy
from rank1lab.oracle import IntervalSystem, oracle_intersection
from rank1lab.tower import LevelSet
wide = dataclasses.replace(toy(), h1=2**31)
tall = dataclasses.replace(toy(), spacer_tail=(SpacerRule("constant", 2**31 - 2),))
for params, stage in ((wide, 1), (wide, 3), (tall, 2)):
    e1 = LevelSet.base(params, 1)
    for call in (lambda: IntervalSystem(params, stage).height,
                 lambda: oracle_intersection(e1, e1, 1, stage)):
        start = time.perf_counter()
        try:
            call()
        except ValueError as exc:
            print(f"{time.perf_counter() - start:.3f} {exc}")
"""


def test_stages_of_2_31_cells_are_refused_before_allocation():
    # int32 tables hold indices below 2^31, so the replay refuses a larger
    # stage by its size, before allocating it: stage 1 of 2^31 cells, and a
    # stage 2 of 2 + (2^31 - 2) cells over a one-cell stage 1.  The child's
    # 2 GiB address-space limit turns an attempted allocation (16 GB for
    # the int64 stage 1) into a MemoryError, which would not match.
    lines = _child(_HUGE_STAGES).splitlines()
    expected = ["stage 1 has 2147483648 cells"] * 4 + ["stage 2 has 2147483648 cells"] * 2
    assert len(lines) == len(expected)
    for line, message in zip(lines, expected):
        elapsed, text = line.split(" ", 1)
        assert text.startswith(message) and "2^31" in text
        assert float(elapsed) < 1


_HUGE_CUTS = """
import dataclasses, resource, time
from rank1lab.construction import CutRule, InvalidConstructionError, stage_geometry, toy
from rank1lab.oracle import IntervalSystem
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
for rule in (CutRule("constant", 2**40), CutRule("j_plus", 2**40)):
    params = dataclasses.replace(toy(), cuts=rule)
    for call in (lambda: stage_geometry(params, 1), lambda: IntervalSystem(params, 2)):
        start = time.perf_counter()
        try:
            call()
        except InvalidConstructionError as exc:
            print(f"{time.perf_counter() - start:.3f} {exc}")
"""


def test_huge_cut_counts_are_refused_before_listing_columns():
    # a stage lists its r columns' spacers, so the kernel and the oracle
    # must refuse r = 2^40 by its size before building that list; under the
    # child's 1 GiB address-space limit building it raises MemoryError, and
    # any error but InvalidConstructionError fails the child
    lines = _child(_HUGE_CUTS).splitlines()
    expected = ["cut count 1099511627776 at stage 1", "cut count 1099511627777 at stage 1"]
    assert len(lines) == 4
    for line, message in zip(lines, [m for m in expected for _ in range(2)]):
        elapsed, text = line.split(" ", 1)
        assert text == f"{message} is above the limit of 200001"
        assert float(elapsed) < 1


def _replay_int64(params, stages):
    """``cell_of_level`` of stages 1..``stages`` as the replay once built it:
    int64 arrays, each column appended to a list, then concatenated."""
    chain = [np.arange(params.h1, dtype=np.int64)]
    for j in range(1, stages):
        prev = chain[-1]
        h = len(prev)
        r = params.cut_count(j)
        spacers = params.spacer_vector(j, h)
        columns = []
        free = h * r
        for column in range(r):
            columns.append(prev * r + column)
            columns.append(np.arange(free, free + spacers[column], dtype=np.int64))
            free += spacers[column]
        chain.append(np.concatenate(columns))
    return chain


@settings(max_examples=60, deadline=None)
@given(_params())
def test_in_place_replay_matches_the_column_list_replay(params):
    # every stage up to 20,000 cells: the in-place int32 replay equals the
    # int64 column-list replay element for element, and is a permutation
    stages = 1
    while stage_geometry(params, stages + 1).h <= 20_000:
        stages += 1
    for j, reference in enumerate(_replay_int64(params, stages), start=1):
        system = IntervalSystem(params, j)
        assert system.cell_of_level.dtype == np.int32
        assert np.array_equal(system.cell_of_level, reference)
        inverse = np.argsort(system.cell_of_level)
        assert np.array_equal(inverse[reference], np.arange(len(reference)))
        assert np.array_equal(reference[inverse], np.arange(len(reference)))
