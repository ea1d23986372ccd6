import copy
import dataclasses
import pickle
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from rank1lab.construction import scaled, stage_geometry, thm2, toy, utv1
from rank1lab.products import (
    NONZERO,
    PROVEN_ZERO,
    UNRESOLVED,
    ProductSystem,
    ReturnRow,
    dissipativity_grid,
    dissipativity_scan,
    product_return,
    ratio_condition,
    sample_shifts,
)
from rank1lab import tower
from rank1lab.tower import LevelSet, MeasureBound, Tower, apply_power_bounds, measure

UTV = utv1()
THM = thm2(2)
E2 = LevelSet.base(UTV, 2)
SELF_PRODUCT = ProductSystem(UTV, 1, UTV, 1)


def test_exponents_must_be_nonzero():
    with pytest.raises(ValueError):
        ProductSystem(UTV, 0, UTV, 1)


def test_return_at_zero_is_product_of_masses():
    a = LevelSet.from_levels(UTV, 2, [0, 1])
    b = LevelSet.from_levels(UTV, 2, [2])
    assert product_return(SELF_PRODUCT, a, b, 0).value == measure(a) * measure(b)


def test_square_of_halving_at_tower_heights():
    for j in range(3, 9):
        bound = product_return(SELF_PRODUCT, E2, E2, stage_geometry(UTV, j).h)
        assert bound.exact
        assert bound.value == (measure(E2) / 2) ** 2


def test_zero_factor_kills_the_product():
    b = LevelSet.single(UTV, 2, 3)
    assert product_return(SELF_PRODUCT, E2, b, 1).value == 0


def test_factorization_against_direct_values():
    rng = random.Random(7)
    system = ProductSystem(UTV, 1, UTV, 2)
    sets = [LevelSet.single(UTV, 2, i) for i in range(6)]
    for _ in range(50):
        a = rng.choice(sets)
        b = rng.choice(sets)
        k = rng.randrange(0, 200)
        left = apply_power_bounds(a, a, k)
        right = apply_power_bounds(b, b, 2 * k)
        combined = product_return(system, a, b, k)
        assert (combined.lo, combined.hi) == (left.lo * right.lo, left.hi * right.hi)


def test_return_memo_hits_plan_nothing(monkeypatch):
    tower.tower_of(THM).reset()  # a fresh memo for this test
    planned = []
    plans = Tower._plans
    monkeypatch.setattr(
        Tower, "_plans", lambda self, *args: planned.append(args) or plans(self, *args))
    system = ProductSystem(THM, 1, THM, 3)
    a = LevelSet.single(THM, 2, 1)
    h4 = stage_geometry(THM, 4).h
    first = dissipativity_scan(system, a, a, h4, 8 * h4)
    assert planned
    planned.clear()
    assert dissipativity_scan(system, a, a, h4, 8 * h4) == first
    assert planned == []


def test_return_memo_honors_max_stage():
    t = toy()
    e1 = LevelSet.base(t, 1)
    system = ProductSystem(t, 1, t, 1)
    free = product_return(system, e1, e1, 15)
    capped = product_return(system, e1, e1, 15, max_stage=6)
    assert (free.resolved_stage, capped.resolved_stage) == (13, 6)
    direct = apply_power_bounds(e1, e1, 15, max_stage=6)
    assert capped == direct.times(direct)
    assert product_return(system, e1, e1, 15) == free


def test_reset_empties_both_memos_of_a_scan():
    """After one scan, ``reset`` empties every memo of the tower (the
    self-return memo, the pair-count table and the left sides of product
    scans), keeps the stage objects, and the scan is answered again with
    equal rows, resolved stages included."""
    thm = tower.tower_of(THM)
    system = ProductSystem(THM, 1, THM, 3)
    e2 = LevelSet.base(THM, 2)
    h4 = stage_geometry(THM, 4).h
    first = dissipativity_scan(system, e2, e2, h4, 8 * h4)
    memos = [name for name, value in vars(thm).items() if isinstance(value, dict)]
    assert sorted(memos) == ["_pairs", "_returns", "_sides"]
    assert all(getattr(thm, name) for name in memos)
    chain = list(thm._chain)
    thm.reset()
    assert all(getattr(thm, name) == {} for name in memos)
    # every bound compares lo, hi and resolved_stage
    assert dissipativity_scan(system, e2, e2, h4, 8 * h4) == first
    assert len(thm._chain) == len(chain)
    assert all(x is y for x, y in zip(thm._chain, chain))


def test_sample_shifts_properties():
    shifts = sample_shifts(100, 800, 256)
    assert all(100 < k <= 800 for k in shifts)
    assert shifts[-1] == 800
    assert len(shifts) == len(set(shifts))
    with pytest.raises(ValueError):
        sample_shifts(5, 5, 4)


@pytest.mark.parametrize("span", range(1, 61))
def test_sample_shifts_match_the_sampling_loop(span):
    for k_lo in (0, 7):
        for samples in range(1, 64):
            loop = sorted({k_lo + max(1, (t * span) // samples)
                           for t in range(1, samples + 1)})
            assert sample_shifts(k_lo, k_lo + span, samples) == loop


@st.composite
def _sampling(draw):
    """(k_lo, span, samples) with spans up to 10^15; the edge counts 1,
    span - 1, span and span + 1 where the literal loop stays short."""
    k_lo = draw(st.integers(min_value=0, max_value=10**15))
    span = draw(st.integers(min_value=1, max_value=2000)
                | st.integers(min_value=1, max_value=10**15))
    edges = [n for n in (1, span - 1, span, span + 1) if 1 <= n <= 2001]
    samples = draw(st.sampled_from(edges) | st.integers(min_value=1, max_value=300))
    return k_lo, span, samples


@settings(max_examples=300, deadline=None)
@given(_sampling())
def test_sample_shifts_match_the_sampling_loop_on_wide_spans(case):
    k_lo, span, samples = case
    loop = sorted({k_lo + max(1, (t * span) // samples) for t in range(1, samples + 1)})
    assert sample_shifts(k_lo, k_lo + span, samples) == loop


@pytest.mark.parametrize("samples", [0, -3])
def test_scan_rejects_samples_below_one(samples):
    with pytest.raises(ValueError, match="samples"):
        sample_shifts(1, 30, samples)
    with pytest.raises(ValueError, match="samples"):
        dissipativity_scan(SELF_PRODUCT, E2, E2, 1, 30, samples=samples)


def test_thm2_tail_scan_is_proven_zero_at_stage_six():
    # true for these 256 samples only: (h_6, 8h_6] also holds nonzero returns,
    # such as k = 35476 (tests/test_acceptance.py)
    system = ProductSystem(THM, 1, THM, 3)
    a = LevelSet.base(THM, 2)
    h6 = stage_geometry(THM, 6).h
    report = dissipativity_scan(system, a, a, h6, 8 * h6, samples=256)
    assert report.all_proven_zero
    assert report.nonzero_returns == ()
    assert report.unresolved == ()
    assert "not a certified theorem" in report.note


def test_thm2_small_stage_counterexample_is_real():
    # 453 = 2h4 - 2h3 - 2h2 - 1 and 3*453 = h5 - 2h4 - h3 - h2 - 2 both admit
    # coefficient-<=2 representations, so the return is genuinely nonzero
    system = ProductSystem(THM, 1, THM, 3)
    a = LevelSet.base(THM, 2)
    bound = product_return(system, a, a, 453)
    assert bound.exact and bound.value == Fraction(2, 19683)
    h4 = stage_geometry(THM, 4).h
    report = dissipativity_scan(system, a, a, h4, 8 * h4, samples=256)
    assert not report.all_proven_zero
    assert any(k == 453 for k, _, _ in report.nonzero_returns)


def test_scan_distinguishes_unresolved_from_zero():
    t = toy()
    system = ProductSystem(t, 1, t, 1)
    a = LevelSet.single(t, 3, 6)
    report = dissipativity_scan(system, a, a, 12, 15, samples=3, max_stage=6)
    verdicts = {row.verdict for row in report.rows}
    assert UNRESOLVED in verdicts
    assert not report.all_proven_zero


def test_scan_verdicts_on_self_product():
    h3 = stage_geometry(UTV, 3).h
    report = dissipativity_scan(SELF_PRODUCT, E2, E2, h3 - 1, h3, samples=1)
    assert [row.verdict for row in report.rows] == [NONZERO]


def test_scan_skips_right_factor_when_left_is_zero():
    report = dissipativity_scan(SELF_PRODUCT, E2, E2, 1, 3, samples=2)
    dead = [row for row in report.rows if row.left.hi == 0]
    assert dead and all(row.right is None for row in dead)
    # the product is the [0, 0] of the left factor's own stage
    assert all(row.product == MeasureBound.exactly(0, row.left.resolved_stage) for row in dead)


def test_scan_rows_match_single_queries():
    # one batch of left factors, right factors only where the left can be nonzero
    system = ProductSystem(THM, 1, THM, 3)
    h4 = stage_geometry(THM, 4).h
    a, b = LevelSet.single(THM, 2, 0), LevelSet.single(THM, 2, 4)
    report = dissipativity_scan(system, a, b, h4, 8 * h4, samples=128)
    assert report.nonzero_returns
    for row in report.rows:
        assert row.left == apply_power_bounds(a, a, row.k)
        if row.left.hi == 0:
            assert row.right is None
            assert row.product == MeasureBound.exactly(0, row.left.resolved_stage)
        else:
            assert row.right == apply_power_bounds(b, b, 3 * row.k)
            assert row.product == row.left.times(row.right)


def test_scan_rejects_bad_range():
    with pytest.raises(ValueError):
        dissipativity_scan(SELF_PRODUCT, E2, E2, 0, 10, samples=2)


def test_ratio_condition_scaled_two():
    rows = ratio_condition(scaled(2), UTV, 8, Fraction(2))
    for i, h_left, h_right, ratio, deviation in rows:
        assert ratio == 2
        assert deviation == 0
    assert deviation <= Fraction(1, stage_geometry(UTV, 8).h)


def test_ratio_condition_identical_params():
    rows = ratio_condition(UTV, UTV, 5, Fraction(1))
    assert all(ratio == 1 and dev == 0 for _, _, _, ratio, dev in rows)


def test_ratio_condition_mismatched_target_stays_away_from_zero():
    rows = ratio_condition(scaled(Fraction(3, 2)), UTV, 8, Fraction(1))
    deviations = [dev for *_, dev in rows]
    assert all(dev >= Fraction(1, 3) for dev in deviations)
    assert rows[-1][3] == Fraction(3, 2)


def test_scan_with_ratio_table():
    doubled = scaled(2)
    report = dissipativity_scan(
        ProductSystem(doubled, 1, UTV, 1), LevelSet.base(doubled, 2), E2,
        1, 4, samples=2, ratio_target=Fraction(2),
    )
    assert report.ratio_check is not None
    assert all(row[3] == 2 for row in report.ratio_check)


def test_rectangle_sides_validated_against_the_system():
    with pytest.raises(ValueError, match="constructions"):
        product_return(ProductSystem(scaled(2), 1, UTV, 1), E2, E2, 1)


def _grid_sides(params):
    return [LevelSet.single(params, 2, i) for i in range(3)] + [
        LevelSet.from_levels(params, 3, [0, 2, 5]), LevelSet.base(params, 3)]


_GRID_SYSTEMS = [
    ProductSystem(THM, 1, THM, 3),
    ProductSystem(scaled(2), -1, UTV, 2),
    ProductSystem(toy(), 1, toy(), -1),
]


@st.composite
def _grids(draw):
    system = draw(st.sampled_from(_GRID_SYSTEMS))
    rects = draw(st.lists(
        st.tuples(st.sampled_from(_grid_sides(system.left_params)),
                  st.sampled_from(_grid_sides(system.right_params))),
        min_size=1, max_size=6))
    k_lo = draw(st.integers(min_value=1, max_value=400))
    k_hi = k_lo + draw(st.integers(min_value=1, max_value=600))
    samples = draw(st.integers(min_value=1, max_value=24))
    max_stage = draw(st.none() | st.integers(min_value=3, max_value=8))
    ratio = draw(st.none() | st.just(Fraction(2)))
    return system, rects, k_lo, k_hi, samples, max_stage, ratio


def _reset_memos(system):
    """Empty the memos of both factors' towers; their stage chains stay."""
    tower.tower_of(system.left_params).reset()
    tower.tower_of(system.right_params).reset()


@settings(max_examples=60, deadline=None)
@given(_grids())
def test_grid_equals_one_scan_per_rectangle(case):
    """Grids sharing left or right sides, mixing stages, over two
    constructions, with negative powers, stage budgets and ratio tables."""
    system, rects, k_lo, k_hi, samples, max_stage, ratio = case
    _reset_memos(system)  # a fresh memo for the grid
    grid = dissipativity_grid(system, rects, k_lo, k_hi, samples, max_stage,
                              ratio_target=ratio)
    assert len(grid) == len(rects)
    for (a, a2), report in zip(rects, grid):
        _reset_memos(system)  # and for every scan
        assert report == dissipativity_scan(system, a, a2, k_lo, k_hi, samples, max_stage,
                                            ratio_target=ratio)


# left powers of both signs over one left construction, so scans of one set
# with different powers meet one scan memo
_WARM_SYSTEMS = [
    ProductSystem(THM, 1, THM, 3),
    ProductSystem(THM, -1, UTV, 2),
    ProductSystem(THM, 2, THM, -1),
]
# windows that share an end, so only k_lo tells some of them apart
_WARM_WINDOWS = [(1, 300), (2, 300), (150, 300), (40, 90)]


@st.composite
def _warm_sequences(draw):
    """Per-rectangle scans over few left sets, windows, sample counts and
    stage caps, so entries repeat and interleave, and the index of one
    ``reset`` mid-sequence."""
    steps = draw(st.lists(st.tuples(
        st.sampled_from(_WARM_SYSTEMS),
        st.sampled_from(range(2)),
        st.sampled_from(range(3)),
        st.sampled_from(_WARM_WINDOWS),
        st.sampled_from([5, 24]),
        st.sampled_from([None, 3])), min_size=2, max_size=12))
    return steps, draw(st.integers(min_value=1, max_value=len(steps) - 1))


@settings(max_examples=80, deadline=None)
@given(_warm_sequences())
def test_warm_scans_equal_fresh_grids(case):
    """Scans with no ``reset`` between them, but one mid-sequence, read left
    sides that earlier scans left in the memo; each report equals a grid
    over the same inputs from fresh memos, lo, hi and resolved_stage of
    every bound included."""
    steps, reset_at = case
    scans = []
    for system, i, i2, (k_lo, k_hi), samples, max_stage in steps:
        a = _grid_sides(system.left_params)[i]
        a2 = _grid_sides(system.right_params)[i2]
        scans.append((system, a, a2, k_lo, k_hi, samples, max_stage))
    fresh = []
    for system, a, a2, *window in scans:
        _reset_memos(system)
        fresh.append(dissipativity_grid(system, [(a, a2)], *window)[0])
    _reset_memos(_WARM_SYSTEMS[1])  # both constructions
    for step, ((system, a, a2, *window), expected) in enumerate(zip(scans, fresh)):
        if step == reset_at:
            _reset_memos(_WARM_SYSTEMS[1])
        report = dissipativity_scan(system, a, a2, *window)
        assert report == expected  # every bound compares lo, hi and resolved_stage


def _nine_scans_of_one_left_side():
    """Nine scans of one left set over one window, as ``sweep`` makes them;
    the right factors live on another construction, so every self-return
    call on the left tower is a left fill."""
    system = ProductSystem(THM, 1, UTV, 1)
    a = LevelSet.single(THM, 2, 0)
    h4 = stage_geometry(THM, 4).h
    return system, a, [LevelSet.single(UTV, 3, i) for i in range(9)], h4, 8 * h4


def test_nine_scans_of_one_left_side_fill_it_once(monkeypatch):
    """One left fill for nine scans; their dead-column rows are the same
    objects, and each scan after the first builds one row per live column."""
    system, a, rights, k_lo, k_hi = _nine_scans_of_one_left_side()
    _reset_memos(system)
    fills = []
    self_returns = Tower.self_returns
    monkeypatch.setattr(Tower, "self_returns", lambda self, *args: (
        self.params == THM and fills.append(args)) or self_returns(self, *args))
    built = []
    init = ReturnRow.__init__
    monkeypatch.setattr(ReturnRow, "__init__",
                        lambda self, *args: built.append(args[0]) or init(self, *args))
    reports = []
    for b in rights:
        built.clear()
        reports.append(dissipativity_scan(system, a, b, k_lo, k_hi))
        if len(reports) == 1:
            assert len(built) == len(reports[0].rows) == 256
        else:
            live = [row.k for row in reports[-1].rows if row.right is not None]
            assert 0 < len(built) == len(live) < 256
            assert built == live
    assert len(fills) == 1
    assert len(tower.tower_of(THM)._sides) == 1
    first = reports[0].rows
    for report in reports[1:]:
        for row, other in zip(report.rows, first):
            assert (row is other) == (row.right is None)


def test_left_sides_are_keyed_by_value():
    """Equal left sets built separately read one left side; a reset frees the
    side, and a scan after it fills a new one with equal rows."""
    system, a, rights, k_lo, k_hi = _nine_scans_of_one_left_side()
    _reset_memos(system)
    thm = tower.tower_of(THM)
    first = dissipativity_scan(system, a, rights[0], k_lo, k_hi)
    twin = LevelSet.single(THM, 2, 0)
    again = dissipativity_scan(system, twin, rights[0], k_lo, k_hi)
    assert len(thm._sides) == 1
    assert again.rows[0] is first.rows[0]  # k = h4 + 1 is a dead column
    thm.reset()
    after = dissipativity_scan(system, a, rights[0], k_lo, k_hi)
    assert after == first and after.rows[0] is not first.rows[0]


def test_racing_first_fills_agree_on_one_left_side():
    """Four threads scan one left side at once: the reports are equal and the
    memo ends with one entry, which every later scan reads."""
    system, a, rights, k_lo, k_hi = _nine_scans_of_one_left_side()
    _reset_memos(system)
    start = threading.Barrier(4)
    reports, errors = [None] * 4, []

    def work(t):
        try:
            start.wait(timeout=30)
            reports[t] = dissipativity_scan(system, a, rights[0], k_lo, k_hi)
        except Exception as exc:  # reported below; a thread cannot fail the test
            errors.append(exc)

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
    assert all(report == reports[0] for report in reports)
    (side,) = tower.tower_of(THM)._sides.values()
    later = dissipativity_scan(system, a, rights[1], k_lo, k_hi)
    assert all(row is dead for row, dead in zip(later.rows, side.rows) if dead is not None)


# its left factor is unresolved at k = 34 under max_stage 3, its right factor zero
_UNRESOLVED_LEFT_ZERO_RIGHT = (
    _GRID_SYSTEMS[0], [(LevelSet.single(THM, 2, 0), LevelSet.single(THM, 2, 0))],
    1, 201, 24, 3, None)
_NONZERO_PRODUCT = (  # k = 453, test_thm2_small_stage_counterexample_is_real
    _GRID_SYSTEMS[0], [(LevelSet.base(THM, 2), LevelSet.base(THM, 2))],
    452, 453, 1, None, None)
# T^3 x T: at k = 3 the left factor resolves at stage 3, not proven zero, and
# the right factor is proven zero at stage 2
_ZERO_RIGHT_BELOW_LEFT = (
    ProductSystem(THM, 3, THM, 1), [(LevelSet.single(THM, 2, 0), LevelSet.single(THM, 2, 0))],
    1, 60, 59, None, None)


def test_grid_rows_match_the_per_row_definition():
    """Every row of a grid against the literal definition of a row, one
    kernel query per factor; the draws must include a nonzero product, an
    unresolved left factor times a proven-zero right one, and proven-zero
    right factors at a stage above and below their left factor's."""
    seen = set()

    @settings(max_examples=60, deadline=None)
    @given(_grids())
    @example(_UNRESOLVED_LEFT_ZERO_RIGHT)
    @example(_NONZERO_PRODUCT)
    @example(_ZERO_RIGHT_BELOW_LEFT)
    def check(case):
        system, rects, k_lo, k_hi, samples, max_stage, _ = case
        grid = dissipativity_grid(system, rects, k_lo, k_hi, samples, max_stage)
        for (a, a2), report in zip(rects, grid):
            assert report.scanned == tuple(sample_shifts(k_lo, k_hi, samples))
            assert tuple(row.k for row in report.rows) == report.scanned
            for row in report.rows:
                left = apply_power_bounds(a, a, system.left_power * row.k, max_stage)
                assert row.left == left
                if left.hi == 0:
                    assert row.right is None
                    product = MeasureBound.exactly(0, left.resolved_stage)
                else:
                    right = apply_power_bounds(a2, a2, system.right_power * row.k, max_stage)
                    assert row.right == right
                    product = left.times(right)
                    if left.lo < left.hi and right.hi == 0:
                        seen.add("unresolved left, zero right")
                    if right.hi == 0:
                        seen.add("zero right below the left's stage"
                                 if right.resolved_stage < left.resolved_stage
                                 else "zero right at the larger stage")
                assert row.product == product
                if product.hi == 0:
                    assert row.verdict == PROVEN_ZERO
                elif product.lo > 0:
                    assert row.verdict == NONZERO
                    seen.add(NONZERO)
                else:
                    assert row.verdict == UNRESOLVED
            rows = report.rows
            assert report.nonzero_returns == tuple(
                (row.k, row.product.lo, row.product.hi) for row in rows if row.verdict == NONZERO)
            assert report.unresolved == tuple(row.k for row in rows if row.verdict == UNRESOLVED)
            assert report.all_proven_zero == all(row.verdict == PROVEN_ZERO for row in rows)

    check()
    assert seen == {NONZERO, "unresolved left, zero right", "zero right below the left's stage",
                    "zero right at the larger stage"}


def test_grid_multiplies_only_products_without_a_zero_factor(monkeypatch):
    """Criterion 6's 9x9 grid of T x T^3 over thm2(2): on (h_6, 8h_6] every
    left factor not proven zero meets a proven-zero right one, so no product
    is multiplied out; on (h_4, 8h_4] exactly one per live cell of each
    distinct report whose right factor is not proven zero either, so a
    product with a proven-zero factor is never multiplied."""
    tower.tower_of(THM).reset()
    multiplied = []
    times = MeasureBound.times
    monkeypatch.setattr(MeasureBound, "times",
                        lambda self, other: multiplied.append((self, other)) or times(self, other))
    system = ProductSystem(THM, 1, THM, 3)
    levels = [LevelSet.single(THM, 2, i) for i in range(stage_geometry(THM, 2).h)]
    rects = [(a, b) for a in levels for b in levels]
    assert len(rects) == 81
    h4, h6 = stage_geometry(THM, 4).h, stage_geometry(THM, 6).h
    grid = dissipativity_grid(system, rects, h6, 8 * h6)
    assert any(row.right is not None for report in grid for row in report.rows)
    assert multiplied == []
    grid = dissipativity_grid(system, rects, h4, 8 * h4)
    assert any(report.nonzero_returns for report in grid)
    reports = {id(report): report for report in grid}.values()
    live = [(row.left, row.right) for report in reports for row in report.rows
            if row.right is not None and row.right.hi > 0]
    assert 0 < len(multiplied) == len(live)
    assert all(left is l and right is r for (left, right), (l, r) in zip(multiplied, live))
    assert all(left.hi > 0 and right.hi > 0 for left, right in multiplied)


def test_grid_keeps_unresolved_rows_and_own_zero_left_factors():
    t = toy()
    system = ProductSystem(t, 1, t, 1)
    rects = [(LevelSet.single(t, 3, 6), LevelSet.single(t, 3, 6)),
             (LevelSet.base(t, 1), LevelSet.single(t, 3, 6)),
             (LevelSet.single(t, 3, 0), LevelSet.base(t, 1))]
    grid = dissipativity_grid(system, rects, 12, 15, samples=3, max_stage=6)
    assert UNRESOLVED in {row.verdict for row in grid[0].rows}
    for (a, a2), report in zip(rects, grid):
        assert report == dissipativity_scan(system, a, a2, 12, 15, samples=3, max_stage=6)
        for row in report.rows:
            assert (row.right is None) == (row.left.hi == 0)


def test_grid_shares_one_report_per_distinct_pair_of_factor_rows():
    tower.tower_of(THM).reset()
    system = ProductSystem(THM, 1, THM, 3)
    levels = [LevelSet.single(THM, 2, i) for i in range(stage_geometry(THM, 2).h)]
    rects = [(a, b) for a in levels for b in levels]
    h4, h5 = stage_geometry(THM, 4).h, stage_geometry(THM, 5).h
    grid = dissipativity_grid(system, rects, h4, 8 * h4)
    assert len({id(report) for report in grid}) == len(set(grid)) == 2
    # at stage 5 the single-level self-returns of thm2(2) do not depend on the level
    grid = dissipativity_grid(system, rects, h5, 8 * h5)
    assert all(report is grid[0] for report in grid)
    assert grid[0] == dissipativity_scan(system, levels[3], levels[7], h5, 8 * h5)
    # equal sides built separately share one report too
    again = dissipativity_grid(system, [(LevelSet.base(THM, 2), LevelSet.base(THM, 2))] * 2,
                               h4, 8 * h4)
    assert again[0] is again[1]


def test_grid_validates_every_rectangle_before_any_work(monkeypatch):
    counted = []
    grid_counts = Tower.grid_counts
    monkeypatch.setattr(Tower, "grid_counts",
                        lambda self, *args: counted.append(args) or grid_counts(self, *args))
    system = ProductSystem(scaled(2), 1, UTV, 1)
    good = (LevelSet.base(scaled(2), 2), E2)
    with pytest.raises(ValueError, match="constructions"):
        dissipativity_grid(system, [good, (E2, E2)], 1, 30)
    with pytest.raises(ValueError, match="samples"):
        dissipativity_grid(system, [good], 1, 30, samples=0)
    with pytest.raises(ValueError, match="empty shift range"):
        dissipativity_grid(system, [], 30, 30)
    assert counted == []
    assert dissipativity_grid(system, [], 1, 30) == []


def test_multi_set_self_returns_equal_per_set_calls(monkeypatch):
    sets = [LevelSet.single(THM, 2, 4), LevelSet.base(THM, 3), LevelSet.single(THM, 2, 4),
            LevelSet.from_levels(THM, 3, [1, 9, 30])]
    shifts = [0, 5, -5, 283, 453, -1359, 3 * 453, 2000]
    thm = tower.tower_of(THM)
    thm.reset()
    single = [thm.self_returns([a], shifts, None)[0] for a in sets]
    thm.reset()
    grid = thm.self_returns(sets, shifts, None)
    assert grid == single
    assert grid[0] is grid[2]  # equal sets share one row
    assert [[b.lo for b in row] for row in grid] == [
        [apply_power_bounds(a, a, n).lo for n in shifts] for a in sets]
    planned = []
    plans = Tower._plans
    monkeypatch.setattr(
        Tower, "_plans", lambda self, *args: planned.append(args) or plans(self, *args))
    again = thm.self_returns(sets, list(reversed(shifts)), None)
    assert planned == []
    assert [list(reversed(row)) for row in again] == grid
    assert all(x is y for row, other in zip(again, grid)
               for x, y in zip(reversed(row), other))  # hits keep their objects


def test_return_row_is_a_frozen_dataclass():
    """The slotted row with its own __init__ keeps the frozen-dataclass
    contract: fields, equality, hashing, repr, replace, pickle and deepcopy."""
    report = dissipativity_scan(ProductSystem(UTV, 1, UTV, 1), E2, E2, 1, 30)
    row = next(r for r in report.rows if r.right is not None)
    assert [f.name for f in dataclasses.fields(ReturnRow)] == [
        "k", "left", "right", "product", "verdict"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.k = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.verdict = NONZERO
    same = ReturnRow(row.k, row.left, row.right, row.product, row.verdict)
    assert same == row and hash(same) == hash(row)
    assert same != dataclasses.replace(row, k=row.k + 1)
    assert dataclasses.replace(row, right=None).right is None
    assert repr(row) == (f"ReturnRow(k={row.k!r}, left={row.left!r}, right={row.right!r}, "
                         f"product={row.product!r}, verdict={row.verdict!r})")
    assert not hasattr(row, "__dict__")
    for twin in (pickle.loads(pickle.dumps(row)), copy.deepcopy(row)):
        assert twin == row and twin is not row and hash(twin) == hash(row)
        with pytest.raises(dataclasses.FrozenInstanceError):
            twin.k = 0
