from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import rank1lab.joinings as joinings_module
import rank1lab.tower as tower_module
from rank1lab.construction import stage_geometry, thm2, toy, utv1
from rank1lab.joinings import (
    JoiningCombination,
    WitnessRow,
    _witness_candidates,
    combination_value,
    delta_shift,
    partial_joining,
    partial_joining_grid,
    domination_witness,
)
from rank1lab.tower import LevelSet, intersect, measure, refine

TOY = toy()
UTV = utv1()
E2 = LevelSet.base(UTV, 2)
GRID = [
    (LevelSet.single(UTV, 2, i), LevelSet.single(UTV, 2, k))
    for i in range(5)
    for k in range(5)
]


def test_delta_shift_zero_is_diagonal():
    a = LevelSet.from_levels(UTV, 2, [0, 2])
    b = LevelSet.from_levels(UTV, 2, [2, 4])
    assert delta_shift(a, b, 0).value == measure(intersect(a, b))


def test_delta_shift_toy_example():
    e1 = LevelSet.base(TOY, 1)
    assert delta_shift(e1, e1, -1).value == Fraction(1, 2)


def test_delta_shift_disjoint_is_zero():
    a = LevelSet.single(UTV, 2, 0)
    b = LevelSet.single(UTV, 2, 3)
    assert delta_shift(a, b, 0).value == 0


def test_partial_joining_toy_example():
    e1 = LevelSet.base(TOY, 1)
    assert partial_joining(e1, e1, 1, 2).value == Fraction(1, 2)


def test_partial_joining_k_zero_covers_tower():
    a = LevelSet.from_levels(UTV, 2, [0, 1, 4])
    b = LevelSet.from_levels(UTV, 2, [1, 4])
    assert partial_joining(a, b, 0, 5).value == measure(intersect(a, b))


def test_partial_joining_zero_when_full_joining_zero():
    a = LevelSet.single(UTV, 2, 0)
    b = LevelSet.single(UTV, 2, 3)
    for j in range(2, 6):
        assert partial_joining(a, b, 1, j).value == 0


def test_partial_joining_bounds_and_rejections():
    with pytest.raises(ValueError, match="exceeds"):
        partial_joining(E2, E2, 10, 2)  # h_2 = 6
    with pytest.raises(ValueError, match="representable"):
        partial_joining(LevelSet.base(UTV, 4), E2, 1, 3)
    with pytest.raises(ValueError):
        partial_joining(E2, LevelSet.base(TOY, 2), 1, 3)


@st.composite
def _joining_grids(draw):
    """Grids of partial joinings over the named families, with shared and
    empty sets, repeated and negative shifts, and at most one kind of fault:
    a shift with |k| > h_j, or a set deeper than j."""
    params = draw(st.sampled_from([TOY, UTV, thm2(2), thm2(3)]))
    j = draw(st.integers(1, 5))
    fault = draw(st.sampled_from([None, None, "shift", "stage"]))

    def level_set(stage):
        h = stage_geometry(params, stage).h
        return LevelSet.from_levels(params, stage, draw(st.lists(st.integers(0, h - 1),
                                                                  max_size=3)))

    pool = [level_set(draw(st.integers(1, j))) for _ in range(draw(st.integers(1, 3)))]
    pairs = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)),
                          min_size=1, max_size=6))
    if fault == "stage":
        deep = level_set(j + draw(st.integers(1, 2)))
        pairs.insert(draw(st.integers(0, len(pairs))),
                     draw(st.sampled_from([(deep, pool[0]), (pool[0], deep)])))
    h = stage_geometry(params, j).h
    shifts = draw(st.lists(st.integers(-h, h), min_size=1, max_size=8))
    shifts += draw(st.lists(st.sampled_from(shifts), max_size=3))
    if fault == "shift":
        shifts.insert(draw(st.integers(0, len(shifts))),
                      draw(st.sampled_from([1, -1])) * (h + draw(st.integers(1, 3))))
    return pairs, shifts, j


def _literal_joining(a, b, k, j):
    """Delta^k_j(A x B) written out: A and B refined to stage j, and the level
    pairs (x, y) inside [0, h_j) with y - x = k counted one by one."""
    geom = stage_geometry(a.params, j)
    targets = set(refine(b, j).levels)
    count = sum(0 <= x + k < geom.h and x + k in targets for x in refine(a, j).levels)
    return count * geom.level_width


@settings(max_examples=150, deadline=None)
@given(_joining_grids())
def test_partial_joining_grid_equals_one_call_per_cell(query):
    """Every cell of one grid call is the literal stage-j count of its pair
    and shift, exact at stage j, and ``partial_joining`` of that cell; equal
    values share one bound.  A grid with |k| > h_j or a set deeper than j
    raises the same ValueError as that cell alone."""
    pairs, shifts, j = query
    h = stage_geometry(pairs[0][0].params, j).h
    wide = [k for k in shifts if abs(k) > h]
    deep = [(a, b) for a, b in pairs if max(a.stage, b.stage) > j]
    if wide or deep:
        message = (f"|k| = {abs(wide[0])} exceeds tower height {h} at stage {j}" if wide
                   else "sets are not representable at the requested stage")
        with pytest.raises(ValueError) as raised:
            partial_joining_grid(pairs, shifts, j)
        assert str(raised.value) == message
        with pytest.raises(ValueError) as raised:
            partial_joining(*(deep or pairs)[0], (wide or shifts)[0], j)
        assert str(raised.value) == message
        return
    grid = partial_joining_grid(iter(pairs), iter(shifts), j)
    assert [[(x.lo, x.hi, x.resolved_stage) for x in row] for row in grid] == [
        [(value, value, j) for value in (_literal_joining(a, b, k, j) for k in shifts)]
        for a, b in pairs]
    assert grid == [[partial_joining(a, b, k, j) for k in shifts] for a, b in pairs]
    shared = {}
    for row in grid:
        for bound in row:
            assert shared.setdefault(bound.lo, bound) is bound


def test_partial_joining_grid_edge_cases(monkeypatch):
    assert partial_joining_grid([], [1, 2], 3) == []
    assert partial_joining_grid([(E2, E2)], [], 3) == [[]]
    with pytest.raises(ValueError, match="different constructions"):
        partial_joining_grid([(E2, E2), (LevelSet.base(TOY, 2),) * 2], [0], 3)
    # all the pairs share one index and count each k once, though they have
    # 5 sources
    calls = []
    pair_counts = tower_module.Tower.pair_counts
    monkeypatch.setattr(
        tower_module.Tower, "pair_counts",
        lambda self, index, shifts, K: calls.extend(shifts) or pair_counts(self, index, shifts, K))
    partial_joining_grid(GRID, range(-5, 6), 4)
    assert len({a for a, _ in GRID}) == 5
    assert calls == list(range(-5, 6))


@pytest.mark.parametrize("k", range(-5, 6))
def test_partial_joining_monotone_and_bounded(k):
    for a, b in GRID[:7]:
        full = delta_shift(a, b, k)
        previous = Fraction(0)
        for j in range(2, 7):
            value = partial_joining(a, b, k, j).value
            assert previous <= value <= full.hi
            previous = value
        assert value == full.value  # exhausted by stage 6


@pytest.mark.parametrize("k", [-5, -2, 0, 1, 4])
def test_delta_symmetry(k):
    for a, b in GRID[:9]:
        left = delta_shift(a, b, k)
        right = delta_shift(b, a, -k)
        assert (left.lo, left.hi) == (right.lo, right.hi)


def test_projection_onto_full_tower():
    # with T^k A inside the stage-4 tower, Delta^k(A x X_4) recovers mu(A)
    full = LevelSet.full_tower(UTV, 4)
    for k in (0, 1, 3):
        assert delta_shift(E2, full, k).value == measure(E2)
        assert delta_shift(full, E2, -k).value == measure(E2)


def test_combination_point_mass_and_mean():
    point = JoiningCombination.from_dict(4, {0: Fraction(1)})
    assert combination_value(point, E2, E2).value == partial_joining(E2, E2, 0, 4).value
    uniform = JoiningCombination.from_dict(
        4, {-1: Fraction(1, 3), 0: Fraction(1, 3), 1: Fraction(1, 3)}
    )
    expected = sum(
        (partial_joining(E2, E2, k, 4).value for k in (-1, 0, 1)), Fraction(0)
    ) / 3
    assert combination_value(uniform, E2, E2).value == expected


def test_combination_linearity_against_direct_sum():
    h5 = stage_geometry(UTV, 5).h
    comb = JoiningCombination.from_dict(6, {0: Fraction(1, 2), h5: Fraction(1, 2)})
    direct = (
        partial_joining(E2, E2, 0, 6).value + partial_joining(E2, E2, h5, 6).value
    ) / 2
    assert combination_value(comb, E2, E2).value == direct


def test_combination_weight_validation():
    with pytest.raises(ValueError, match="sum"):
        JoiningCombination.from_dict(4, {0: Fraction(1, 2)})
    with pytest.raises(ValueError):
        JoiningCombination.from_dict(4, {0: Fraction(3, 2), 1: Fraction(-1, 2)})
    with pytest.raises(ValueError, match="duplicate"):
        JoiningCombination(4, ((0, Fraction(1, 2)), (0, Fraction(1, 2))))


def test_witness_halving_identity_gives_zero_margin():
    h5 = stage_geometry(UTV, 5).h
    assert delta_shift(E2, E2, h5).value == delta_shift(E2, E2, 0).value / 2


@pytest.mark.parametrize("m", [0, 1, -2])
def test_witness_passes_on_grid(m):
    report = domination_witness(UTV, m, GRID, range(4, 7))
    assert report.passed and not report.vacuous
    for row in report.rows:
        assert row.margin_lo == row.margin_hi == 0
        # ties prefer the escaping shift m +- h_j over the degenerate k = m
        h_j = stage_geometry(UTV, row.j).h
        assert row.k_chosen in (m + h_j, m - h_j)
        assert abs(row.k_chosen) == h_j + abs(m)


def test_witness_empty_grid_is_flagged_vacuous():
    report = domination_witness(UTV, 0, [], range(4, 6))
    assert report.passed and report.vacuous
    assert all(row.k_chosen is None for row in report.rows)


def test_witness_zero_base_rectangles_pass_trivially():
    # rectangles with Delta^m(A x B) = 0 admit any shift
    grid = [(LevelSet.single(UTV, 2, 0), LevelSet.single(UTV, 2, 5))]
    report = domination_witness(UTV, 0, grid, range(4, 6))
    assert report.passed
    for row in report.rows:
        assert row.margin_lo >= 0


def test_witness_row_json_uses_decimal_strings():
    report = domination_witness(UTV, 0, GRID[:3], range(4, 5))
    row = report.rows[0].to_json()
    assert set(row) == {"j", "k_chosen", "margin_lo", "margin_hi"}
    assert isinstance(row["k_chosen"], str)
    # str() stops at 4,300 digits; a whole margin prints as str() prints it
    k = -(10 ** 4699)
    row = WitnessRow(1650, k, Fraction(0), Fraction(k, 3)).to_json()
    assert row == {"j": 1650, "k_chosen": "-1" + "0" * 4699, "margin_lo": "0",
                   "margin_hi": "-1" + "0" * 4699 + "/3"}


def _witness_reference(params, m, rect_grid, j_range, eps=Fraction(0), max_stage=None):
    """The witness as one delta_shift per (rectangle, candidate shift)."""
    half_base = [delta_shift(a, b, m, max_stage).scaled(Fraction(1, 2)) for a, b in rect_grid]
    rows = []
    passed = True
    for j in j_range:
        best = None
        for k in _witness_candidates(params, j, m):
            margin_lo = margin_hi = None
            for (a, b), half in zip(rect_grid, half_base):
                dk = delta_shift(a, b, k, max_stage)
                lo, hi = dk.lo - half.hi, dk.hi - half.lo
                margin_lo = lo if margin_lo is None else min(margin_lo, lo)
                margin_hi = hi if margin_hi is None else min(margin_hi, hi)
            key = (margin_lo, abs(k), k)
            if best is None or key > best[0]:
                best = (key, k, margin_lo, margin_hi)
        _, k_chosen, margin_lo, margin_hi = best
        rows.append(WitnessRow(j, k_chosen, margin_lo, margin_hi))
        passed = passed and margin_lo >= -eps
    return tuple(rows), passed


def _single_grid(params, stage, levels):
    return [(LevelSet.single(params, stage, i), LevelSet.single(params, stage, k))
            for i in levels for k in levels]


THM2 = thm2(2)
# two rectangles share one bound at a candidate shift but not at m
# (test_witness_case_shares_bounds_at_k_not_at_m), and the smaller margin is
# the one a key on the bound at k alone would drop
_SHARED_AT_K_NOT_AT_M = (THM2, _single_grid(THM2, 2, (0, 3, 6)), 3, range(3, 6), 0, None)
_WITNESS_CASES = [
    # toy keeps its margins unresolved at j = 4, 5 (margin_lo != margin_hi)
    (TOY, _single_grid(TOY, 2, range(3)), 0, range(2, 6), 0, None),
    (TOY, _single_grid(TOY, 2, range(3)), -2, range(2, 6), Fraction(1, 100), 6),
    (TOY, _single_grid(TOY, 2, range(3)), 1, range(3, 3), 0, None),
    # at max_stage 5 the base Delta^5 itself is unresolved on 6 of the 9 rectangles
    (TOY, _single_grid(TOY, 2, range(3)), 5, range(2, 5), 0, 5),
    (UTV, GRID, -3, range(4, 8), 0, None),
    (UTV, GRID[::4], 2, range(3, 7), 0, 7),
    (THM2, _single_grid(THM2, 2, range(0, 9, 2)), -1, range(3, 6), 0, None),
    (THM2, _single_grid(THM2, 2, (0, 4)), 0, range(2, 5), 0, 5),
    _SHARED_AT_K_NOT_AT_M,
]


@pytest.mark.parametrize("params,grid,m,j_range,eps,max_stage", _WITNESS_CASES)
def test_witness_equals_per_rectangle_reference(monkeypatch, params, grid, m, j_range,
                                                 eps, max_stage):
    rows, passed = _witness_reference(params, m, grid, j_range, eps, max_stage)
    calls = {"grid": 0, "profile": 0, "single": 0}
    power_grid = tower_module.power_grid

    def counted_grid(*args, **kwargs):
        calls["grid"] += 1
        return power_grid(*args, **kwargs)

    def counted(name, original):
        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return call

    monkeypatch.setattr(joinings_module, "power_grid", counted_grid)
    monkeypatch.setattr(tower_module, "power_profile",
                        counted("profile", tower_module.power_profile))
    for module in (joinings_module, tower_module):
        monkeypatch.setattr(module, "apply_power_bounds",
                            counted("single", tower_module.apply_power_bounds))
    report = domination_witness(params, m, grid, j_range, eps, max_stage)
    assert report.rows == rows
    # a witness over no stage checks nothing: vacuous, and no kernel call
    assert (report.passed, report.vacuous) == (passed, not j_range)
    assert calls == {"grid": 1 if j_range else 0, "profile": 0, "single": 0}
    if params == TOY and max_stage is None and report.rows:
        assert any(row.margin_lo != row.margin_hi for row in report.rows)


def _fraction_witness(params, m, grid, j_range, eps, max_stage):
    """The witness's rows and verdict from one ``power_grid``, with every
    margin a min of Fraction differences bound.lo - (bound at m).hi / 2 and
    bound.hi - (bound at m).lo / 2, and the shift kept by the largest
    (margin_lo, |k|, k); also the number of rows whose best margin_lo is
    shared by more than one shift."""
    menus = [_witness_candidates(params, j, m) for j in j_range]
    at_m, *columns = zip(*tower_module.power_grid(
        grid, [m] + [k for menu in menus for k in menu], max_stage))
    rows, passed, ties = [], True, 0
    columns = iter(columns)
    for j, menu in zip(j_range, menus):
        keyed = []
        for k in menu:
            column = next(columns)
            margin_lo = min(b.lo - h.hi / 2 for b, h in zip(column, at_m))
            margin_hi = min(b.hi - h.lo / 2 for b, h in zip(column, at_m))
            keyed.append(((margin_lo, abs(k), k), margin_lo, margin_hi))
        (_, _, k_chosen), margin_lo, margin_hi = max(keyed)
        ties += sum(key[0] == margin_lo for key, _, _ in keyed) > 1
        rows.append(WitnessRow(j, k_chosen, margin_lo, margin_hi))
        passed = passed and margin_lo >= -eps
    return tuple(rows), passed, ties


def test_integer_margins_equal_the_fraction_reference():
    """The witness takes its margins in integer units of half the deepest
    level width and turns each row's margins back into Fractions once: the
    rows, the chosen k of each stage and the verdict are those of the margins
    taken in Fractions, over the cases above (unresolved intervals, stage
    caps, bounds at several resolved stages), with ties on margin_lo that
    |k| and k break."""
    ties = 0
    for params, grid, m, j_range, eps, max_stage in _WITNESS_CASES:
        if not list(j_range):
            continue
        rows, passed, tied = _fraction_witness(params, m, grid, j_range, eps, max_stage)
        report = domination_witness(params, m, grid, j_range, eps, max_stage)
        assert (report.rows, report.passed) == (rows, passed)
        assert all(type(row.margin_lo) is Fraction and type(row.margin_hi) is Fraction
                   for row in report.rows)
        ties += tied
    assert ties > 0


def test_witness_case_shares_bounds_at_k_not_at_m():
    """A margin is taken over distinct (bound at k, bound at m) pairs; the
    half of Delta^m differs between two rectangles that share the bound at k,
    so a key on the bound at k alone would drop one of them."""
    params, grid, m, j_range, _, max_stage = _SHARED_AT_K_NOT_AT_M
    shifts = [k for j in j_range for k in _witness_candidates(params, j, m)]
    at_m, *columns = zip(*tower_module.power_grid(grid, [m] + shifts, max_stage))
    assert any(column[r] is column[s] and at_m[r] != at_m[s]
               for column in columns
               for r in range(len(grid)) for s in range(r))


def test_witness_refuses_sets_of_another_construction(monkeypatch):
    # the shift menu comes from the params' heights: utv1's menu must not be
    # applied to toy sets, which once passed
    def no_query(*args, **kwargs):
        raise AssertionError("queried before checking the construction")

    monkeypatch.setattr(joinings_module, "power_grid", no_query)
    toy_e2 = LevelSet.base(TOY, 2)
    toy_rect = (toy_e2, LevelSet.from_levels(TOY, 2, [1]))
    for grid in ([toy_rect], GRID[:2] + [toy_rect], [(E2, toy_e2)]):
        with pytest.raises(ValueError, match="level sets belong to different constructions"):
            domination_witness(UTV, 0, grid, range(4, 6))


@pytest.mark.parametrize("j_range", [range(1, 4), range(0, 1), [4, 1]])
def test_witness_rejects_stages_below_two_before_any_query(monkeypatch, j_range):
    def no_query(*args, **kwargs):
        raise AssertionError("queried before checking the stages")

    monkeypatch.setattr(joinings_module, "power_grid", no_query)
    with pytest.raises(ValueError, match=r"j = [01] must be >= 2.*h_\(j-1\)"):
        domination_witness(UTV, 0, GRID, j_range)
