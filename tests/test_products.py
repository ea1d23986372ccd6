import random
from fractions import Fraction

import pytest

from rank1lab.construction import scaled, stage_geometry, thm2, toy, utv1
from rank1lab.products import (
    NONZERO,
    UNRESOLVED,
    ProductSystem,
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


def test_return_memo_honors_env_cap(monkeypatch):
    t = toy()
    e1 = LevelSet.base(t, 1)
    system = ProductSystem(t, 1, t, 1)
    free = product_return(system, e1, e1, 15)
    assert free.resolved_stage == 13
    monkeypatch.setenv("RANK1_MAX_STAGE", "6")
    direct = apply_power_bounds(e1, e1, 15)
    assert direct.resolved_stage == 6
    assert product_return(system, e1, e1, 15) == direct.times(direct)


def test_return_memo_hits_plan_nothing(monkeypatch):
    monkeypatch.setattr(tower, "_towers", {})  # a fresh memo for this test
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
    assert all(row.right is None for row in report.rows if row.left.hi == 0)


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
        1, 4, samples=2, ratio_target=Fraction(2), ratio_depth=4,
    )
    assert report.ratio_check is not None
    assert all(row[3] == 2 for row in report.ratio_check)


def test_rectangle_sides_validated_against_the_system():
    with pytest.raises(ValueError, match="constructions"):
        product_return(ProductSystem(scaled(2), 1, UTV, 1), E2, E2, 1)
