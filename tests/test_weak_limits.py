from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from rank1lab import reports, weak_limits
from rank1lab.construction import (
    ConstructionParams,
    CutRule,
    SpacerRule,
    block_sequence,
    stage_geometry,
    thm2,
    toy,
    utv1,
)
from rank1lab.joinings import domination_witness
from rank1lab.products import sample_shifts
from rank1lab.tower import (
    LevelSet,
    MeasureBound,
    Tower,
    apply_power_bounds,
    intersect,
    measure,
    power_profile,
)
from rank1lab.weak_limits import (
    CandidateSequence,
    MixtureLawRow,
    OperatorPolynomial,
    parse_polynomial,
    parse_sequence,
    predict,
    scan_window,
    block_value_stages,
    verify_mixture_law,
    verify_limit,
)

UTV = utv1()
E2 = LevelSet.base(UTV, 2)


def test_polynomial_validation():
    with pytest.raises(ValueError):
        OperatorPolynomial.from_dict({0: Fraction(3, 4), 1: Fraction(1, 2)})
    with pytest.raises(ValueError):
        OperatorPolynomial.from_dict({0: Fraction(-1, 2)})
    poly = OperatorPolynomial.from_dict({0: Fraction(1, 2), -1: Fraction(1, 4)})
    assert poly.total == Fraction(3, 4)
    assert poly.escape_mass == Fraction(1, 4)


def test_parse_polynomial():
    poly = parse_polynomial("1/2*T^0 + 1/4*T^-1")
    assert dict(poly.coeffs) == {0: Fraction(1, 2), -1: Fraction(1, 4)}
    assert dict(parse_polynomial("T^2").coeffs) == {2: Fraction(1)}
    assert parse_polynomial("0").coeffs == ()
    with pytest.raises(ValueError):
        parse_polynomial("T**2")


def test_parse_sequence_forms():
    assert parse_sequence("h_j") == CandidateSequence(0, ((1, 0),))
    assert parse_sequence("h_k+h_{k-1}") == CandidateSequence(0, ((1, 0), (1, 1)))
    assert parse_sequence("h_k + 1") == CandidateSequence(1, ((1, 0),))
    assert parse_sequence("2*h_{k-2} - h_{k-3} + 5") == CandidateSequence(
        5, ((2, 2), (-1, 3))
    )
    with pytest.raises(ValueError):
        parse_sequence("g_j")


def test_sequence_validation_and_evaluation():
    with pytest.raises(ValueError):
        CandidateSequence(0, ((1, 1), (1, 1)))  # lags must strictly increase
    with pytest.raises(ValueError):
        CandidateSequence(0, ((0, 0),))
    seq = parse_sequence("h_k+h_{k-1}")
    assert seq.evaluate(UTV, 4) == 120 + 24
    with pytest.raises(ValueError):
        seq.evaluate(UTV, 2)  # selects stage 1


def test_predict_identity_and_zero():
    assert predict(OperatorPolynomial.from_dict({0: Fraction(1)}), E2, E2).value == measure(E2)
    assert predict(OperatorPolynomial.from_dict({}), E2, E2).value == 0


def test_predict_halved_shift():
    poly = OperatorPolynomial.from_dict({1: Fraction(1, 2)})
    expected = apply_power_bounds(E2, E2, 1).value / 2
    assert predict(poly, E2, E2).value == expected


def test_verify_limit_halving_sequence():
    report = verify_limit(
        UTV, parse_sequence("h_k"), parse_polynomial("1/2*T^0"),
        [(E2, E2)], range(3, 9),
    )
    assert report.status == reports.PASS
    assert report.max_deviation == 0


def test_verify_limit_predicts_each_pair_once(monkeypatch):
    calls = []

    def counted(poly, a, b, max_stage=None):
        calls.append((a, b))
        return predict(poly, a, b, max_stage)

    monkeypatch.setattr(weak_limits, "predict", counted)
    pairs = [(E2, E2), (E2, LevelSet.base(UTV, 3))]
    report = verify_limit(
        UTV, parse_sequence("h_k"), parse_polynomial("1/2*T^0"), pairs, range(3, 9),
    )
    assert len(report.rows) == 12
    assert calls == pairs


def test_verify_limit_double_halving():
    report = verify_limit(
        UTV, parse_sequence("h_k+h_{k-1}"), parse_polynomial("1/4*T^0"),
        [(E2, E2)], range(4, 9),
    )
    assert report.status == reports.PASS
    assert report.max_deviation == 0


def test_verify_limit_shifted():
    report = verify_limit(
        UTV, parse_sequence("h_k + 1"), parse_polynomial("1/2*T^1"),
        [(E2, E2)], range(3, 9),
    )
    assert report.status == reports.PASS
    assert report.max_deviation == 0


def test_composition_reduces_by_half_per_leading_height():
    # mu(T^{h_k + h_{k-1}} A /\ B) = (1/2) mu(T^{h_{k-1}} A /\ B), the
    # reduction step behind the iterated halving
    b = LevelSet.single(UTV, 2, 1)
    for k in range(4, 9):
        h_k = stage_geometry(UTV, k).h
        h_prev = stage_geometry(UTV, k - 1).h
        combined = apply_power_bounds(E2, b, h_k + h_prev)
        reduced = apply_power_bounds(E2, b, h_prev)
        assert combined.value == reduced.value / 2


def test_unit_mass_weight_bound():
    unit = LevelSet.from_levels(UTV, 2, [0, 1])  # mu = 1
    assert measure(unit) == 1
    for n in (0, 1, 6, 24, 120, 977):
        bound = apply_power_bounds(unit, unit, n)
        assert bound.hi <= 1


def test_verify_limit_wrong_candidate_fails():
    report = verify_limit(
        UTV, parse_sequence("h_k"), parse_polynomial("1/4*T^0"),
        [(E2, E2)], range(3, 6),
    )
    assert report.status == reports.FAIL
    assert report.max_deviation == Fraction(1, 8)


@pytest.mark.parametrize("pairs,k_range,what", [
    ([], range(3, 6), "test pairs"), ([(E2, E2)], range(3, 3), "k values")])
def test_verify_limit_refuses_a_check_of_nothing(monkeypatch, pairs, k_range, what):
    # the same candidate FAILs on (E2, E2) over range(3, 6): with no pair or
    # no k there is nothing it could fail on, so no PASS is given
    monkeypatch.setattr(weak_limits, "power_profile", None)  # no query is made
    with pytest.raises(ValueError, match=f"^no {what}: a limit check over none"):
        verify_limit(UTV, parse_sequence("h_k"), parse_polynomial("1/4*T^0"), pairs, k_range)


@pytest.mark.parametrize("pairs,seq,k_range,message", [
    # utv1's n = 24, 120, 720 must not be checked on toy's sets
    ([(LevelSet.base(toy(), 2), LevelSet.base(toy(), 2))], "h_k", range(3, 6),
     "level sets belong to different constructions"),
    ([(E2, E2), (E2, LevelSet.base(toy(), 2))], "h_k", range(3, 6),
     "level sets belong to different constructions"),
    ([(E2, E2)], "h_{k-2}", range(2, 5), "k = 2 selects a stage below 2"),
], ids=["foreign pair", "foreign set", "stage below 2"])
def test_verify_limit_refuses_before_any_query(monkeypatch, pairs, seq, k_range, message):
    monkeypatch.setattr(Tower, "grid_counts", None)  # a kernel query would raise TypeError
    with pytest.raises(ValueError, match=f"^{message}$"):
        verify_limit(UTV, parse_sequence(seq), parse_polynomial("1/2*T^0"), pairs, k_range)


def test_verify_limit_unresolved_is_inconclusive_not_fail():
    t = toy()
    a = LevelSet.single(t, 3, 6)
    b = LevelSet.base(t, 3)
    report = verify_limit(
        t, parse_sequence("15"), parse_polynomial("0"),
        [(a, b)], range(3, 4), tol=Fraction(1, 10**6), max_stage=6,
    )
    assert report.status == reports.INCONCLUSIVE


def test_scan_window_dead_zone_and_peak():
    report = scan_window(UTV, 5, E2, E2)
    assert report.dead_zone == (720 + 240, 5040 - 1440)
    assert report.dead_zone_exact_zero
    peak = dict(report.window_rows)[720]
    assert peak.value == measure(E2) / 2


def test_scan_window_spec_shift_example():
    n = 720 + 2 * 120 + 17
    bound = apply_power_bounds(E2, E2, n)
    assert bound.exact and bound.value == 0


def test_scan_window_empty_set_is_zero():
    empty = LevelSet.from_levels(UTV, 2, [])
    report = scan_window(UTV, 4, empty, empty)
    assert all(bound.value == 0 for _, bound in report.window_rows)
    assert report.dead_zone_exact_zero


def test_scan_window_refuses_sets_of_another_construction(monkeypatch):
    # the window comes from the params' heights, the values from the sets':
    # utv1's window (480, 960) must not be reported with toy's values
    monkeypatch.setattr(weak_limits, "power_profile", None)  # no query is made
    toy_e2 = LevelSet.base(toy(), 2)
    for a, b in ((toy_e2, toy_e2), (E2, toy_e2), (toy_e2, E2)):
        with pytest.raises(ValueError, match="level sets belong to different constructions"):
            scan_window(UTV, 5, a, b)


def test_scan_window_exhaustive_zone():
    report = scan_window(UTV, 4, E2, E2, dead_samples=None)
    lo, hi = report.dead_zone
    assert (lo, hi) == (120 + 48, 720 - 240)
    assert len(report.dead_rows) == hi - lo + 1
    assert report.dead_zone_exact_zero


def test_scan_window_degenerate_zone_for_toy(monkeypatch):
    # toy's spacers grow too slowly to open a dead zone: the bounds invert, and
    # a zone with no shift to check would pass vacuously
    monkeypatch.setattr(weak_limits, "power_profile", None)  # no query is made
    t = toy()
    with pytest.raises(ValueError, match="^j = 4 opens no dead zone on toy: it would end at 1, "
                                         "below its start 29$"):
        scan_window(t, 4, LevelSet.base(t, 2), LevelSet.base(t, 2))


def test_scan_window_one_point_dead_zone_keeps_its_shift():
    # r = 3 with 6j spacers gives heights 1, 9, 39, 135, so h_4 = 3h_3 + 2h_2
    # and stage 3's dead zone [h_3 + 2h_2, h_4 - 2h_3] is the one shift 57,
    # where these spacers are too small to make the value vanish
    params = ConstructionParams(h1=1, cuts=CutRule("constant", 3),
                                spacer_tail=(SpacerRule("linear", 6),))
    e1 = LevelSet.base(params, 1)
    report = scan_window(params, 3, e1, e1)
    assert report.dead_zone == (57, 57)
    assert report.dead_rows == ((57, apply_power_bounds(e1, e1, 57)),)
    assert report.dead_rows[0][1].lo > 0
    assert not report.dead_zone_exact_zero


@pytest.mark.parametrize("step", [0, -2])
def test_scan_window_rejects_step_below_one(step):
    with pytest.raises(ValueError, match="step"):
        scan_window(UTV, 5, E2, E2, step=step)


@pytest.mark.parametrize("dead_samples", [-1, -5])
def test_scan_window_rejects_negative_dead_samples(dead_samples):
    with pytest.raises(ValueError, match="dead_samples"):
        scan_window(UTV, 5, E2, E2, dead_samples=dead_samples)


def test_scan_window_zero_dead_samples_checks_the_endpoints():
    report = scan_window(UTV, 5, E2, E2, dead_samples=0)
    assert [n for n, _ in report.dead_rows] == list(report.dead_zone)


@pytest.mark.parametrize("span", range(0, 61))
def test_dead_zone_spread_matches_the_sampling_loop(span):
    """A dead zone [lo, hi] is sampled at lo, hi and `interior` evenly spread
    points: ``[lo] + sample_shifts(lo, hi, interior + 1)``, or ``[lo]`` when
    hi == lo; ``scan_window``'s dead rows are those points."""
    for lo in (0, 11, 10**12):
        for interior in range(0, 64):
            loop = sorted({lo, lo + span} | {lo + (t * span) // (interior + 1)
                                             for t in range(1, interior + 1)})
            spread = [lo] + (sample_shifts(lo, lo + span, interior + 1) if span else [])
            assert spread == loop
    report = scan_window(UTV, 4 + span % 3, E2, E2, dead_samples=span)
    lo, hi = report.dead_zone
    loop = sorted({lo, hi} | {lo + (t * (hi - lo)) // (span + 1) for t in range(1, span + 1)})
    assert [n for n, _ in report.dead_rows] == loop


def _two_path_scan_rows(params, j, a, b, step, dead_samples, max_stage):
    """The window and dead rows of a scan listed as ``scan_window`` once did:
    an exhaustive dead zone by a branch of its own, each list through its
    own ``power_profile``."""
    h_prev, h_j, h_next = (stage_geometry(params, k).h for k in (j - 1, j, j + 1))
    win_lo, win_hi = h_j - 2 * h_prev, h_j + 2 * h_prev
    dead_lo, dead_hi = h_j + 2 * h_prev, h_next - 2 * h_j
    if step is None:
        step = max(1, (win_hi - win_lo) // 64)
    window_ns = sorted(set(range(win_lo, win_hi + 1, step)) | {h_j, win_hi})
    if dead_hi < dead_lo:
        dead_ns = []
    elif dead_samples is None:
        dead_ns = list(range(dead_lo, dead_hi + 1))
    else:
        dead_ns = [dead_lo] + (
            sample_shifts(dead_lo, dead_hi, dead_samples + 1) if dead_hi > dead_lo else [])
    return (tuple(zip(window_ns, power_profile(a, b, window_ns, max_stage))),
            tuple(zip(dead_ns, power_profile(a, b, dead_ns, max_stage))))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["utv1", "thm2(2)"]), st.integers(3, 6),
       st.none() | st.integers(1, 50), st.none() | st.integers(0, 400),
       st.integers(0, 1), st.sampled_from([None, 4]))
@example("thm2(2)", 6, 1, None, 1, None)  # the largest: 7,933 + 91,238 shifts
@example("utv1", 4, 3, 311, 0, None)  # dead_samples = span - 1 lists every shift
@example("utv1", 3, None, 0, 1, 4)
def test_scan_window_matches_the_two_path_listing(name, j, step, dead_samples, level, cap):
    """One list of dead-zone shifts ("all" is every sample), one kernel grid
    for both lists: the rows equal the two-path listing, shifts and bounds
    (``MeasureBound`` equality compares lo, hi and the resolved stage)."""
    params = utv1() if name == "utv1" else thm2(2)
    stage = 1 if j == 3 else 2  # the sets must sit strictly below stage j - 1
    a, b = LevelSet.base(params, stage), LevelSet.single(params, stage, level)
    report = scan_window(params, j, a, b, step, dead_samples, cap)
    window_rows, dead_rows = _two_path_scan_rows(params, j, a, b, step, dead_samples, cap)
    assert report.window_rows == window_rows
    assert report.dead_rows == dead_rows


def _no_listing(monkeypatch):
    """Make listing a dead zone or querying the kernel fail the test."""
    def listed(*_args, **_kwargs):
        raise AssertionError("a refused scan listed shifts or queried the kernel")

    monkeypatch.setattr(weak_limits, "sample_shifts", listed)
    monkeypatch.setattr(weak_limits, "power_profile", listed)


# utv1 stage 7: a dead zone of span 231,840; stage 10: a window of width 14,515,200
@pytest.mark.parametrize("j,step,dead_samples,message", [
    (7, None, None, "the dead zone would list 231841 shifts, above the limit of 200001"),
    (7, None, 400_000, "the dead zone would list 231841 shifts, above the limit of 200001"),
    (7, None, 200_000, "the dead zone would list 200002 shifts"),
    (10, 1, 64, "the window would list 14515203 shifts, above the limit of 200001: "
                "raise step"),
    (10, 72, 64, "the window would list 201603 shifts"),
])
def test_scan_window_refuses_an_oversize_list_before_listing(
        monkeypatch, j, step, dead_samples, message):
    """Both lists are counted from their bounds and checked against one
    limit before any shift is listed: an exhaustive dead zone, a numeric one
    that lists as many shifts and a fine window step alike."""
    _no_listing(monkeypatch)
    with pytest.raises(ValueError, match=message):
        scan_window(UTV, j, E2, E2, step, dead_samples)


@pytest.mark.parametrize("j,step,dead_samples,window,dead", [
    (7, None, 199_999, 65, 200_001),  # the dead zone at the limit
    (10, 73, 0, 198_841, 2),  # the window just below it
])
def test_scan_window_admits_lists_up_to_the_limit(monkeypatch, j, step, dead_samples,
                                                  window, dead):
    monkeypatch.setattr(weak_limits, "power_profile",
                        lambda a, b, shifts, max_stage: [MeasureBound.exactly(0)] * len(shifts))
    report = scan_window(UTV, j, E2, E2, step, dead_samples)
    assert (len(report.window_rows), len(report.dead_rows)) == (window, dead)


def test_scan_window_rejects_sets_too_deep():
    with pytest.raises(ValueError):
        scan_window(UTV, 4, LevelSet.base(UTV, 3), LevelSet.base(UTV, 3))


def test_block_value_stages():
    assert block_value_stages(1, 9) == (1, 3, 6)
    assert block_value_stages(4, 14) == (9, 13)
    assert block_value_stages(9, 20) == ()


def test_block_value_stages_equal_the_stage_by_stage_scan():
    """The block walk lists the stages that ``block_sequence`` finds one
    stage at a time, for every j_max up to 2,000 and p in -6..6."""
    values = [block_sequence(j) for j in range(1, 2001)]
    for p in range(-6, 7):
        expected = []
        for j_max in range(2001):
            if j_max and values[j_max - 1] == abs(p):
                expected.append(j_max)
            assert block_value_stages(p, j_max) == tuple(expected)


def test_block_value_stages_reach_stage_ten_to_the_nine():
    """Value 1 opens every block, at the triangular stages b(b+1)/2; the
    walk reaches 10^9 in one step per block (44,720 of them)."""
    assert block_value_stages(1, 10**9) == tuple(b * (b + 1) // 2 for b in range(1, 44721))
    assert 44720 * 44721 // 2 <= 10**9 < 44721 * 44722 // 2


THM = thm2(2)
TE2 = LevelSet.base(THM, 2)


def test_eq4_prediction_coefficients():
    # A = two bottom levels of stage 2, so mu(T^1 A /\ A) = w_2 = 1/3
    a = LevelSet.from_levels(THM, 2, [0, 1])
    report_n2 = verify_mixture_law(2, 2, 1, a, a, stage_list=(3,))
    assert report_n2.rows[0].prediction.value == Fraction(1, 9)  # 0*mu(A) + (1/3)(1/3)
    report_n1 = verify_mixture_law(2, 1, 1, a, a, stage_list=(3,))
    assert report_n1.rows[0].prediction.value == (
        Fraction(1, 3) * measure(a) + Fraction(1, 3) * Fraction(1, 3)
    )


def test_eq4_exact_at_preset_stages():
    for n in (1, 2):
        report = verify_mixture_law(2, n, 1, TE2, TE2, j_max=9)
        assert report.stages == (3, 6)
        assert report.status == reports.PASS
        assert report.decreasing
        assert all(row.dev_hi == 0 for row in report.rows)


def test_eq4_negative_p_scans_forward_powers():
    report = verify_mixture_law(2, 1, -1, TE2, TE2, stage_list=(3,))
    assert report.rows[0].shift == stage_geometry(THM, 3).h  # +n h_j for p < 0
    assert report.rows[0].dev_hi == 0


def test_eq4_empty_preimage_rejected():
    with pytest.raises(ValueError, match="preimage empty"):
        verify_mixture_law(2, 1, 9, TE2, TE2, j_max=9)


def test_eq4_validates_family_and_range():
    with pytest.raises(ValueError):
        verify_mixture_law(2, 3, 1, TE2, TE2)  # n > N
    with pytest.raises(ValueError):
        verify_mixture_law(2, 1, 0, TE2, TE2)
    with pytest.raises(ValueError):
        verify_mixture_law(2, 1, 1, E2, E2)  # sets over the wrong construction


def _mixture_rows_written_out(N, n, p, a, b, stages, tol, max_stage):
    """The law's rows from its own formula: ((N-n)/(N+1)) mu(A /\\ B) +
    (1/(N+1)) mu(T^p A /\\ B) against mu(T^{-n h_j} A /\\ B) (+n h_j for p < 0)."""
    prediction = (
        MeasureBound.exactly(intersect(a, b).measure).scaled(Fraction(N - n, N + 1))
        + apply_power_bounds(a, b, p, max_stage).scaled(Fraction(1, N + 1))
    )
    rows = []
    for j in stages:
        shift = (-1 if p > 0 else 1) * n * stage_geometry(a.params, j).h
        value = apply_power_bounds(a, b, shift, max_stage)
        dev_lo, dev_hi = value.deviation_from(prediction)
        rows.append(MixtureLawRow(j, shift, value, prediction, dev_lo, dev_hi,
                                  reports.classify_deviation(dev_lo, dev_hi, tol)))
    return tuple(rows)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_mixture_law_matches_its_written_out_formula(N):
    """The law checked through the limit-check loop gives the same rows as its
    formula, lo, hi and resolved stage included: n = N drops the T^0 term,
    p < 0 scans forward powers and stage 1 is accepted when listed."""
    params = thm2(N)
    e2 = LevelSet.base(params, 2)
    pairs = [(e2, e2), (LevelSet.single(params, 2, 1), LevelSet.from_levels(params, 2, [0, 2]))]
    cases = [(p, None) for p in (1, -1, 2, -2, 3)] + [(1, (1,)), (-1, (1,))]
    for n in range(1, N + 1):
        for p, stage_list in cases:
            for max_stage in (None, 5, 7):
                for tol in (Fraction(0), Fraction(1, 50)):
                    for a, b in pairs:
                        report = verify_mixture_law(N, n, p, a, b, stage_list, 9, tol, max_stage)
                        assert report.rows == _mixture_rows_written_out(
                            N, n, p, a, b, report.stages, tol, max_stage)
                        assert report.stages == (
                            stage_list or tuple(j for j in block_value_stages(p, 9) if j > 2))


def test_eq4_default_tolerance_is_zero():
    # at stage 2 the law misses by exactly 1/8, which a default tolerance of
    # 1/8 or more would pass
    a = LevelSet.single(thm2(3), 1, 1)
    report = verify_mixture_law(3, 3, 2, a, a)
    assert report.stages == (2, 4, 7)
    first = report.rows[0]
    assert (first.stage, first.dev_lo, first.dev_hi) == (2, Fraction(1, 8), Fraction(1, 8))
    assert first.status == reports.FAIL and report.status == reports.FAIL
    assert verify_mixture_law(3, 3, 2, a, a, tol=Fraction(1, 8)).status == reports.PASS


def test_eq4_decreasing_compares_each_row_with_the_next():
    # thm2(4)'s deviations for n = 4, p = 1 on the stage-1 base are 4/25,
    # 18/125 and 0 at stages 1, 3 and 6; listed as (1, 6, 3) they fall and
    # then rise at the last step, though the last is below the first
    params = thm2(4)
    a = LevelSet.base(params, 1)
    report = verify_mixture_law(4, 4, 1, a, a, stage_list=(1, 6, 3))
    assert [row.dev_hi for row in report.rows] == [Fraction(4, 25), 0, Fraction(18, 125)]
    assert [row.dev_lo for row in report.rows] == [row.dev_hi for row in report.rows]
    assert not report.decreasing
    assert verify_mixture_law(4, 4, 1, a, a, stage_list=(1, 3, 6)).decreasing


def test_eq4_empty_sets_have_zero_deviation():
    empty = LevelSet.from_levels(THM, 2, [])
    report = verify_mixture_law(2, 2, 1, empty, empty, stage_list=(3, 6))
    assert all(row.dev_hi == 0 for row in report.rows)


# one check with a tolerance t per library verifier that takes one
_TOLERANT_CHECKS = {
    "verify_limit": lambda t: verify_limit(
        UTV, parse_sequence("h_k"), parse_polynomial("1/2*T^0"), [(E2, E2)], range(3, 6), t),
    "verify_mixture_law": lambda t: verify_mixture_law(2, 1, 1, TE2, TE2, tol=t),
    "domination_witness": lambda t: domination_witness(UTV, 0, [(E2, E2)], range(4, 6), t),
}


@pytest.mark.parametrize("name", sorted(_TOLERANT_CHECKS))
def test_negative_tolerance_is_rejected_before_any_query(monkeypatch, name):
    """A negative tol or eps would turn exact agreement into FAIL, so it is
    rejected before the kernel is asked anything."""
    queries = []
    grid_counts = Tower.grid_counts

    def counted(self, *args, **kwargs):
        queries.append(args)
        return grid_counts(self, *args, **kwargs)

    monkeypatch.setattr(Tower, "grid_counts", counted)
    check = _TOLERANT_CHECKS[name]
    check(Fraction(0))
    assert queries  # the counter sees the kernel
    queries.clear()
    with pytest.raises(ValueError, match=r"^(tol|eps) must be >= 0, got -1/100$"):
        check(Fraction(-1, 100))
    assert queries == []
