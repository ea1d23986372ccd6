"""Acceptance criteria, one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.

Criteria 6 and 9 contain a finite-stage claim that is provably false for the
thm2(2) family (verified independently by the tower calculus and the interval
oracle; see the strict-xfail tests and the regression tests below).  They are
implemented faithfully and expected to fail; the attainable content of both
criteria is covered by the extra green tests at the bottom.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from kernel_blocks import expand, packed
from rank1lab import acceptance, oracle, tower
from rank1lab.construction import height, thm2, toy, utv1
from rank1lab.oracle import oracle_intersection
from rank1lab.products import ProductSystem, dissipativity_scan
from rank1lab.spectral import correlations, fejer_density, correlation_sequence
from rank1lab.tower import LevelSet, MeasureBound, apply_power_bounds

DEFECT_NOTE = (
    "known defect: the asserted finite-stage emptiness fails below stage 7 "
    "(k=453 = 2h4-2h3-2h2-1 with 3k = h5-2h4-h3-h2-2 over thm2(2), and "
    "k=35476 in (h6, 8h6]; oracle-confirmed; the 256 sampled stage-6 shifts "
    "all vanish); see the README known-deviations section"
)


def _report(result):
    marker = " [known-defect]" if result.known_defect else ""
    print(f"{result.status} criterion-{result.number} {result.name}{marker}: {result.detail}")
    return result


def test_criterion_1_oracle_equivalence():
    result = _report(acceptance.criterion_1())
    assert result.passed, result.detail
    assert result.detail == "125840 matched-budget identities, 124707 exact, 3 deep toy checks"


def _skew_shift_five(monkeypatch, move):
    """Patch the kernel so that shift 5 of every grid row answers
    ``move(count, overflow)`` in place of its own (count, overflow)."""
    grid_counts = tower.Tower.grid_counts

    def skewed(self, pairs, shifts, max_stage):
        shifts = list(shifts)
        rows = expand(grid_counts(self, pairs, shifts, max_stage), len(pairs), len(shifts))
        for counts in rows:
            if len(counts) > 5:
                count, overflow, K = counts[5]
                counts[5] = (*move(count, overflow), K)
        return packed(rows)

    monkeypatch.setattr(tower.Tower, "grid_counts", skewed)


def test_criterion_1_catches_a_kernel_off_by_one_level(monkeypatch):
    """The batched kernel is still checked against the orbit oracle: moving
    one shift's count by one level fails the criterion."""
    _skew_shift_five(monkeypatch, lambda count, overflow: (count + 1, overflow))
    result = acceptance.criterion_1()
    assert not result.passed
    assert result.detail.startswith("mismatch at") and result.detail.endswith("n=5")


def test_criterion_1_catches_a_kernel_overflow_off_by_one(monkeypatch):
    """Moving one shift's overflow by one level fails the criterion too."""
    _skew_shift_five(monkeypatch, lambda count, overflow: (count, overflow + 1))
    result = acceptance.criterion_1()
    assert not result.passed
    assert result.detail.startswith("mismatch at") and result.detail.endswith("n=5")


def _skew_oracle_row(monkeypatch, params, source, n):
    """Move the first target's hit count of one yielded oracle row (the
    source-th of ``params``) at shift n by one cell."""
    orbit_counts = oracle.IntervalSystem.orbit_counts

    def skewed(self, sources, targets, powers):
        for position, (hits, lost) in enumerate(
                orbit_counts(self, sources, targets, powers)):
            if self.params == params and position == source:
                hits[0, n] += 1
            yield hits, lost

    monkeypatch.setattr(oracle.IntervalSystem, "orbit_counts", skewed)


def test_criterion_1_catches_an_oracle_off_by_one_hit(monkeypatch):
    """The batched oracle is checked too: moving the first source's hit
    count against the first target at shift 5 by one cell fails the
    criterion at that shift."""
    _skew_oracle_row(monkeypatch, toy(), 0, 5)
    result = acceptance.criterion_1()
    assert not result.passed
    assert result.detail.startswith("mismatch at") and result.detail.endswith("n=5")


def test_criterion_1_keeps_each_oracle_row_with_its_source(monkeypatch):
    """The third utv1 source is T^0 E_2, the first at stage 2: a skew of its
    row is named at stage 2, where a zip that drifted by one source would
    name stage 1 or pass."""
    _skew_oracle_row(monkeypatch, utv1(), 2, 7)
    result = acceptance.criterion_1()
    assert not result.passed
    assert result.detail == "mismatch at utv1 stage2 n=7"


@pytest.mark.parametrize("number,counts,plannings", [(1, 825, 15), (7, 180, 5)])
def test_grid_criteria_share_counts_across_sources(monkeypatch, number, counts, plannings):
    """Criteria 1 and 7 count each shift once per (grid, j0, sign), at the
    deepest K of its sources, and plan once per (grid, j0), not once per
    source or (A, B) pair.  Criterion 1 asks one grid per source stage (6)
    and three single queries: 822 shifts counted per (grid, j0) and 3 single
    ones, where one grid per source counted 5,341 shifts and made 61
    plannings.  The shifts passed to ``pair_counts`` are counted, not its
    calls, which batch the shifts of one K."""
    calls = {"pair_counts": 0, "_plans": 0}
    pair_counts, plans = tower.Tower.pair_counts, tower.Tower._plans

    def counted_shifts(self, index, shifts, K):
        calls["pair_counts"] += len(shifts)
        return pair_counts(self, index, shifts, K)

    def counted_plans(self, *args):
        calls["_plans"] += 1
        return plans(self, *args)

    monkeypatch.setattr(tower.Tower, "pair_counts", counted_shifts)
    monkeypatch.setattr(tower.Tower, "_plans", counted_plans)
    (result,) = acceptance.run_all([number])
    assert result.passed, result.detail
    assert calls == {"pair_counts": counts, "_plans": plannings}


def test_run_all_fills_the_pair_tables_it_always_filled():
    """The criteria fill the tables that one source at a time filled, and a
    few more entries of them: a shift is read once, at the deepest K of its
    sources, so the differences of a source that resolved shallower are read
    at that K too (toy 636 and utv1 1,155 entries one source at a time).
    Counted on fresh tables as (tables, entries) per construction."""
    families = (toy(), utv1(), thm2(2))
    for params in families:
        tower.tower_of(params).reset()
    acceptance.run_all()
    filled = {}
    for params in families:
        tables = tower.tower_of(params)._pairs
        filled[params.label()] = (len(tables), sum(map(len, tables.values())))
    assert filled == {"toy": (60, 670), "utv1": (26, 1241), "thm2(2)": (7, 1464)}


@pytest.mark.parametrize("number,detail", [(2, "failed at j=8"),
                                           (3, "quarter failed at i=4 j=5")])
def test_grid_criteria_name_their_first_failure(monkeypatch, number, detail):
    """Criteria 2 and 3 ask one grid per identity family and still name the
    first identity that fails, in set-then-stage order: one level more at
    the sixth shift of every row fails the first set there."""
    _skew_shift_five(monkeypatch, lambda count, overflow: (count + 1, overflow))
    (result,) = acceptance.run_all([number])
    assert not result.passed
    assert result.detail == detail


def test_criterion_2_halving():
    result = _report(acceptance.criterion_2())
    assert result.passed, result.detail


def test_criterion_3_iterated_halving():
    result = _report(acceptance.criterion_3())
    assert result.passed, result.detail


def test_criterion_4_dead_zone():
    result = _report(acceptance.criterion_4())
    assert result.passed, result.detail


def test_criterion_5_three_column_limit():
    result = _report(acceptance.criterion_5())
    assert result.passed, result.detail


@pytest.mark.xfail(strict=True, reason=DEFECT_NOTE)
def test_criterion_6_dissipativity_scan():
    result = _report(acceptance.criterion_6())
    assert result.passed, result.detail


def test_criterion_7_joining_witness():
    result = _report(acceptance.criterion_7())
    assert result.passed, result.detail


def test_criterion_8_joining_exhaustion():
    result = _report(acceptance.criterion_8())
    assert result.passed, result.detail


@pytest.mark.xfail(strict=True, reason=DEFECT_NOTE)
def test_criterion_9_spectral_indicators():
    result = _report(acceptance.criterion_9())
    assert result.passed, result.detail


# --- attainable content of the two defective criteria -----------------------


def test_criterion_6_defect_is_precisely_the_known_one():
    result = acceptance.criterion_6()
    assert not result.passed
    assert result.known_defect
    assert "k=453" in result.detail
    assert "witness part passed" in result.detail


def test_criterion_6_tail_holds_from_stage_six():
    # true for these 256 samples only: k = 35476 in (h_6, 8h_6] is a nonzero
    # return (test_criterion_6_stage_six_window_has_a_nonzero_return)
    params = thm2(2)
    system = ProductSystem(params, 1, params, 3)
    h6 = height(params, 6)
    for lvl_a in (0, 4, 8):
        for lvl_b in (0, 5):
            a = LevelSet.single(params, 2, lvl_a)
            b = LevelSet.single(params, 2, lvl_b)
            report = dissipativity_scan(system, a, b, h6, 8 * h6, samples=256)
            assert report.all_proven_zero


def test_criterion_6_scans_each_stage_in_one_grid(monkeypatch):
    """One dissipativity grid per stage over all 81 rectangles: the
    self-returns of the distinct sides fill in 12 kernel grids (60 with one
    scan per rectangle), and the counts stay the same.  The sides of one
    grid share their counts: 898 shifts passed to ``pair_counts``, each once
    per (grid, j0, sign), where one count per side and shift made 8,034."""
    for params in (thm2(2), utv1()):  # fresh self-return memos
        tower.tower_of(params).reset()
    calls = {"dissipativity_grid": 0, "grid_counts": 0, "pair_counts": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, call)

    counted(acceptance, "dissipativity_grid")
    counted(tower.Tower, "grid_counts")
    pair_counts = tower.Tower.pair_counts

    def counted_shifts(self, index, shifts, K):
        calls["pair_counts"] += len(shifts)
        return pair_counts(self, index, shifts, K)
    monkeypatch.setattr(tower.Tower, "pair_counts", counted_shifts)
    result = acceptance.criterion_6()
    assert result.known_defect
    assert calls == {"dissipativity_grid": 3, "grid_counts": 12, "pair_counts": 898}


def test_criterion_6_stage_six_window_has_a_nonzero_return():
    """The window (h_6, 8h_6] still has nonzero T x T^3 returns over thm2(2);
    the 256 samples of criterion 6 merely miss them."""
    params = thm2(2)
    e2 = LevelSet.base(params, 2)
    k = 35476
    h6 = height(params, 6)
    assert h6 < k <= 8 * h6
    assert apply_power_bounds(e2, e2, k) == MeasureBound.exactly(Fraction(1, 729), 7)
    assert apply_power_bounds(e2, e2, 3 * k) == MeasureBound.exactly(Fraction(2, 2187), 8)
    res = oracle_intersection(e2, e2, k, 7)
    assert res.fully_defined and res.value == Fraction(1, 729)


@pytest.mark.parametrize("j,count,first", [(4, 44, 453), (5, 132, 3742), (6, 113, 35476)])
def test_criterion_6_windows_scanned_exhaustively(j, count, first):
    """Every shift of (h_j, 8h_j] (7h_j samples of a 7h_j-wide range): the
    nonzero T x T^3 returns of (E2, E2) over thm2(2) that the 256 samples of
    criterion 6 thin out, or miss altogether at j = 6."""
    params = thm2(2)
    e2 = LevelSet.base(params, 2)
    h_j = height(params, j)
    report = dissipativity_scan(ProductSystem(params, 1, params, 3), e2, e2,
                                h_j, 8 * h_j, samples=7 * h_j)
    assert report.scanned == tuple(range(h_j + 1, 8 * h_j + 1))
    assert report.unresolved == ()
    assert len(report.nonzero_returns) == count
    assert report.nonzero_returns[0][0] == first


def test_all_detail_lines_match_the_benchmark_reference():
    """The nine detail lines, byte for byte, as ``perfbench/reference.json``
    records them."""
    reference = json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text())
    details = {f"criterion {r.number}": r.detail for r in acceptance.run_all()}
    assert details == reference["acceptance"]


def test_criterion_9_healthy_clauses():
    params = utv1()
    e2 = LevelSet.base(params, 2)
    heights = [height(params, j) for j in range(3, 9)]
    base = correlations(e2, list(range(8)) + heights)
    assert base.value(0) == 1
    assert all(base.value(-n) == base.value(n) for n in (1, 6, heights[0]))
    assert all(base.value(h) == Fraction(1, 2) for h in heights)
    from rank1lab.spectral import suspension_correlation, toeplitz_min_eigenvalue

    reference = (math.sqrt(math.e) - 1) / (math.e - 1)
    assert all(
        abs(suspension_correlation(base, h) - reference) <= 1e-12 for h in heights
    )
    assert toeplitz_min_eigenvalue(base, 8) >= -1e-9


def test_criterion_9_product_support_is_finite_with_corrected_bound():
    # probes with leading stage >= 6 all vanish; the asserted h_4 bound is
    # what fails, witnessed exactly at k = 453
    params = thm2(2)
    e2 = LevelSet.base(params, 2)
    h6 = height(params, 6)
    probes = [h6 + 1, 2 * h6, 3 * h6 + 17, 5 * h6]
    table = correlations(e2, probes + [3 * k for k in probes] + [453, 3 * 453])
    for k in probes:
        assert table.value(k) * table.value(3 * k) == 0
    assert table.value(453) * table.value(3 * 453) == Fraction(2, 2187)


def test_criterion_9_fejer_stabilization():
    params = thm2(2)
    e2 = LevelSet.base(params, 2)
    h4 = height(params, 4)
    table = correlations(e2, list(range(h4 + 1)) + [3 * k for k in range(h4 + 1)])
    product = correlation_sequence(
        {k: table.value(k) * table.value(3 * k) for k in range(h4 + 1)}
    )
    order = 10**12
    low = fejer_density(product, order, 257)
    high = fejer_density(product, 2 * order, 257)
    assert max(abs(x - y) for x, y in zip(low.values, high.values)) <= 1e-9


def test_run_all_selects_criteria():
    results = acceptance.run_all([2, 4])
    assert [r.number for r in results] == [2, 4]
    assert all(r.passed for r in results)


@pytest.mark.parametrize("numbers", [[10], [0, 2], [-1]])
def test_run_all_rejects_unknown_criteria(numbers):
    with pytest.raises(ValueError, match="no acceptance criterion"):
        acceptance.run_all(numbers)
