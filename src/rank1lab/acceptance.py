"""Acceptance suite: one callable per criterion, shared by the test module
and the CLI ``acceptance`` subcommand.

Each criterion returns a CriterionResult with a one-line detail; nothing here
prints.  Two criteria (6 and 9) contain a finite-stage claim that is provably
too strong for the thm2(2) family; they are implemented faithfully, fail with
the verified counterexample in the detail, and carry ``known_defect=True``.
The analysis lives in the README known-deviations section; the attainable
content of both is still covered by the green checks in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, groupby
from operator import attrgetter

import numpy as np

from . import reports
from .construction import height, stage_geometry, thm2, toy, utv1
from .joinings import domination_witness, partial_joining_grid
from .oracle import IntervalSystem, oracle_intersection
from .products import ProductSystem, dissipativity_grid, dissipativity_scan, product_return
from .spectral import (
    correlation_sequence,
    correlations,
    fejer_density,
    suspension_correlation,
    toeplitz_min_eigenvalue,
)
from .tower import LevelSet, apply_power_bounds, power_grid, tower_of
from .weak_limits import block_value_stages, scan_window, verify_mixture_law


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    known_defect: bool = False

    @property
    def status(self) -> str:
        return reports.PASS if self.passed else reports.FAIL


def _stage2_sets(params, shifts=(0, 1, 3)):
    return [LevelSet.single(params, 2, i) for i in shifts]


def _kernel_rows(kernel, sets, shifts, J):
    """For each source A of ``sets`` in turn (ordered by stage), the kernel's
    (B, n) arrays of count, overflow and K over the targets ``sets``: one
    ``grid_counts`` per source stage, whose sources share their reads.  Each
    source's spans are dropped once its arrays are built."""
    width = len(sets)
    for _, group in groupby(sets, attrgetter("stage")):
        sources = list(group)
        by_source = [[] for _ in sources]  # (block, start, span) of each source
        for block in kernel.grid_counts([(a, b) for a in sources for b in sets], shifts, J):
            start = 0
            for span in block[3]:
                by_source[block[0][start] // width].append((block, start, span))
                start = span[0]
        for s in range(len(sources)):
            count, overflow, stage = (np.zeros((width, len(shifts)), np.int64) for _ in range(3))
            for (rows, cols, counts, _), start, (end, overflows, stages) in by_source[s]:
                cells = np.ix_([i - s * width for i in rows[start:end]], cols)
                flat = np.fromiter(chain.from_iterable(column[start:end] for column in counts),
                                   np.int64, len(cols) * (end - start))
                count[cells] = flat.reshape(len(cols), end - start).T
                overflow[cells] = overflows
                stage[cells] = stages
            by_source[s] = None
            yield count, overflow, stage


def criterion_1() -> CriterionResult:
    """Oracle equivalence on toy and utv1 at matched stage budget J = 6.

    For every ordered pair of stage <= 3 single-level sets and every
    0 <= n <= h_4, the oracle's (value, undefined mass) must equal the
    calculus' (lo, hi - lo); n < 0 is the mirrored ordered pair.  Both are
    compared as integer counts on the stage-J grid: a level of stage K <= J
    covers ``scale[K]`` oracle cells, so the kernel's (count, overflow, K)
    scaled by ``scale[K]`` must be the oracle's (cells hit, cells lost).
    Each construction makes one ``IntervalSystem.orbit_counts`` call, which
    labels the targets once and yields every source's (B, n) arrays of hits
    and lost cells in turn.  The kernel makes one ``grid_counts`` call per
    source stage (``_kernel_rows``), whose sources share their pair-table
    reads, and each source's spans of the blocks are scattered into (B, n)
    arrays as the oracle reaches it; the two are compared as integer
    arrays, and the first mismatch is reported in (A, B, n) order.
    Exact-value equality is asserted wherever the orbit fully resolves at
    J = 6 (all of utv1), plus deep toy spot checks where exactness needs
    stage ~18.  The deep checks run first: their stage-18 oracle then does
    not land on the memory of the grids, and a deep failure is reported
    before any matched-budget mismatch.
    """
    # toy needs ~stage 18 for worst-case exactness; spot-check the deep end
    t = toy()
    deep = [
        (LevelSet.base(t, 1), LevelSet.base(t, 1), 15, 16),
        (LevelSet.single(t, 3, 6), LevelSet.single(t, 3, 0), 15, 18),
        (LevelSet.single(t, 2, 2), LevelSet.single(t, 3, 5), 14, 17),
    ]
    for a, b, n, deep_stage in deep:
        res = oracle_intersection(a, b, n, deep_stage)
        calc = apply_power_bounds(a, b, n, max_stage=deep_stage)
        if not (res.fully_defined and calc.exact and res.value == calc.value):
            return CriterionResult(1, "oracle-equivalence", False,
                                   f"deep toy check failed at n={n}")
    J = 6
    checked = exact = 0
    for params in (toy(), utv1()):
        h4 = height(params, 4)
        sets = [
            LevelSet.single(params, s, lvl)
            for s in (1, 2, 3)
            for lvl in range(height(params, s))
        ]
        system = IntervalSystem(params, J)
        scale = [0] * (J + 1)  # oracle cells per kernel level of stage K
        for K in range(1, J + 1):
            ratio = stage_geometry(params, K).level_width / system.cell_width
            if ratio.denominator != 1:
                return CriterionResult(
                    1, "oracle-equivalence", False,
                    f"stage-{K} level of {params.label()} is not a whole number of cells",
                )
            scale[K] = ratio.numerator
        scale = np.array(scale)
        shifts = range(h4 + 1)
        kernel = _kernel_rows(tower_of(params), sets, shifts, J)
        for a, (hits, lost), (count, overflow, stage) in zip(
                sets, system.orbit_counts(sets, sets, shifts), kernel):
            cells = scale[stage]
            mismatch = (hits != count * cells) | (lost != overflow * cells)
            failed = mismatch | ((lost == 0) & (overflow != 0))
            if failed.any():
                t, i = divmod(int(np.argmax(failed)), len(shifts))
                return CriterionResult(
                    1, "oracle-equivalence", False,
                    f"mismatch at {params.label()} stage{a.stage} n={shifts[i]}"
                    if mismatch[t, i] else f"calculus not exact where oracle is, n={shifts[i]}",
                )
            checked += mismatch.size
            exact += len(sets) * int(np.count_nonzero(lost == 0))
    return CriterionResult(
        1, "oracle-equivalence", True,
        f"{checked} matched-budget identities, {exact} exact, 3 deep toy checks",
    )


def criterion_2() -> CriterionResult:
    """Halving: mu(T^{h_j} A /\\ A) = mu(A)/2 exactly, utv1, j = 3..8."""
    params = utv1()
    sets, stages = _stage2_sets(params), range(3, 9)
    grid = power_grid([(a, a) for a in sets], [height(params, j) for j in stages])
    for a, row in zip(sets, grid):
        for j, bound in zip(stages, row):
            if not (bound.exact and bound.value == a.measure / 2):
                return CriterionResult(2, "halving", False, f"failed at j={j}")
    return CriterionResult(2, "halving", True, f"{len(sets) * len(stages)} exact equalities")


def criterion_3() -> CriterionResult:
    """Iterated halving and the unit-shift reduction identity, utv1."""
    params = utv1()
    sets, stages = _stage2_sets(params), range(3, 9)
    stage_pairs = [(i, j) for i in stages for j in stages if i < j]
    grid = power_grid([(a, a) for a in sets],
                      [height(params, j) + height(params, i) for i, j in stage_pairs])
    for a, row in zip(sets, grid):
        for (i, j), bound in zip(stage_pairs, row):
            if not (bound.exact and bound.value == a.measure / 4):
                return CriterionResult(3, "iterated-halving", False,
                                       f"quarter failed at i={i} j={j}")
    pairs = [(a, b) for a in sets for b in sets]
    for base, *row in power_grid(pairs, [1] + [height(params, j) + 1 for j in stages]):
        for j, bound in zip(stages, row):
            if not (bound.exact and base.exact and bound.value == base.value / 2):
                return CriterionResult(3, "iterated-halving", False,
                                       f"shift identity failed at j={j}")
    return CriterionResult(3, "iterated-halving", True,
                           f"{len(sets) * len(stage_pairs)} quarter + "
                           f"{len(pairs) * len(stages)} shift identities")


def criterion_4() -> CriterionResult:
    """Dead zone: 64 samples + endpoints per zone are exactly zero, j = 4..7."""
    params = utv1()
    count = 0
    for a in _stage2_sets(params):
        for j in range(4, 8):
            report = scan_window(params, j, a, a, dead_samples=64)
            if not report.dead_zone_exact_zero:
                return CriterionResult(4, "dead-zone", False,
                                       f"nonzero in zone at j={j}")
            count += len(report.dead_rows)
    return CriterionResult(4, "dead-zone", True, f"{count} sampled shifts, all zero")


def criterion_5() -> CriterionResult:
    """Three-column limit law at the two largest qualifying stages <= 9."""
    params = thm2(2)
    a = LevelSet.base(params, 2)
    stages = block_value_stages(1, 9)[-2:]
    tol = Fraction(2, 100) * a.measure
    details = []
    for n in (1, 2):
        report = verify_mixture_law(2, n, 1, a, a, stage_list=stages, tol=tol)
        if report.status != reports.PASS:
            return CriterionResult(5, "three-column-limit", False,
                                   f"n={n}: status {report.status}")
        if not report.decreasing:
            return CriterionResult(5, "three-column-limit", False,
                                   f"n={n}: deviations not decreasing")
        details.append(f"n={n} devs " + ",".join(str(r.dev_hi) for r in report.rows))
    return CriterionResult(5, "three-column-limit", True,
                           f"stages {stages}; " + "; ".join(details))


def criterion_6() -> CriterionResult:
    """Dissipativity scan for T x T^3 over thm2(2) plus the T x T witness.

    The scan asserts the strong finite-stage form: every sampled return in
    (h_j, 8h_j] vanishes already for j in {4,5,6}.  That is provably false
    at j = 4, 5; the detail carries the oracle-confirmed counterexample and
    the README's known-deviations section carries the analysis.
    """
    params = thm2(2)
    system = ProductSystem(params, 1, params, 3)
    levels = [LevelSet.single(params, 2, i) for i in range(height(params, 2))]
    rects = [(a, b) for a in levels for b in levels]
    violations = []
    for j in (4, 5, 6):
        h_j = height(params, j)
        reports = dissipativity_grid(system, rects, h_j, 8 * h_j)
        for (a, b), report in zip(rects, reports):
            if report.unresolved:
                return CriterionResult(6, "dissipativity-scan", False,
                                       f"unresolved shifts at j={j}")
            for k, lo, _ in report.nonzero_returns:
                violations.append((j, a.levels[0], b.levels[0], k, lo))
    witness_params = utv1()
    e2 = LevelSet.base(witness_params, 2)
    self_product = ProductSystem(witness_params, 1, witness_params, 1)
    expected = (e2.measure / 2) ** 2
    for j in range(3, 9):
        bound = product_return(self_product, e2, e2, height(witness_params, j))
        if not (bound.exact and bound.value == expected):
            return CriterionResult(6, "dissipativity-scan", False,
                                   f"T x T witness failed at j={j}")
    if violations:
        j, la, lb, k, lo = violations[0]
        return CriterionResult(
            6, "dissipativity-scan", False,
            f"{len(violations)} nonzero returns at j in (4,5); first: j={j} "
            f"rect (T^{la}E2,T^{lb}E2) k={k} value {lo} (the finite-stage "
            "emptiness assertion fails below stage 6; witness part passed)",
            known_defect=True,
        )
    return CriterionResult(6, "dissipativity-scan", True,
                           "all sampled returns proven zero; witness exact")


def criterion_7() -> CriterionResult:
    """Joining-domination witness: margin >= 0 exactly on the 25-rectangle grid."""
    params = utv1()
    grid = [
        (LevelSet.single(params, 2, i), LevelSet.single(params, 2, k))
        for i in range(5)
        for k in range(5)
    ]
    for m in (0, 1, -1, 2, -2):
        report = domination_witness(params, m, grid, range(4, 9), eps=0)
        if report.vacuous or not report.passed:
            return CriterionResult(7, "joining-witness", False, f"failed at m={m}")
        for row in report.rows:
            if row.margin_lo != row.margin_hi or row.margin_lo < 0:
                return CriterionResult(7, "joining-witness", False,
                                       f"non-exact margin at m={m} j={row.j}")
    return CriterionResult(7, "joining-witness", True,
                           "margins exact and >= 0 for m in {0, ±1, ±2}")


def criterion_8() -> CriterionResult:
    """Partial joinings grow in j and exhaust the full value by stage(A)+4."""
    params = utv1()
    tol = Fraction(1, 10**6)
    grid = [
        (LevelSet.single(params, 2, i), LevelSet.single(params, 2, k))
        for i in range(5)
        for k in range(5)
    ]
    shifts = range(-5, 6)
    # per rectangle: its row of partial joinings at each j = 2..6, then of full values
    stages = [partial_joining_grid(grid, shifts, j) for j in range(2, 7)]
    count = 0
    for *rows, full_row in zip(*stages, power_grid(grid, shifts)):
        for k, full, *bounds in zip(shifts, full_row, *rows):
            values = [bound.value for bound in bounds]
            if any(v2 < v1 for v1, v2 in zip(values, values[1:])):
                return CriterionResult(8, "joining-exhaustion", False,
                                       f"not monotone at k={k}")
            if not full.exact or abs(full.value - values[-1]) > tol:
                return CriterionResult(8, "joining-exhaustion", False,
                                       f"gap at k={k}: {full.value - values[-1]}")
            count += 1
    return CriterionResult(8, "joining-exhaustion", True,
                           f"{count} (rectangle, k) pairs monotone and exhausted")


def criterion_9() -> CriterionResult:
    """Spectral indicators.

    All single-system clauses hold exactly.  The product-correlation probe
    asserts vanishing for all probed k > h_4; it fails at the same
    small-stage shifts as criterion 6 and carries ``known_defect``.
    """
    params = utv1()
    e2 = LevelSet.base(params, 2)
    heights = [height(params, j) for j in range(3, 9)]
    base = correlations(e2, list(range(8)) + heights)
    if base.value(0) != 1:
        return CriterionResult(9, "spectral-indicators", False, "c(0) != 1")
    for n in (1, 5, heights[0]):
        if base.value(-n) != base.value(n):
            return CriterionResult(9, "spectral-indicators", False, "c(-n) != c(n)")
    eig = toeplitz_min_eigenvalue(base, order=8)
    if eig < -1e-9:
        return CriterionResult(9, "spectral-indicators", False,
                               f"Toeplitz eigenvalue {eig}")
    for h_j in heights:
        if base.value(h_j) != Fraction(1, 2):
            return CriterionResult(9, "spectral-indicators", False,
                                   f"c({h_j}) != 1/2")
        reference = (math.sqrt(math.e) - 1.0) / (math.e - 1.0)
        if abs(suspension_correlation(base, h_j) - reference) > 1e-12:
            return CriterionResult(9, "spectral-indicators", False,
                                   "suspension value off")
    # product correlations of T x T^3 over thm2(2)
    tparams = thm2(2)
    te2 = LevelSet.base(tparams, 2)
    h4 = height(tparams, 4)
    # the probe is criterion 6's scan of (T^0E2, T^0E2) over the zone above h_4
    bad = dissipativity_scan(ProductSystem(tparams, 1, tparams, 3), te2, te2,
                             h4, 8 * h4).nonzero_returns
    # Fejer stabilization of the finitely supported product table
    table = correlations(te2, list(range(h4 + 1)) + [3 * k for k in range(h4 + 1)])
    product_table = correlation_sequence(
        {k: table.value(k) * table.value(3 * k) for k in range(h4 + 1)}
    )
    order = 10**12
    grid = 257
    est_1 = fejer_density(product_table, order, grid)
    est_2 = fejer_density(product_table, 2 * order, grid)
    drift = max(abs(x - y) for x, y in zip(est_1.values, est_2.values))
    if drift > 1e-9:
        return CriterionResult(9, "spectral-indicators", False,
                               f"Fejer estimates drift by {drift}")
    if bad:
        k, lo, _ = bad[0]
        value = lo / te2.measure ** 2
        return CriterionResult(
            9, "spectral-indicators", False,
            f"{len(bad)} probed shifts > h_4 with nonzero product correlation; "
            f"first k={k} -> {value} (same finite-stage defect as criterion 6); "
            f"all other clauses passed, Fejer drift {drift:.2e}",
            known_defect=True,
        )
    return CriterionResult(9, "spectral-indicators", True,
                           f"all clauses passed, Fejer drift {drift:.2e}")


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
)


def run_all(numbers=None) -> list[CriterionResult]:
    """Run the selected criteria (all of them when ``numbers`` is empty), in order."""
    selected = set(numbers) if numbers else None
    unknown = sorted(selected - set(range(1, len(CRITERIA) + 1))) if selected else []
    if unknown:
        raise ValueError(f"no acceptance criterion {', '.join(map(str, unknown))}; "
                         f"choose from 1..{len(CRITERIA)}")
    results = []
    for index, func in enumerate(CRITERIA, start=1):
        if selected is None or index in selected:
            results.append(func())
    return results
