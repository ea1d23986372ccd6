"""Product systems T_left^m x T_right^n on rectangles.

Rectangle measures factorize, so a product return is the product of two
one-dimensional values with interval arithmetic; a product with a
proven-zero factor is the shared [0, 0] of its stage.  The dissipativity
scan reports finite evidence only: per-k verdicts distinguish values proven
zero (upper bound exactly 0) from merely unresolved ones, and the report
never claims anything about unscanned shifts.  ``dissipativity_grid`` scans
a list of rectangles in one pass, building one report per distinct pair of
factor rows; ``dissipativity_scan`` is its one-rectangle case.  What a scan
reads of its left factor depends on the left set and the window alone, so
the left factor's ``Tower`` keeps it beside the self-returns and the pair
counts: one left side per (A's stage, A's levels, |left power|, ``k_lo``,
``k_hi``, ``samples``, ``max_stage``), one row of ``samples`` entries, until
``Tower.reset()``; left sets with equal rows share one side, and it keeps
one report per right row.  Scans of one left row over one window fill it
once, share its proven-zero rows and build rows only for its live columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

from .construction import ConstructionParams, stage_geometry
from .serde import MAX_LISTED, format_int
from .tower import LevelSet, MeasureBound, check_max_stage, integers, tower_of

PROVEN_ZERO = "PROVEN-ZERO"
NONZERO = "NONZERO"
UNRESOLVED = "UNRESOLVED"

EVIDENCE_NOTE = (
    "finite scan: evidence for the dissipative tail, not a certified theorem"
)
# the stages i <= RATIO_DEPTH whose heights a scan with a ratio target compares
RATIO_DEPTH = 8


@dataclass(frozen=True)
class ProductSystem:
    left_params: ConstructionParams
    left_power: int
    right_params: ConstructionParams
    right_power: int

    def __post_init__(self):
        integers((self.left_power, self.right_power), "product exponents")
        if self.left_power == 0 or self.right_power == 0:
            raise ValueError("product exponents must be nonzero")


def _check_rectangle(sys: ProductSystem, a: LevelSet, a2: LevelSet):
    if a.params != sys.left_params or a2.params != sys.right_params:
        raise ValueError("rectangle sides must live over the product's constructions")


def product_return(
    sys: ProductSystem, a: LevelSet, a2: LevelSet, k: int, max_stage: int | None = None
) -> MeasureBound:
    """mu(T^{mk} A /\\ A) * mu(T^{nk} A' /\\ A')."""
    _check_rectangle(sys, a, a2)
    ((left,),) = tower_of(a.params).self_returns([a], [sys.left_power * k], max_stage)
    ((right,),) = tower_of(a2.params).self_returns([a2], [sys.right_power * k], max_stage)
    return left.times(right)


@dataclass(frozen=True, slots=True, init=False)
class ReturnRow:
    k: int
    left: MeasureBound
    right: MeasureBound | None  # skipped when the left factor is proven zero
    product: MeasureBound
    verdict: str

    def __init__(self, k, left, right, product, verdict):
        # a scan builds one row per (rectangle, shift): the slot descriptors
        # store the fields without the frozen __setattr__ guard
        _set_k(self, k)
        _set_left(self, left)
        _set_right(self, right)
        _set_product(self, product)
        _set_verdict(self, verdict)


_set_k, _set_left, _set_right, _set_product, _set_verdict = (
    ReturnRow.__dict__[name].__set__ for name in ("k", "left", "right", "product", "verdict"))


@dataclass(frozen=True)
class RectangleReturnReport:
    scanned: tuple[int, ...]
    rows: tuple[ReturnRow, ...]
    nonzero_returns: tuple[tuple[int, Fraction, Fraction], ...]
    unresolved: tuple[int, ...]
    all_proven_zero: bool
    note: str
    ratio_check: tuple[tuple[int, int, int, Fraction, Fraction], ...] | None


def sample_shifts(k_lo: int, k_hi: int, samples: int) -> list[int]:
    """`samples` distinct shifts from the half-open range (k_lo, k_hi], in
    increasing order: k_lo + t * span // samples for t = 1..samples.  More
    than ``MAX_LISTED``, after the cap at the span, are refused unlisted."""
    if k_hi <= k_lo:
        raise ValueError("empty shift range")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    span = k_hi - k_lo
    samples = min(samples, span)  # more would only repeat points
    if samples > MAX_LISTED:
        raise ValueError(f"{format_int(samples)} sampled shifts are above the limit of {MAX_LISTED}")
    # with samples <= span, t * span // samples rises by at least 1 per t
    return [k_lo + t * span // samples for t in range(1, samples + 1)]


def dissipativity_scan(
    sys: ProductSystem,
    a: LevelSet,
    a2: LevelSet,
    k_lo: int,
    k_hi: int,
    samples: int = 256,
    max_stage: int | None = None,
    ratio_target: Fraction | None = None,
) -> RectangleReturnReport:
    """Scan product returns of the rectangle A x A' over (k_lo, k_hi]: the
    one-rectangle case of ``dissipativity_grid``."""
    return dissipativity_grid(
        sys, [(a, a2)], k_lo, k_hi, samples, max_stage, ratio_target)[0]


class _LeftSide(NamedTuple):
    """What a product scan over one window reads of one left factor row: the
    scanned shifts, the row, the rows of its dead columns, where the left
    factor is proven zero (``None`` at the live columns), the live columns,
    in order, and its reports.  Left sets whose rows over one window are
    equal share one side.  ``reports`` maps (the right construction, the
    ratio target, ids of the right bounds at the live columns) to the
    report of those factor rows, which holds those bounds."""

    scanned: tuple[int, ...]
    row: list[MeasureBound]
    rows: tuple[ReturnRow | None, ...]
    live: list[int]
    reports: dict[tuple, RectangleReturnReport]


def dissipativity_grid(
    sys: ProductSystem,
    rects: Iterable[tuple[LevelSet, LevelSet]],
    k_lo: int,
    k_hi: int,
    samples: int = 256,
    max_stage: int | None = None,
    ratio_target: Fraction | None = None,
) -> list[RectangleReturnReport]:
    """``[dissipativity_scan(sys, a, a2, ...) for a, a2 in rects]`` in one pass.

    Every rectangle is validated before any work.  The left side of a scan
    (``_LeftSide``) depends on the left set and the window alone, so the
    left factor's ``Tower`` keeps it until ``reset`` in two memos, which
    this function alone reads and writes: ``_sides`` under (A's stage, A's
    levels, |left power|, ``k_lo``, ``k_hi``, ``samples``, ``max_stage``),
    and ``_side_rows`` under (``k_lo``, ``k_hi``, ``samples``, ids of the
    left row's bounds), so that left sets with equal rows share one side;
    the side holds those bounds, so no id in its key is reused while it is
    stored.  One ``Tower.self_returns`` call fills every left side the memo
    misses, and one more gives the right factors of all rectangles on the
    columns where some left factor is not proven zero: a scan copies the
    dead rows of its left side and builds rows for its live columns only.
    A product with a proven-zero factor is the [0, 0] of the larger
    resolved stage of its factors, which is what ``left.times(right)``
    gives, so no product is multiplied out for it: a dead row's product is
    its left bound itself, and a live row's with a proven-zero right factor
    is its right bound itself where that bound's stage is the larger (the
    left tower's [0, 0] at the left's stage, else).  Every other live cell
    multiplies its two factors in place.  The kernel shares one bound per
    distinct answer, so rectangles whose factor rows hold the same bounds
    share one report, which their left side keeps.
    """
    # checked before the scan memo, so a hit cannot answer for 1.0 as for 1
    integers((k_lo, k_hi, samples), "a scan's window and sample count")
    max_stage = check_max_stage(max_stage)
    if k_lo < 1:
        raise ValueError("k_lo must be >= 1")
    rects = list(rects)
    for a, a2 in rects:
        _check_rectangle(sys, a, a2)
    if not rects:
        sample_shifts(k_lo, k_hi, samples)  # the range and count are still checked
        return []
    left_tower = tower_of(sys.left_params)
    power = abs(sys.left_power)  # a self-return is even in the shift
    keys = [(a.stage, a.levels, power, k_lo, k_hi, samples, max_stage) for a, _ in rects]
    memo = left_tower._sides
    found: dict[tuple, _LeftSide] = {}
    pending: dict[tuple, LevelSet] = {}  # left sides to fill, by key
    for key, (a, _) in zip(keys, rects):
        if key not in found:
            side = memo.get(key)
            if side is None:
                pending[key] = a
            else:
                found[key] = side
    if pending:
        # a miss samples the shifts, which checks the range and count; a hit
        # was checked when it was filled
        scanned = tuple(sample_shifts(k_lo, k_hi, samples))
        lefts = left_tower.self_returns(
            list(pending.values()), [power * k for k in scanned], max_stage)
        # without it sweep's 324 scans build 36 sides, not 4, and its timed
        # phase takes 64.0 ms, not 55.8 (10/10 runs slower)
        by_row = left_tower._side_rows
        for key, row in zip(pending, lefts):
            # the tower shares one bound per answer, so equal rows hold the
            # same ids
            ids = tuple(map(id, row))
            row_key = (k_lo, k_hi, samples, ids)
            side = by_row.get(row_key)
            if side is None:
                # a proven-zero left bound is the [0, 0] of its own stage, so
                # it is its row's product; each distinct bound is tested once
                zero = {i for i, left in dict(zip(ids, row)).items() if not left.hi}
                dead = tuple([ReturnRow(k, left, None, left, PROVEN_ZERO) if i in zero else None
                              for k, left, i in zip(scanned, row, ids)])
                live = [col for col, i in enumerate(ids) if i not in zero]
                # racing fills agree on the first side stored
                side = by_row.setdefault(row_key, _LeftSide(scanned, row, dead, live, {}))
            found[key] = memo.setdefault(key, side)
    sides = [found[key] for key in keys]
    scanned = sides[0].scanned
    cols = sorted(set().union(*(side.live for side in found.values())))
    rights = tower_of(sys.right_params).self_returns(
        [a2 for _, a2 in rects], [sys.right_power * scanned[col] for col in cols], max_stage)
    ratio = None
    if ratio_target is not None:
        ratio = ratio_condition(sys.left_params, sys.right_params, RATIO_DEPTH, ratio_target)
    out = []
    for side, right_row in zip(sides, rights):
        right_at = dict(zip(cols, right_row))
        rights_live = [right_at[col] for col in side.live]
        # equal right bounds are one object, held by the report stored under
        # them; without the reports criterion 6 took 27.7 ms, not 12.7, and
        # with them per call, sweep's 324 scans took 50.9 ms, not 35.6 (12/12)
        key = (sys.right_params, ratio_target, *map(id, rights_live))
        report = side.reports.get(key)
        if report is None:
            rows = side.rows
            nonzero = []
            unresolved = []
            if side.live:
                rows = list(rows)
                for col, right in zip(side.live, rights_live):
                    left = side.row[col]
                    # a bound's lo and hi are >= 0: a Fraction is false at 0
                    if not right.hi:
                        product = (right if right.resolved_stage >= left.resolved_stage
                                   else left_tower.bound(0, 0, left.resolved_stage))
                        verdict = PROVEN_ZERO
                    else:
                        # neither factor is proven zero, so neither is the product
                        product = left.times(right)
                        verdict = NONZERO if product.lo else UNRESOLVED
                    k = side.scanned[col]
                    rows[col] = ReturnRow(k, left, right, product, verdict)
                    if verdict is NONZERO:
                        nonzero.append((k, product.lo, product.hi))
                    elif verdict is UNRESOLVED:
                        unresolved.append(k)
                rows = tuple(rows)
            # racing scans agree on the first report stored
            report = side.reports.setdefault(key, RectangleReturnReport(
                scanned=side.scanned,
                rows=rows,
                nonzero_returns=tuple(nonzero),
                unresolved=tuple(unresolved),
                all_proven_zero=not nonzero and not unresolved,
                note=EVIDENCE_NOTE,
                ratio_check=ratio,
            ))
        out.append(report)
    return out


def ratio_condition(
    params_a: ConstructionParams,
    params_b: ConstructionParams,
    J: int,
    target,
) -> tuple[tuple[int, int, int, Fraction, Fraction], ...]:
    """Rows (i, h_i, h'_i, h_i/h'_i, |h_i/h'_i - target|) for i <= J."""
    target = Fraction(target)
    rows = []
    for i in range(1, J + 1):
        ha = stage_geometry(params_a, i).h
        hb = stage_geometry(params_b, i).h
        ratio = Fraction(ha, hb)
        rows.append((i, ha, hb, ratio, abs(ratio - target)))
    return tuple(rows)
