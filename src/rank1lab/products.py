"""Product systems T_left^m x T_right^n on rectangles.

Rectangle measures factorize, so a product return is the product of two
one-dimensional values with interval arithmetic; a product with a
proven-zero factor is the shared [0, 0] of its stage.  The dissipativity
scan reports finite evidence only: per-k verdicts distinguish values proven
zero (upper bound exactly 0) from merely unresolved ones, and the report
never claims anything about unscanned shifts.  ``dissipativity_grid`` scans
a list of rectangles in one pass, doing its exact work once per distinct
kernel bound; ``dissipativity_scan`` is its one-rectangle case.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .construction import ConstructionParams, stage_geometry
from .tower import LevelSet, MeasureBound, tower_of

PROVEN_ZERO = "PROVEN-ZERO"
NONZERO = "NONZERO"
UNRESOLVED = "UNRESOLVED"

EVIDENCE_NOTE = (
    "finite scan: evidence for the dissipative tail, not a certified theorem"
)


@dataclass(frozen=True)
class ProductSystem:
    left_params: ConstructionParams
    left_power: int
    right_params: ConstructionParams
    right_power: int

    def __post_init__(self):
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
    increasing order: k_lo + t * span // samples for t = 1..samples."""
    if k_hi <= k_lo:
        raise ValueError("empty shift range")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    span = k_hi - k_lo
    samples = min(samples, span)  # more would only repeat points
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
    ratio_depth: int = 8,
) -> RectangleReturnReport:
    """Scan product returns of the rectangle A x A' over (k_lo, k_hi]: the
    one-rectangle case of ``dissipativity_grid``."""
    return dissipativity_grid(
        sys, [(a, a2)], k_lo, k_hi, samples, max_stage, ratio_target, ratio_depth)[0]


def dissipativity_grid(
    sys: ProductSystem,
    rects: Iterable[tuple[LevelSet, LevelSet]],
    k_lo: int,
    k_hi: int,
    samples: int = 256,
    max_stage: int | None = None,
    ratio_target: Fraction | None = None,
    ratio_depth: int = 8,
) -> list[RectangleReturnReport]:
    """``[dissipativity_scan(sys, a, a2, ...) for a, a2 in rects]`` in one pass.

    Every rectangle is validated before any work and the shifts are sampled
    once.  One ``Tower.self_returns`` call gives the left factors of all
    rectangles and one more the right factors, on the shifts where some left
    factor is not proven zero; a row skips its right factor wherever its own
    left factor is proven zero.  A product with a proven-zero factor is the
    shared [0, 0] of the larger resolved stage of its factors, which is what
    ``left.times(right)`` gives, so no product is multiplied out for it.
    The kernel shares one bound per distinct answer, so the zero test runs
    once per distinct left bound, and product and verdict once per distinct
    pair of factor bounds; rectangles whose factor rows hold the same bounds
    share one report.
    """
    if k_lo < 1:
        raise ValueError("k_lo must be >= 1")
    rects = list(rects)
    for a, a2 in rects:
        _check_rectangle(sys, a, a2)
    scanned = tuple(sample_shifts(k_lo, k_hi, samples))
    if not rects:
        return []
    # rows are keyed on the identities of their bounds, all alive in the memo
    lefts = tower_of(sys.left_params).self_returns(
        [a for a, _ in rects], [sys.left_power * k for k in scanned], max_stage)
    left_keys = [tuple(map(id, row)) for row in lefts]
    zeros: dict[int, MeasureBound] = {}  # resolved stage -> the shared [0, 0]

    def zero(stage: int) -> MeasureBound:
        bound = zeros.get(stage)
        if bound is None:
            bound = zeros[stage] = MeasureBound.exactly(0, stage)
        return bound

    zero_of: dict[int, MeasureBound | None] = {}  # left bound -> its [0, 0] if proven zero
    # left row -> (a product per column, None where the left factor is not
    # proven zero; those live columns)
    known: dict[tuple[int, ...], tuple[list, list[int]]] = {}
    for key, row in zip(left_keys, lefts):
        if key not in known:
            for i, left in dict(zip(key, row)).items():
                if i not in zero_of:
                    zero_of[i] = zero(left.resolved_stage) if left.hi == 0 else None
            dead = list(map(zero_of.__getitem__, key))
            known[key] = (dead, [col for col, product in enumerate(dead) if product is None])
    cols = sorted(set().union(*(live for _, live in known.values())))
    rights = tower_of(sys.right_params).self_returns(
        [a2 for _, a2 in rects], [sys.right_power * scanned[col] for col in cols], max_stage)
    ratio = None
    if ratio_target is not None:
        ratio = ratio_condition(sys.left_params, sys.right_params, ratio_depth, ratio_target)
    products: dict[tuple[int, int], tuple[MeasureBound, str]] = {}
    reports: dict[tuple, RectangleReturnReport] = {}
    out = []
    for left_key, left_row, right_row in zip(left_keys, lefts, rights):
        key = (left_key, tuple(map(id, right_row)))
        report = reports.get(key)
        if report is None:
            right_at = dict(zip(cols, right_row))
            dead, live = known[left_key]
            row_products = list(dead)
            row_rights = [None] * len(scanned)
            verdicts = [PROVEN_ZERO] * len(scanned)
            nonzero = []
            unresolved = []
            for col in live:
                left, right = left_row[col], right_at[col]
                entry = products.get((id(left), id(right)))
                if entry is None:
                    if right.hi == 0:
                        entry = (zero(max(left.resolved_stage, right.resolved_stage)),
                                 PROVEN_ZERO)
                    else:
                        # neither factor is proven zero, so neither is the product
                        product = left.times(right)
                        entry = (product, NONZERO if product.lo > 0 else UNRESOLVED)
                    products[id(left), id(right)] = entry
                product, verdict = entry
                row_rights[col] = right
                row_products[col] = product
                verdicts[col] = verdict
                if verdict is NONZERO:
                    nonzero.append((scanned[col], product.lo, product.hi))
                elif verdict is UNRESOLVED:
                    unresolved.append(scanned[col])
            report = reports[key] = RectangleReturnReport(
                scanned=scanned,
                rows=tuple(map(ReturnRow, scanned, left_row, row_rights, row_products, verdicts)),
                nonzero_returns=tuple(nonzero),
                unresolved=tuple(unresolved),
                all_proven_zero=not nonzero and not unresolved,
                note=EVIDENCE_NOTE,
                ratio_check=ratio,
            )
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
