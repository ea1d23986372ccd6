"""Product systems T_left^m x T_right^n on rectangles.

Rectangle measures factorize, so a product return is the product of two
one-dimensional values with interval arithmetic.  The dissipativity scan
reports finite evidence only: per-k verdicts distinguish values proven zero
(upper bound exactly 0) from merely unresolved ones, and the report never
claims anything about unscanned shifts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
    (left,) = tower_of(a.params).self_returns(a, [sys.left_power * k], max_stage)
    (right,) = tower_of(a2.params).self_returns(a2, [sys.right_power * k], max_stage)
    return left.times(right)


@dataclass(frozen=True)
class ReturnRow:
    k: int
    left: MeasureBound
    right: MeasureBound | None  # skipped when the left factor is proven zero
    product: MeasureBound
    verdict: str


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
    """`samples` distinct shifts from the half-open range (k_lo, k_hi]."""
    if k_hi <= k_lo:
        raise ValueError("empty shift range")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    span = k_hi - k_lo
    samples = min(samples, span)  # more would only repeat points
    points = set()
    for t in range(1, samples + 1):
        points.add(k_lo + max(1, (t * span) // samples))
    return sorted(points)


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
    """Scan product returns of the rectangle A x A' over (k_lo, k_hi].

    Right factors are skipped wherever the left factor is proven zero, since
    the product interval is then [0, 0] regardless.
    """
    if k_lo < 1:
        raise ValueError("k_lo must be >= 1")
    _check_rectangle(sys, a, a2)
    scanned = sample_shifts(k_lo, k_hi, samples)
    lefts = tower_of(a.params).self_returns(a, [sys.left_power * k for k in scanned], max_stage)
    live = [k for k, left in zip(scanned, lefts) if left.hi != 0]
    rights = dict(zip(live, tower_of(a2.params).self_returns(
        a2, [sys.right_power * k for k in live], max_stage)))
    zeros: dict[int, MeasureBound] = {}  # one [0, 0] product per resolved stage
    rows = []
    nonzero = []
    unresolved = []
    for k, left in zip(scanned, lefts):
        right = rights.get(k)
        if right is None:
            stage = left.resolved_stage
            if stage not in zeros:
                zeros[stage] = MeasureBound.exactly(0, stage)
            product = zeros[stage]
        else:
            product = left.times(right)
        if product.hi == 0:
            verdict = PROVEN_ZERO
        elif product.lo > 0:
            verdict = NONZERO
            nonzero.append((k, product.lo, product.hi))
        else:
            verdict = UNRESOLVED
            unresolved.append(k)
        rows.append(ReturnRow(k, left, right, product, verdict))
    ratio = None
    if ratio_target is not None:
        ratio = ratio_condition(sys.left_params, sys.right_params, ratio_depth, ratio_target)
    return RectangleReturnReport(
        scanned=tuple(scanned),
        rows=tuple(rows),
        nonzero_returns=tuple(nonzero),
        unresolved=tuple(unresolved),
        all_proven_zero=all(r.verdict == PROVEN_ZERO for r in rows),
        note=EVIDENCE_NOTE,
        ratio_check=ratio,
    )


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
