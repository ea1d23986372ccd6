"""Off-diagonal self-joinings and their finite-stage tower windows.

The shifted diagonal measure evaluates on rectangles as
Delta^k(A x B) = mu(A /\\ T^{-k} B) = mu(T^k A /\\ B); its graph pairs each
point x with T^k x.  The stage-j partial joining restricts that graph to the
pairs whose both coordinates sit inside the stage-j tower, which makes every
value a plain level count: for k >= 0 it counts levels i with i in A's
stage-j levels and i+k in B's, i+k < h_j (mirrored for k < 0), times the
level width.  Partial joinings grow with j and exhaust the full value.  They
are counted by ``Tower.stage_grid``, the kernel's path at a fixed stage, a
grid at a time; one partial joining is a one-cell grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .construction import ConstructionParams, stage_geometry
from .serde import format_int, format_number
from .tower import (LevelSet, MeasureBound, apply_power_bounds, check_construction,
                    grid_tower, integer, integers, power_grid)


def delta_shift(a: LevelSet, b: LevelSet, k: int, max_stage: int | None = None) -> MeasureBound:
    """Delta^k(A x B) = mu(A /\\ T^{-k} B), delegated to the level calculus."""
    return apply_power_bounds(a, b, k, max_stage)


def partial_joining(a: LevelSet, b: LevelSet, k: int, j: int) -> MeasureBound:
    """Stage-j partial joining Delta^k_j(A x B); exact by construction.  The
    one-pair, one-shift case of ``partial_joining_grid``."""
    return partial_joining_grid([(a, b)], [k], j)[0][0]


def partial_joining_grid(pairs, shifts, j: int) -> list[list[MeasureBound]]:
    """``[[partial_joining(a, b, k, j) for k in shifts] for a, b in pairs]``
    in one call, for pairs of one construction with every set at a stage
    <= j and every |k| <= h_j, checked once.  The pairs that share A share
    one kernel count per k, and equal values share one bound."""
    pairs, shifts = list(pairs), integers(shifts, "shifts")
    j = integer(j, "stages")  # checked before the memo of bounds at K = j
    if not pairs:
        return []
    tower = grid_tower(pairs)
    h = tower.stage(j).h  # builds stage j for ``stage_grid``
    for k in shifts:
        if abs(k) > h:
            raise ValueError(f"|k| = {format_int(abs(k))} exceeds tower height "
                             f"{format_int(h)} at stage {j}")
    for a, b in pairs:
        if a.stage > j or b.stage > j:
            raise ValueError("sets are not representable at the requested stage")
    return tower.stage_grid(pairs, shifts, j)


@dataclass(frozen=True)
class JoiningCombination:
    """Convex combination sum_k c^k Delta^k_j with weights summing to 1."""

    stage: int
    weights: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        total = Fraction(0)
        seen = set()
        for k, c in self.weights:
            if k in seen:
                raise ValueError(f"duplicate shift {k}")
            seen.add(k)
            if c < 0:
                raise ValueError("weights must be >= 0")
            total += c
        if total != 1:
            raise ValueError(f"weights sum to {total}, not 1")

    @classmethod
    def from_dict(cls, stage: int, weights: dict[int, Fraction]) -> "JoiningCombination":
        shifts = integers(weights, "a joining combination's shifts")
        return cls(stage, tuple(sorted(zip(shifts, map(Fraction, weights.values())))))


def combination_value(comb: JoiningCombination, a: LevelSet, b: LevelSet) -> MeasureBound:
    weights = [(k, c) for k, c in comb.weights if c != 0]
    (values,) = partial_joining_grid([(a, b)], [k for k, _ in weights], comb.stage)
    acc = MeasureBound.exactly(0)
    for (_, c), value in zip(weights, values):
        acc = acc + value.scaled(c)
    return acc


@dataclass(frozen=True)
class WitnessRow:
    j: int
    k_chosen: int | None
    margin_lo: Fraction | None
    margin_hi: Fraction | None

    def to_json(self) -> dict:
        return {
            "j": self.j,
            "k_chosen": format_int(self.k_chosen) if self.k_chosen is not None else None,
            "margin_lo": format_number(self.margin_lo) if self.margin_lo is not None else None,
            "margin_hi": format_number(self.margin_hi) if self.margin_hi is not None else None,
        }


@dataclass(frozen=True)
class WitnessReport:
    m: int
    rows: tuple[WitnessRow, ...]
    passed: bool
    vacuous: bool


def _witness_candidates(params: ConstructionParams, j: int, m: int) -> list[int]:
    h_j = stage_geometry(params, j).h
    h_prev = stage_geometry(params, j - 1).h
    raw = [
        m,
        m + h_j,
        m - h_j,
        m + h_j + h_prev,
        m + h_j - h_prev,
        m - h_j + h_prev,
        m - h_j - h_prev,
    ]
    return sorted(set(raw))


def domination_witness(
    params: ConstructionParams,
    m: int,
    rect_grid,
    j_range,
    eps=Fraction(0),
    max_stage: int | None = None,
) -> WitnessReport:
    """For each stage pick the shift k(j) whose Delta^{k(j)} dominates
    half of Delta^m uniformly over the rectangle grid.

    The margin is min over the grid of Delta^{k}(A x B) - (1/2) Delta^m(A x B);
    PASS needs margin >= -eps at every stage.  Candidates are the finite menu
    k = m, +-h_j + m, +-h_j +- h_{j-1} + m; ties prefer the largest |k| so the
    reported witness is a genuinely escaping shift.  The menu needs h_{j-1},
    so every stage must be >= 2, and it reads ``params``, so every set must
    belong to it.  One ``power_grid`` answers every rectangle at m and at
    every stage's menu.  With no rectangle or no stage the report is
    vacuous, and the kernel is not asked.
    """
    eps = Fraction(eps)
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    j_range = list(j_range)
    for j in j_range:
        if j < 2:
            raise ValueError(
                f"witness stage j = {j} must be >= 2: its shift menu uses h_(j-1)"
            )
    rect_grid = list(rect_grid)
    check_construction(params, (s for rect in rect_grid for s in rect))  # the menu reads params
    if not rect_grid or not j_range:  # nothing to check: no PASS is earned
        rows = tuple(WitnessRow(j, None, None, None) for j in j_range)
        return WitnessReport(m=m, rows=rows, passed=True, vacuous=True)
    menus = [_witness_candidates(params, j, m) for j in j_range]
    shifts = [m] + [k for menu in menus for k in menu]
    # one column of bounds per shift, the column at m first, and their ids
    columns = list(zip(*power_grid(rect_grid, shifts, max_stage)))
    ids = [list(map(id, column)) for column in columns]
    # margins in integers: a bound is a count of its stage's level widths,
    # and each width a multiple of the deepest one, so in units of half the
    # deepest width every bound is an even integer and its half an integer.
    # The kernel shares one bound per distinct answer: each is scaled once.
    bounds = dict(zip(chain.from_iterable(ids), chain.from_iterable(columns)))
    deepest = max(bound.resolved_stage for bound in bounds.values())
    unit = stage_geometry(params, deepest).level_width / 2
    num, den = unit.denominator, unit.numerator  # x / unit = x * num / den
    lo_units, hi_units = {}, {}
    for key, bound in bounds.items():
        lo, hi = bound.lo, bound.hi
        lo_units[key] = lo.numerator * num // (lo.denominator * den)
        hi_units[key] = hi.numerator * num // (hi.denominator * den)
    at_m, *ids = ids
    rows = []
    passed = True
    col = 0
    for j, menu in zip(j_range, menus):
        best = None
        for k in menu:
            # each margin over the distinct (bound at k, bound at m)
            pairs = set(zip(ids[col], at_m))
            margin_lo = min([lo_units[at_k] - hi_units[at] // 2 for at_k, at in pairs])
            margin_hi = min([hi_units[at_k] - lo_units[at] // 2 for at_k, at in pairs])
            col += 1
            key = (margin_lo, abs(k), k)
            if best is None or key > best[0]:
                best = (key, k, margin_lo, margin_hi)
        _, k_chosen, margin_lo, margin_hi = best
        margin_lo, margin_hi = margin_lo * unit, margin_hi * unit
        rows.append(WitnessRow(j, k_chosen, margin_lo, margin_hi))
        if margin_lo < -eps:
            passed = False
    return WitnessReport(m=m, rows=tuple(rows), passed=passed, vacuous=False)
