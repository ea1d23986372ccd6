"""Correlation sequences and spectral-type indicators.

c(n) = mu(T^n A /\\ A) / mu(A) for a chosen base set A: the Fourier
coefficients of the spectral measure of A's normalized indicator.  All
correlations are exact rationals; floating point appears only in the Fejer
density grids, the Toeplitz eigenvalue check and the suspension exponential.

Spectral conclusions are never asserted as booleans here.  The module emits
the indicators the verification layer interprets: persistent correlations
along the tower heights (non-Rajchman behaviour), finitely supported product
correlations (flat, Lebesgue-type behaviour), and the suspension correlation
floor they induce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .serde import MAX_LISTED, format_int
from .tower import LevelSet, integers, power_profile


@dataclass(frozen=True)
class CorrelationSequence:
    """Sparse symmetric table n -> c(n), c(0) = 1, c(-n) = c(n).

    ``entries`` holds exact values keyed by |n|; shifts whose measure did not
    resolve are kept in ``unresolved`` as (lo, hi) pairs and never midpointed.
    Shifts absent from both were not computed.
    """

    entries: tuple[tuple[int, Fraction], ...]
    unresolved: tuple[tuple[int, tuple[Fraction, Fraction]], ...] = ()

    @cached_property
    def _table(self) -> dict[int, Fraction]:
        return dict(self.entries)

    @cached_property
    def _pending(self) -> dict[int, tuple[Fraction, Fraction]]:
        return dict(self.unresolved)

    def __post_init__(self):
        # a shift stored twice would answer for one of its values, or read as
        # exact through value() and as unresolved through fejer_density
        table = dict(self.entries)
        pending = dict(self.unresolved)
        for pairs, unique, where in ((self.entries, table, "entries"),
                                     (self.unresolved, pending, "unresolved")):
            if len(unique) < len(pairs):
                shifts = [n for n, _ in pairs]
                n = next(n for n in shifts if shifts.count(n) > 1)
                raise ValueError(f"shift {n} is stored twice in {where}")
        both = table.keys() & pending.keys()
        if both:
            raise ValueError(f"shift {min(both)} is both resolved and unresolved")
        if table.get(0) != 1:
            raise ValueError("correlation sequences are normalized to c(0) = 1")
        if any(n < 0 for n in table) or any(n < 0 for n, _ in self.unresolved):
            raise ValueError("store nonnegative shifts only; c(-n) = c(n)")
        # ``correlations`` files one value object per distinct answer of the
        # kernel: each object is checked once, not once per shift
        if any(abs(c) > 1 for c in {id(c): c for c in table.values()}.values()):
            raise ValueError("|c(n)| <= 1 must hold")

    def has(self, n: int) -> bool:
        return abs(n) in self._table

    def value(self, n: int) -> Fraction:
        try:
            return self._table[abs(n)]
        except KeyError:
            if abs(n) in self._pending:
                raise ValueError(f"c({n}) did not resolve exactly") from None
            raise ValueError(f"c({n}) was not computed") from None

    def bounds(self, n: int) -> tuple[Fraction, Fraction]:
        if abs(n) in self._table:
            c = self._table[abs(n)]
            return c, c
        return self._pending[abs(n)]

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._table))


def correlations(a: LevelSet, n_list, max_stage: int | None = None) -> CorrelationSequence:
    """Exact correlations of the base set A over the requested shifts."""
    mass = a.measure
    if mass == 0:
        raise ValueError("base set must have positive measure")
    shifts = sorted(set(map(abs, integers(n_list, "shifts"))) - {0})
    entries: dict[int, Fraction] = {0: Fraction(1)}
    unresolved: dict[int, tuple[Fraction, Fraction]] = {}
    # the kernel shares one bound per distinct answer: divide once per bound,
    # and file its shifts under entries if exact, else under unresolved
    scaled: dict[int, tuple[dict, object]] = {}
    for n, bound in zip(shifts, power_profile(a, a, shifts, max_stage)):
        filed = scaled.get(id(bound))
        if filed is None:
            lo = bound.lo / mass
            filed = scaled[id(bound)] = (
                (entries, lo) if bound.exact else (unresolved, (lo, bound.hi / mass)))
        table, value = filed
        table[n] = value
    return CorrelationSequence(
        entries=tuple(sorted(entries.items())),
        unresolved=tuple(sorted(unresolved.items())),
    )


def correlation_sequence(values: dict[int, Fraction]) -> CorrelationSequence:
    """Build a sequence from literal values (keys may be negative)."""
    table: dict[int, Fraction] = {}
    for n, c in zip(integers(values, "correlation shifts"), values.values()):
        c = Fraction(c)
        key = abs(n)
        if key in table and table[key] != c:
            raise ValueError(f"conflicting values for |n| = {key}")
        table[key] = c
    table.setdefault(0, Fraction(1))
    return CorrelationSequence(entries=tuple(sorted(table.items())))


def product_correlation(
    c1: CorrelationSequence, c2: CorrelationSequence, m: int, n: int, k: int
) -> Fraction:
    """Correlation of the rectangle vector under T^m (x) T^n: c1(mk) c2(nk)."""
    return c1.value(m * k) * c2.value(n * k)


_SUSPENSION_DEN = math.e - 1


def suspension_correlation(c: CorrelationSequence, k: int):
    """(e^{c(k)} - 1)/(e - 1): normalized suspension coefficient at shift k.

    Normalization maps c = 1 to 1 and c = 0 to 0.  Interval inputs map to
    interval outputs (exp is monotone).
    """
    lo, hi = c.bounds(k)
    f_lo = (math.exp(lo) - 1.0) / _SUSPENSION_DEN
    if lo == hi:
        return f_lo
    return (f_lo, (math.exp(hi) - 1.0) / _SUSPENSION_DEN)


@dataclass(frozen=True)
class SpectralDensityEstimate:
    order: int
    grid: tuple[float, ...]
    values: tuple[float, ...]
    max_mean_ratio: float
    top_share: float  # mass carried by the highest 5% of grid points


def fejer_density(c: CorrelationSequence, order: int, grid_size: int) -> SpectralDensityEstimate:
    """F_N(theta) = sum_{|n|<N} (1 - |n|/N) c(n) cos(n theta) on a uniform grid.

    Shifts not stored in the sequence count as zero, and so do stored shifts
    whose value is 0.0 as a float, so the grid work scales with the nonzero
    support, not with N or the stored support; a huge N therefore probes
    stabilization of a finitely supported sequence for free.  The stored
    entries are walked once, in shift order, and an exact zero is skipped
    before any float conversion.  Skipping a zero
    term changes no bit: the term is +-0.0, and the sum it would join is never
    -0.0 (it starts at +0.0, and an exactly zero float sum rounds to +0.0), so
    adding the term returns the sum unchanged.  Each other shift adds one
    vector term over the whole grid, in support order, so every grid point
    receives the same float additions in the same order as a per-theta loop
    would, less the zeros, and memory stays one grid wide.  A shift below N
    that did not resolve is rejected with ``ValueError``: its value is an
    interval, not zero.  So is a grid of more than ``MAX_LISTED`` points.
    """
    if order < 1 or grid_size < 1:
        raise ValueError("order and grid size must be >= 1")
    if grid_size > MAX_LISTED:
        raise ValueError(f"grid size {format_int(grid_size)} is above the limit of {MAX_LISTED}")
    for n, _ in c.unresolved:
        if n < order:
            raise ValueError(f"c({n}) did not resolve exactly; it is not zero")
    thetas = [2.0 * math.pi * t / grid_size for t in range(grid_size)]
    grid = np.array(thetas)
    acc = np.zeros(grid_size)
    for n, value in sorted(c.entries):  # shifts are distinct: no value is compared
        if n >= order:
            break
        if not value:
            continue
        cn = float(value)
        if n == 0:
            acc += cn
        elif cn != 0.0:
            acc += 2.0 * (1.0 - n / order) * cn * np.cos(n * grid)
    values = acc.tolist()
    mean = sum(values) / grid_size
    ratio = max(values) / mean if mean != 0 else float("inf")
    top_count = max(1, -(-grid_size // 20))
    total = sum(values)
    top_share = sum(sorted(values, reverse=True)[:top_count]) / total if total else 0.0
    return SpectralDensityEstimate(
        order=order,
        grid=tuple(thetas),
        values=tuple(values),
        max_mean_ratio=ratio,
        top_share=top_share,
    )


def toeplitz_min_eigenvalue(c: CorrelationSequence, order: int = 8) -> float:
    """Smallest eigenvalue of the Toeplitz section [c(i-j)], i,j < order."""
    if order < 1:
        raise ValueError("Toeplitz order must be >= 1")
    row = [float(c.value(n)) for n in range(order)]
    matrix = np.array([[row[abs(i - j)] for j in range(order)] for i in range(order)])
    return float(np.linalg.eigvalsh(matrix)[0])
