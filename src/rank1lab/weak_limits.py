"""Weak limits of powers T^{n(k)} against polynomial candidate operators.

A candidate limit is a finite nonnegative combination sum_p c_p T^p with
total weight <= 1 (the deficit is mass escaping to infinity).  For the preset
families the limits along n(k) = s + sum_i alpha_i h_{j_i(k)} are attained
exactly at finite stage, so the default tolerance is zero and deviations are
compared as rationals.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from . import reports
from .construction import ConstructionParams, block_sequence, stage_geometry, thm2
from .products import sample_shifts
from .serde import MAX_LISTED, format_int
from .tower import (LevelSet, MeasureBound, check_construction, integers, power_grid,
                    power_profile)


@dataclass(frozen=True)
class OperatorPolynomial:
    """Finite nonnegative combination sum_p c_p T^p with sum c_p <= 1."""

    coeffs: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        seen = set()
        total = Fraction(0)
        for p, c in self.coeffs:
            if p in seen:
                raise ValueError(f"duplicate power {p}")
            seen.add(p)
            if c < 0:
                raise ValueError("coefficients must be >= 0")
            total += c
        if total > 1:
            raise ValueError(f"total weight {total} > 1")

    @classmethod
    def from_dict(cls, coeffs: dict[int, Fraction]) -> "OperatorPolynomial":
        powers = integers(coeffs, "an operator polynomial's powers")
        cleaned = tuple(sorted((p, Fraction(c))
                               for p, c in zip(powers, coeffs.values()) if c != 0))
        return cls(cleaned)

    @property
    def total(self) -> Fraction:
        return sum((c for _, c in self.coeffs), Fraction(0))

    @property
    def escape_mass(self) -> Fraction:
        return 1 - self.total

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c}*T^{p}" for p, c in self.coeffs)


_POLY_TERM = re.compile(
    r"^(?:(?P<c>\d+(?:/\d+)?)\s*\*\s*)?T\^(?P<p>-?\d+)$|^(?P<const>\d+(?:/\d+)?)$"
)


def parse_polynomial(text: str) -> OperatorPolynomial:
    """Parse "1/2*T^0 + 1/4*T^-1", "T^1", or "0"."""
    coeffs: dict[int, Fraction] = {}
    for raw in text.split("+"):
        raw = raw.strip()
        if not raw:
            continue
        m = _POLY_TERM.match(raw)
        if m is None:
            raise ValueError(f"cannot parse polynomial term {raw!r}")
        try:
            if m.group("const") is not None:
                p, c = 0, Fraction(m.group("const"))
            else:
                p = int(m.group("p"))
                c = Fraction(m.group("c")) if m.group("c") else Fraction(1)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in polynomial term {raw!r}") from None
        coeffs[p] = coeffs.get(p, Fraction(0)) + c
    return OperatorPolynomial.from_dict(coeffs)


def predict(
    poly: OperatorPolynomial, a: LevelSet, b: LevelSet, max_stage: int | None = None
) -> MeasureBound:
    """sum_p c_p mu(T^p A /\\ B); unresolved pieces propagate as intervals."""
    bounds = power_profile(a, b, [p for p, _ in poly.coeffs], max_stage)
    return sum((bound.scaled(c) for (_, c), bound in zip(poly.coeffs, bounds)),
               MeasureBound.exactly(0))


@dataclass(frozen=True)
class CandidateSequence:
    """n(k) = s + sum_i alpha_i h_{k - lag_i} with strictly increasing lags.

    Lags are offsets from the running index k, so the selected stages
    j_i(k) = k - lag_i are strictly decreasing in i and walk to infinity
    together with k.
    """

    s: int = 0
    terms: tuple[tuple[int, int], ...] = ()  # (alpha_i, lag_i)

    def __post_init__(self):
        prev = -1
        for alpha, lag in self.terms:
            if alpha == 0:
                raise ValueError("alpha coefficients must be nonzero")
            if lag <= prev:
                raise ValueError("stage lags must be strictly increasing")
            prev = lag

    def min_stage(self, k: int) -> int:
        return k - self.terms[-1][1] if self.terms else k

    def evaluate(self, params: ConstructionParams, k: int) -> int:
        if self.terms and self.min_stage(k) < 2:
            raise ValueError(f"k = {k} selects a stage below 2")
        n = self.s
        for alpha, lag in self.terms:
            n += alpha * stage_geometry(params, k - lag).h
        return n

    def __str__(self) -> str:
        parts = []
        for alpha, lag in self.terms:
            idx = "k" if lag == 0 else f"k-{lag}"
            coeff = "" if alpha == 1 else ("-" if alpha == -1 else f"{alpha}*")
            parts.append(f"{coeff}h_{{{idx}}}")
        if self.s or not parts:
            parts.append(str(self.s))
        return " + ".join(parts).replace("+ -", "- ")


_SEQ_TOKEN = re.compile(
    r"(?P<sign>[+-])?\s*(?:(?P<mult>\d+)\s*\*\s*)?h_\{?\s*[jk](?:\s*-\s*(?P<lag>\d+))?\s*\}?"
    r"|(?P<sign2>[+-])?\s*(?P<const>\d+)"
)


def parse_sequence(text: str) -> CandidateSequence:
    """Parse "h_j", "h_k+h_{k-1}", "h_k + 1", "2*h_{k-2} - h_{k-3} + 5", ..."""
    terms: list[tuple[int, int]] = []
    s = 0
    pos = 0
    matched = False
    for m in _SEQ_TOKEN.finditer(text):
        if text[pos:m.start()].strip():
            raise ValueError(f"cannot parse sequence near {text[pos:m.start()]!r}")
        pos = m.end()
        matched = True
        if m.group("const") is not None:
            sign = -1 if m.group("sign2") == "-" else 1
            s += sign * int(m.group("const"))
        else:
            sign = -1 if m.group("sign") == "-" else 1
            mult = int(m.group("mult")) if m.group("mult") else 1
            terms.append((sign * mult, int(m.group("lag") or 0)))
    if not matched or text[pos:].strip():
        raise ValueError(f"cannot parse sequence {text!r}")
    terms.sort(key=lambda t: t[1])
    return CandidateSequence(s=s, terms=tuple(terms))


@dataclass(frozen=True)
class LimitCheckRow:
    k: int
    n: int
    pair_index: int
    value: MeasureBound
    prediction: MeasureBound
    dev_lo: Fraction
    dev_hi: Fraction
    status: str


@dataclass(frozen=True)
class LimitReport:
    rows: tuple[LimitCheckRow, ...]
    max_deviation: Fraction
    status: str


def _check_limit(points, poly, pairs, tol, max_stage: int | None) -> list[tuple]:
    """The limit-check loop: for each (key, n) of ``points``, then each (A, B)
    of ``pairs``, the row ``(key, n, pair index, value, prediction, dev_lo,
    dev_hi, status)`` comparing mu(T^n A /\\ B) with ``predict(poly, A, B)``.

    A negative tolerance is rejected, and the points are evaluated, before
    any query.  The values of every pair come from one ``power_grid``.
    """
    tol = Fraction(tol)
    if tol < 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    points = list(points)
    predicted = [predict(poly, a, b, max_stage) for a, b in pairs]
    values = power_grid(pairs, [n for _, n in points], max_stage)
    rows = []
    for col, (key, n) in enumerate(points):
        for idx, (pred, row) in enumerate(zip(predicted, values)):
            dev_lo, dev_hi = row[col].deviation_from(pred)
            rows.append((key, n, idx, row[col], pred, dev_lo, dev_hi,
                         reports.classify_deviation(dev_lo, dev_hi, tol)))
    return rows


def verify_limit(
    params: ConstructionParams,
    seq: CandidateSequence,
    poly: OperatorPolynomial,
    test_pairs,
    k_range,
    tol=Fraction(0),
    max_stage: int | None = None,
) -> LimitReport:
    """Compare mu(T^{n(k)} A /\\ B) against the polynomial prediction.

    Pairs whose interval is wider than the tolerance yield INCONCLUSIVE
    rows; only a deviation certainly above tol yields FAIL.  No pairs or no
    k would check nothing; either is refused with ``ValueError`` before any
    query, as are sets of another construction and an n(k) below stage 2.
    """
    test_pairs, k_range = list(test_pairs), list(k_range)
    for given, what in ((test_pairs, "test pairs"), (k_range, "k values")):
        if not given:
            raise ValueError(f"no {what}: a limit check over none would pass vacuously")
    check_construction(params, (s for pair in test_pairs for s in pair))  # n(k) reads params
    points = ((k, seq.evaluate(params, k)) for k in k_range)
    rows = [LimitCheckRow(*row) for row in _check_limit(points, poly, test_pairs, tol, max_stage)]
    max_dev = max(r.dev_hi for r in rows)
    return LimitReport(tuple(rows), max_dev, reports.combine(r.status for r in rows))


@dataclass(frozen=True)
class WindowScanReport:
    j: int
    window: tuple[int, int]
    dead_zone: tuple[int, int]
    window_rows: tuple[tuple[int, MeasureBound], ...]
    dead_rows: tuple[tuple[int, MeasureBound], ...]
    dead_zone_exact_zero: bool


def scan_window(
    params: ConstructionParams,
    j: int,
    a: LevelSet,
    b: LevelSet,
    step: int | None = None,
    dead_samples: int | None = 64,
    max_stage: int | None = None,
) -> WindowScanReport:
    """Tabulate mu(T^n A /\\ B) over the active window around h_j and sample
    the dead zone [h_j + 2h_{j-1}, h_{j+1} - 2h_j], where values must vanish.

    The window lists every ``step``-th shift from its start, h_j and its end.
    The dead zone lists its start and ``dead_samples + 1`` evenly spread
    shifts up to its end, fewer if the zone is short; ``None`` lists every
    shift of the zone.  Both lists are counted from their bounds before any
    is built, and a scan that would list more than ``MAX_LISTED`` shifts
    in either is refused with ``ValueError`` before any query, as are sets
    of another construction than ``params`` and a j that opens no dead zone,
    where the scan would check nothing.  Both go through one ``power_profile``.
    """
    if j < 3:
        raise ValueError("scan needs j >= 3")
    check_construction(params, (a, b))  # the heights are read from params
    if max(a.stage, b.stage) > j - 2:
        raise ValueError("test sets must be measurable strictly below stage j-1")
    h_prev = stage_geometry(params, j - 1).h
    h_j = stage_geometry(params, j).h
    h_next = stage_geometry(params, j + 1).h
    win_lo, win_hi = h_j - 2 * h_prev, h_j + 2 * h_prev
    dead_lo, dead_hi = h_j + 2 * h_prev, h_next - 2 * h_j
    if dead_hi < dead_lo:  # spacers too small to open a dead zone here
        raise ValueError(f"j = {j} opens no dead zone on {params.label()}: it would end at "
                         f"{format_int(dead_hi)}, below its start {format_int(dead_lo)}")
    if step is None:
        step = max(1, (win_hi - win_lo) // 64)
    elif step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    if dead_samples is not None and dead_samples < 0:
        raise ValueError(f"dead_samples must be >= 0, got {dead_samples}")
    span = dead_hi - dead_lo
    samples = span if dead_samples is None else dead_samples + 1
    for count, what, remedy in (
            ((win_hi - win_lo) // step + 3, "window", "raise step"),
            (1 + min(span, samples), "dead zone", "lower dead_samples")):
        if count > MAX_LISTED:
            raise ValueError(f"the {what} would list {format_int(count)} shifts, above the limit "
                             f"of {MAX_LISTED}: {remedy}")
    window_ns = sorted(set(range(win_lo, win_hi + 1, step)) | {h_j, win_hi})
    # the start, then `samples` spread points up to the end, fewer if the zone is short
    dead_ns = [dead_lo] + (sample_shifts(dead_lo, dead_hi, samples) if span else [])
    bounds = power_profile(a, b, window_ns + dead_ns, max_stage)
    window_rows = tuple(zip(window_ns, bounds))
    dead_rows = tuple(zip(dead_ns, bounds[len(window_ns):]))
    exact_zero = all(bound.exact and bound.lo == 0 for _, bound in dead_rows)
    return WindowScanReport(
        j=j,
        window=(win_lo, win_hi),
        dead_zone=(dead_lo, dead_hi),
        window_rows=window_rows,
        dead_rows=dead_rows,
        dead_zone_exact_zero=exact_zero,
    )


@dataclass(frozen=True)
class MixtureLawRow:
    stage: int
    shift: int
    value: MeasureBound
    prediction: MeasureBound
    dev_lo: Fraction
    dev_hi: Fraction
    status: str


@dataclass(frozen=True)
class MixtureLawReport:
    n: int
    p: int
    stages: tuple[int, ...]
    rows: tuple[MixtureLawRow, ...]
    decreasing: bool
    status: str


def block_value_stages(p: int, j_max: int) -> tuple[int, ...]:
    """Stages j' <= j_max whose interleaved spacer value equals |p|.

    The values run in blocks 1,2 | 1,2,3 | 1,2,3,4 | ..., so |p| sits at the
    |p|-th stage of every block of at least |p| stages; the walk takes one
    step per block, about sqrt(2 j_max) in all."""
    value = abs(p)
    stages = []
    start, length = 0, 2  # the block covers stages start + 1 .. start + length
    while value and start + value <= j_max:
        if value <= length:
            stages.append(start + value)
        start += length
        length += 1
    return tuple(stages)


def verify_mixture_law(
    N: int,
    n: int,
    p: int,
    a: LevelSet,
    b: LevelSet,
    stage_list=None,
    j_max: int = 9,
    tol=Fraction(0),
    max_stage: int | None = None,
) -> MixtureLawReport:
    """Check T^{-n h_j'} against ((N-n)/(N+1)) I + (1/(N+1)) T^p on (A, B).

    Stages are those with interleaved spacer value |p|; for negative p the
    forward powers T^{+n h_j'} are scanned instead.  Deviations are expected
    to shrink (non-strictly) along the stage list.  The law is the polynomial
    ((N-n)/(N+1)) T^0 + (1/(N+1)) T^p, checked by ``verify_limit``'s loop.
    """
    if not 1 <= n <= N:
        raise ValueError("need 1 <= n <= N")
    if p == 0:
        raise ValueError("p must be nonzero")
    if a.params != thm2(N):
        raise ValueError(f"sets must live over the thm2({N}) construction")
    if stage_list is None:
        # the law acts on sets already visible below the stage
        floor = max(a.stage, b.stage)
        stage_list = tuple(j for j in block_value_stages(p, j_max) if j > floor)
    stage_list = tuple(stage_list)
    if not stage_list:
        raise ValueError(
            "spacer-value preimage empty: p never occurs below the cutoff"
        )
    for j in stage_list:
        if block_sequence(j) != abs(p):
            raise ValueError(f"stage {j} has spacer value {block_sequence(j)}, not {abs(p)}")
    law = OperatorPolynomial.from_dict({0: Fraction(N - n, N + 1), p: Fraction(1, N + 1)})
    sign = -1 if p > 0 else 1
    points = ((j, sign * n * stage_geometry(a.params, j).h) for j in stage_list)
    rows = [MixtureLawRow(j, shift, *rest)
            for j, shift, _, *rest in _check_limit(points, law, [(a, b)], tol, max_stage)]
    decreasing = all(
        later.dev_hi <= earlier.dev_hi and later.dev_lo <= earlier.dev_lo
        for earlier, later in zip(rows, rows[1:])
    )
    return MixtureLawReport(
        n=n,
        p=p,
        stages=stage_list,
        rows=tuple(rows),
        decreasing=decreasing,
        status=reports.combine(r.status for r in rows),
    )
