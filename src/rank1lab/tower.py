"""Exact level-set calculus on cutting-and-stacking towers.

A ``LevelSet`` is a finite-measure set written as a union of distinct levels
of one stage's tower; its measure is (number of levels) x (level width),
an exact rational.  Refining to a deeper stage rewrites level l of stage j
as the levels {pos_j(i) + l : i = 1..r_j} of stage j+1 and preserves measure
exactly.

``apply_power_bounds`` computes mu(T^n A /\\ B), n >= 0, as an exact
rational interval without listing refined levels.  Let A sit at stage ja and
B at stage jb.  At a stage K >= max(ja, jb) every level of A is a + o, with a
a level of A and o in O_{ja,K}, the sums o_{ja}(i_{ja}) + ... +
o_{K-1}(i_{K-1}) of one column offset per stage; likewise b + o' for B, with
o' in O_{jb,K}.  T^n sends level x to x + n while that stays below h_K, so
the levels of A_K landing in B_K number

    sum_{a,b} M_K(n + a - b),  M_K(m) = #{(o, o') in O_{ja,K} x O_{jb,K} : o' - o = m},

and M obeys the digit recursion M_K(m) = sum_d mult_{K-1}(d) M_{K-1}(m - d)
down to J = max(ja, jb): d runs over the stage-(K-1) offset differences
o(i') - o(i), mult counts the pairs (i, i') giving d, M_J(m) = [-m in O_{ja,J}]
for ja <= jb ([m == 0] for ja == jb), and M_k(m) = 0 outside
-(top_k - top_ja) <= m <= top_k - top_jb, which leaves a few live d per stage.
The levels pushed past the top, #{x in A_K : x + n >= h_K}, come from A's
offsets top-down.  With w_K the level width,

    lo = w_K * sum_{a,b} M_K(n + a - b),   hi = lo + w_K * overflow,

where K is the first stage with h_K > n at which nothing overflows, capped by
the stage budget.  Unresolved mass at the budget widens the interval; it
never fabricates a point value.  Negative powers go through
mu(T^n A /\\ B) = mu(T^{-n} B /\\ A), so only the forward count exists.

The kernel answers in integers and in columns, and counts along one path.
Every (source, target) pair of a count is a cell of one index
(``TargetIndex``: per source stage and target stage, the distinct
differences d = a - b of a source level a and a target level b, and the
cells with how many level pairs hold each), the source being A for n >= 0
and B for n < 0.
``Tower.pair_counts`` counts a batch of shifts that share one stage K: per
(source stage, target stage) it gathers the keys n + d of every shift and
difference within reach, reads M_K at them from the tower's pair-count table
once, fills the missing ones in one pass, and adds each value to every cell
holding d, whichever source it belongs to, in one column per shift; no set
is refined.  ``Tower.grid_counts`` plans the shifts once per stage
j0 = max(ja, jb) of a pair, indexes the sources once per j0 and sign, and
gives one block per j0 and sign: one column of counts per shift over all
the group's pairs, ordered source by source (``_by_source``), and per source
a span of those pairs with a K and an overflow per shift, which depend on
the source alone.  Planning splits the
shifts by sign in one pass and finds every start stage by a bisect of the
built stages' heights, in comprehensions.  Where the highest source level
plus n fits below the start stage's height, every source resolves there and
the sources share that row: one filter keeps the other columns, and only
they are stepped.  Each shift is counted once, at the deepest K of its
sources, in one ``pair_counts`` batch per distinct K; a source that resolved
at a shallower K overflows nothing there, so its count is the deeper one
divided by the ratio of the two stages' copies, in place in its span of the
column, and a source whose stage row is the deepest row divides nothing.
``Tower._bounds`` is the rational view of blocks.  A tower hands out one
bound per distinct (count, overflow, K), from its bound memo ``_shared``,
which ``Tower._bound`` fills on a miss: it checks the integers and fills the
bound's slots.  ``power_grid`` is that view of ``grid_counts``;
``power_profile`` is its one-pair case and ``apply_power_bounds`` the
one-shift case of that.  ``Tower.stage_grid`` counts at a fixed stage j
instead, its pairs in order as the index's cells and one batch of every
shift, for the partial joinings of ``joinings``; every cell has overflow 0
and K = j, so it reads its bounds straight off the columns, by count alone,
and builds no block.

The public functions are pure.  The one ``Tower`` per construction owns
its state: the stage chain, which ``construction.stage_geometry`` reads,
and the five memos its docstring describes, which ``Tower.reset()``
empties while the chain stays.  The pair-count table is filled on demand by
the digit recursion and its prune, in two passes without Python recursion,
so a walk of a thousand stages needs no deep stack.  ``max_stage`` is the
one stage cap.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import index, lt
from typing import Iterable, Sequence

from .construction import ConstructionParams, StageGeometry, _build_stage, stage_geometry
from .serde import format_int

DEFAULT_EXTRA_STAGES = 8


@dataclass(frozen=True, slots=True, init=False)
class MeasureBound:
    """Exact rational interval [lo, hi] bracketing a measure value."""

    lo: Fraction
    hi: Fraction
    resolved_stage: int

    def __init__(self, lo, hi, resolved_stage):
        if not (0 <= lo and (lo is hi or lo <= hi)):
            raise ValueError(f"bad measure interval [{lo}, {hi}]")
        # a grid builds one bound per distinct answer: the slot descriptors
        # store the fields without the frozen __setattr__ guard
        _set_lo(self, lo)
        _set_hi(self, hi)
        _set_resolved_stage(self, resolved_stage)

    @property
    def exact(self) -> bool:
        # ``Tower._bound`` shares one object for lo and hi when nothing overflows
        return self.lo is self.hi or self.lo == self.hi

    @property
    def unresolved_mass(self) -> Fraction:
        return self.hi - self.lo

    @property
    def value(self) -> Fraction:
        if not self.exact:
            raise ValueError(f"interval [{self.lo}, {self.hi}] is not exact")
        return self.lo

    @classmethod
    def exactly(cls, value, stage: int = 0) -> "MeasureBound":
        value = Fraction(value)
        return cls(value, value, stage)

    def __add__(self, other: "MeasureBound") -> "MeasureBound":
        return MeasureBound(
            self.lo + other.lo,
            self.hi + other.hi,
            max(self.resolved_stage, other.resolved_stage),
        )

    def scaled(self, c) -> "MeasureBound":
        c = Fraction(c)
        if c < 0:
            raise ValueError("scale factor must be >= 0")
        return MeasureBound(c * self.lo, c * self.hi, self.resolved_stage)

    def times(self, other: "MeasureBound") -> "MeasureBound":
        # both intervals are subsets of [0, oo)
        return MeasureBound(
            self.lo * other.lo,
            self.hi * other.hi,
            max(self.resolved_stage, other.resolved_stage),
        )

    def deviation_from(self, target: "MeasureBound") -> tuple[Fraction, Fraction]:
        """Range of |value - target| over both intervals."""
        dev_lo = max(Fraction(0), self.lo - target.hi, target.lo - self.hi)
        dev_hi = max(self.hi - target.lo, target.hi - self.lo)
        return dev_lo, dev_hi


_set_lo, _set_hi, _set_resolved_stage = (
    MeasureBound.__dict__[name].__set__ for name in ("lo", "hi", "resolved_stage"))


_LEVEL_SET = "a level set's stage and levels"


@dataclass(frozen=True)
class LevelSet:
    """Union of distinct levels of one stage's tower."""

    params: ConstructionParams
    stage: int
    levels: tuple[int, ...]

    def __post_init__(self):
        integers((self.stage, *self.levels), _LEVEL_SET)
        h, levels = tower_of(self.params).stage(self.stage).h, self.levels
        if levels and not (0 <= min(levels) and max(levels) < h):
            raise ValueError(f"levels must lie in [0, {format_int(h)}) at stage {self.stage}")
        if not all(map(lt, levels, levels[1:])):
            raise ValueError("levels must be strictly increasing")

    @classmethod
    def from_levels(cls, params, stage: int, levels: Iterable[int]) -> "LevelSet":
        return cls(params, stage, tuple(sorted(set(integers(levels, _LEVEL_SET)))))

    @classmethod
    def base(cls, params, stage: int) -> "LevelSet":
        """E_stage, the base level of the stage's tower."""
        return cls(params, stage, (0,))

    @classmethod
    def single(cls, params, stage: int, level: int) -> "LevelSet":
        """T^level E_stage, a single tower level."""
        return cls(params, stage, tuple(integers((level,), _LEVEL_SET)))

    @classmethod
    def full_tower(cls, params, stage: int) -> "LevelSet":
        h = stage_geometry(params, stage).h
        return cls(params, stage, tuple(range(h)))

    @property
    def width(self) -> Fraction:
        return tower_of(self.params).stage(self.stage).level_width

    @property
    def measure(self) -> Fraction:
        return len(self.levels) * self.width


def integers(values: Iterable, what: str) -> list[int]:
    """``operator.index`` of each value, in one pass: int, bool and numpy
    integers pass, as Python ints, and nothing is rounded.  A value that is
    not an integer (2.0 and Fraction(2) too) names no level, stage, shift or
    power, so it is a ``ValueError`` saying that ``what`` must be integers."""
    each = map(index, values)  # a non-iterable stays a TypeError
    try:
        return list(each)
    except TypeError as exc:
        raise ValueError(f"{what} must be integers: {exc}") from None


def integer(value, what: str) -> int:
    """``integers`` of one value, without the list."""
    try:
        return index(value)
    except TypeError as exc:
        raise ValueError(f"{what} must be integers: {exc}") from None


def measure(a: LevelSet) -> Fraction:
    return a.measure


class _Bounds(dict):
    """count -> the one bound of (count, overflow, K), made by
    ``Tower._bound`` on a miss."""

    __slots__ = ("tower", "overflow", "K")

    def __init__(self, tower: "Tower", overflow: int, K: int):
        self.tower, self.overflow, self.K = tower, overflow, K

    def __missing__(self, count: int) -> MeasureBound:
        # racing makers agree on the first bound stored
        return self.setdefault(count, self.tower._bound(count, self.overflow, self.K))


class _SharedBounds(dict):
    """(overflow, K) -> its ``_Bounds``, made on first use."""

    __slots__ = ("tower",)

    def __init__(self, tower: "Tower"):
        self.tower = tower

    def __missing__(self, key: tuple[int, int]) -> _Bounds:
        return self.setdefault(key, _Bounds(self.tower, *key))


class TargetIndex:
    """(source, target) pairs of level sets, every set at its own stage,
    indexed once for ``Tower.pair_counts``.  A cell is one pair, numbered in
    the order given.  A level pair (s, b) counts by the stages of its sets
    and s - b alone, so the index keeps, per (source stage, target stage),
    the distinct d = s - b over all those cells in order and the (cell,
    pairs) each d splits into: the cells of one pair of stages share every d
    they hold, whichever source they are of."""

    __slots__ = ("cells", "size", "by_stage")

    def __init__(self, cells: Sequence[tuple[LevelSet, LevelSet]]):
        self.cells = cells
        # (source stage, target stage) -> d -> [[cell, pairs], ...] in cell
        # order: a cell's level pairs come one after another
        splits: dict[tuple[int, int], dict[int, list[list[int]]]] = {}
        for cell, (source, target) in enumerate(cells):
            split = splits.setdefault((source.stage, target.stage), {})
            for x in source.levels:
                for y in target.levels:
                    held = split.setdefault(x - y, [])
                    if held and held[-1][0] == cell:
                        held[-1][1] += 1
                    else:
                        held.append([cell, 1])
        self.size = len(cells)
        # (source stage, target stage, differences, owners per difference)
        self.by_stage = []
        for (js, jt), split in splits.items():
            differences = sorted(split)
            self.by_stage.append((js, jt, differences, list(map(split.__getitem__, differences))))


class Tower:
    """The kernel of one construction, and the owner of its stage chain.

    Offset sums of stages j0..k-1 form the set O_{j0,k}; its largest element
    is ``stage(k).top - stage(j0).top`` and it has
    ``stage(k).copies // stage(j0).copies`` elements.  The stage table is
    ``_chain``, which ``stage`` builds, with each stage's height in
    ``_heights`` for planning's bisects.  The tower owns five memos, all kept
    until ``reset``.  ``_pairs`` is the pair-count table: for each
    (js, jt, k) with js <= jt a dict from m (|m| when js == jt) to
    M_{js,jt,k}(m) = #{(o, o') in O_{js,k} x O_{jt,k} : o' - o = m}, filled by
    ``_pair_table``.  ``_returns`` is the self-return memo: for
    each (A's stage, A's levels, ``max_stage``) a dict from |n| to the
    bound.  Its outer key holds the inputs of the stage budget other than
    |n|, so the memo follows ``max_stage`` and a hit does no planning.
    The bound memo ``_shared`` maps (overflow, K) to a dict from count to
    the tower's one bound of (count, overflow, K) (``bound``); with a memo
    per call instead, sweep's 324 product scans took 67.1 ms, not 54.5,
    and its 2,376 partial joinings 25.1, not 21.0.  The keys of these
    three memos are values.  ``_sides`` and ``_side_rows`` hold the left
    sides of product scans of this construction's sets;
    ``products.dissipativity_grid`` alone reads and writes them and
    documents their keys.
    """

    def __init__(self, params: ConstructionParams):
        self.params = params
        self._chain: list[StageGeometry] = []
        # each stage's h, appended before the stage: its first len(_chain)
        # entries are there whenever _chain is read
        self._heights: list[int] = []
        self._grow = threading.Lock()
        # (js, jt, k) -> {m: M_{js,jt,k}(m)}, keyed on |m| when js == jt
        self._pairs: dict[tuple[int, int, int], dict[int, int]] = {}
        # (A's stage, A's levels, max_stage) -> {|n|: bound}
        # without it sweep's timed phase takes 101.8 ms, not 85.7 (10/10 runs slower)
        self._returns: dict[tuple, dict[int, MeasureBound]] = {}
        # the product scans' left sides, laid out by products.dissipativity_grid
        # without it sweep's timed phase takes 171.6 ms, not 83.8 (10/10 runs slower)
        self._sides: dict[tuple, tuple] = {}
        self._side_rows: dict[tuple, tuple] = {}
        # (overflow, K) -> {count: bound}, the one bound of each answer: read
        # ``_shared[overflow, K][count]``, and a miss is made.  With no sharing
        # criterion 6 took 42.0 ms, not 12.7, and sweep 135.9, not 83.8; with a
        # memo per call instead of per tower, sweep's 324 scans take 67.1 ms,
        # not 54.5, and its 2,376 partial joinings 25.1, not 21.0 (10/12 slower)
        self._shared = _SharedBounds(self)

    def stage(self, k: int) -> StageGeometry:
        """Stage k >= 1, built on first use.  The chain only grows, under
        ``_grow``, so a stage already built is read without the lock."""
        chain = self._chain
        if 0 < k <= len(chain):
            return chain[k - 1]
        if k < 1:
            raise ValueError("stage index must be >= 1")
        with self._grow:
            while len(chain) < k:
                st = _build_stage(self.params, chain[-1] if chain else None)
                self._heights.append(st.h)
                chain.append(st)
        return chain[k - 1]

    def bound(self, count: int, overflow: int, K: int) -> MeasureBound:
        """The tower's one bound of (count, overflow, K), made on first use."""
        return self._shared[overflow, K][count]

    def reset(self):
        """Empty the five memos.  The stage chain stays, so every
        ``StageGeometry`` handed out stays the construction's one object for
        its stage."""
        self._pairs.clear()
        self._returns.clear()
        self._sides.clear()
        self._side_rows.clear()
        self._shared.clear()

    def pair_counts(self, index: TargetIndex, shifts: Sequence[int], K: int) -> list[list[int]]:
        """One column per n of ``shifts``: #{(x, y) : x in S, y in B at stage K,
        y - x = n} for each cell (S, B) of ``index``, for K at least the stage
        of every set.  The caller has built stage K: ``grid_counts`` in its
        planning and overflow loop, ``stage_grid`` by ``stage(j)``.

        With S at stage js and B at stage jt, this is sum_{s,b} M_{js,jt,K}(n + s - b)
        over their own levels: each distinct d = s - b of a (js, jt) adds
        M_{js,jt,K}(n + d) once per pair of each cell having it, for the d
        that put n + d in the span of M.  Each value is read once per shift
        and added to every cell that holds its d, whichever source the cell
        is of.  The values come from the tower's pair-count table (shallower
        stage first: M_{js,jt,K}(m) = M_{jt,js,K}(-m)), so a value any earlier
        shift, set or call reached is read, not recounted.  Per (js, jt) the
        keys of the whole batch are gathered and read together, and
        ``_pair_table`` fills the missing ones in one pass.
        """
        size = index.size
        columns = [[0] * size for _ in shifts]
        chain = self._chain
        top = chain[K - 1].top
        for js, jt, differences, owners in index.by_stage:
            # per shift, the differences d = s - b with n + d in the span of M:
            # differences[i:e]
            low, high = chain[js - 1].top - top, top - chain[jt - 1].top
            spans = []  # (n, its column, i, e), in key order
            for n, counts in zip(shifts, columns):
                i, e = bisect_left(differences, low - n), bisect_right(differences, high - n)
                if i != e:
                    spans.append((n, counts, i, e))
            if not spans:
                continue
            # the keys of every shift in one comprehension
            if js == jt:
                keys = [abs(n + d) for n, _, i, e in spans for d in differences[i:e]]
            elif js < jt:
                keys = [n + d for n, _, i, e in spans for d in differences[i:e]]
            else:
                keys = [-n - d for n, _, i, e in spans for d in differences[i:e]]
            at = (js, jt, K) if js <= jt else (jt, js, K)
            table = self._pairs.get(at)
            weights = None
            if table is not None:
                try:
                    weights = list(map(table.__getitem__, keys))
                except KeyError:
                    pass
            if weights is None:
                # a table not made yet goes straight to its fill: a raised
                # KeyError costs a cold query about 1.5 us
                weights = list(map(self._pair_table(*at, keys).__getitem__, keys))
            weights = iter(weights)
            for _, counts, i, e in spans:
                # owners first: zip stops on them without taking the next span's weight
                for cells, weight in zip(owners[i:e], weights):
                    if weight:
                        for cell, count in cells:
                            counts[cell] += weight * count
        return columns

    def _pair_table(self, js: int, jt: int, K: int, wanted: list[int]) -> dict[int, int]:
        """The table of M_{js,jt,K} for js <= jt, holding every key of
        ``wanted`` (each in the span of M_{js,jt,K}, and |m| when js == jt).

        A missing entry is filled by the digit recursion, pruned to the span
        -(top_{k-1} - top_js) <= m - d <= top_{k-1} - top_jt of M_{js,jt,k-1},
        down to M_{js,jt,jt}(m) = [-m in O_{js,jt}], which ``_count_at_least``
        answers.  The fill runs in two passes and no Python recursion, so its
        depth is not bounded by the interpreter's: top-down it records every
        missing entry with its (mult, m - d) terms, stage by stage until every
        term is in the table, then bottom-up it sums the recorded terms.
        """
        tables = self._pairs
        table = tables.setdefault((js, jt, K), {})
        missing = {m for m in wanted if m not in table}
        chain = self._chain
        top_s, top_t = chain[js - 1].top, chain[jt - 1].top
        fold = js == jt
        recorded = []  # top-down: (table at k, table at k - 1, [(m, terms)])
        k, above = K, table
        while missing:
            if k == jt:
                count = self._count_at_least
                for m in missing:
                    above[m] = count(js, jt, -m) - count(js, jt, 1 - m)
                break
            st = chain[k - 2]
            lo, hi = top_s - st.top, st.top - top_t  # the span of M_{k-1}
            diffs, mults = st.offset_differences
            below = tables.setdefault((js, jt, k - 1), {})
            nodes = []
            deeper = set()
            for m in missing:
                terms = []
                for i in range(bisect_left(diffs, m - hi), bisect_right(diffs, m - lo)):
                    rest = abs(m - diffs[i]) if fold else m - diffs[i]
                    terms.append((mults[i], rest))
                    if rest not in below:
                        deeper.add(rest)
                nodes.append((m, terms))
            recorded.append((above, below, nodes))
            missing, k, above = deeper, k - 1, below
        for above, below, nodes in reversed(recorded):
            for m, terms in nodes:
                # most entries have a term or three; a generator costs more than their sum
                total = 0
                for mult, rest in terms:
                    total += mult * below[rest]
                above[m] = total
        return table

    def _count_at_least(self, j0: int, K: int, t: int) -> int:
        """#{o in O_{j0,K} : o >= t}, for a built stage K.

        Columns of a stage sit more than the largest offset sum of the stages
        below apart, so at most one column per stage counts only partly.
        """
        chain = self._chain
        base = chain[j0 - 1]
        count = 0
        for k in range(K, j0, -1):
            if t <= 0:
                return count + chain[k - 1].copies // base.copies
            st = chain[k - 2]
            i = bisect_left(st.column_offsets, t)
            count += (st.r - i) * (st.copies // base.copies)
            t -= st.column_offsets[i - 1]  # i >= 1: column_offsets[0] == 0 < t
            if t > st.top - base.top:
                return count
        return count + (t <= 0)

    def _plans(self, j0: int, shifts: list[int], max_stage: int | None):
        """The shifts by sign, ``n < 0 -> (columns, |n|s, starts, budgets)``,
        one entry per shift of that sign: start is the first stage >= j0
        with h > |n| and budget its ``stage_budget``.  Only the signs that
        occur get lists.

        One pass splits the columns by sign.  Per sign, the start of the
        largest |n| is found first, building stages until one is taller
        than it; every start is then a bisect of the heights of the stages
        j0..that one, all built, and every budget one more comprehension.
        The heights are read only up to ``len(_chain)``, so a stage that
        another thread is appending is never read half-made."""
        forward: list[int] = []
        backward: list[int] = []
        for col, n in enumerate(shifts):
            (backward if n < 0 else forward).append(col)
        plans: dict[bool, tuple[list[int], list[int], list[int], list[int]]] = {}
        chain, heights = self._chain, self._heights
        for sign, cols in ((False, forward), (True, backward)):
            if not cols:
                continue
            ms = [abs(shifts[col]) for col in cols]
            peak = max(ms)
            # heights increase, so the stages built so far locate the first
            # h > peak from j0 on (a j0 past them reads as j0); only a peak
            # above all of them builds more
            built = len(chain)
            last = bisect_right(heights, peak, j0 - 1, built) + 1
            while last > built and self.stage(last).h <= peak:
                last += 1
            starts = [bisect_right(heights, m, j0 - 1, last) + 1 for m in ms]
            # ``stage_budget`` of each start, without a call per shift
            budgets = ([start + DEFAULT_EXTRA_STAGES for start in starts] if max_stage is None
                       else [max(max_stage, start) for start in starts])
            plans[sign] = (cols, ms, starts, budgets)
        return plans

    def _resolve(self, sources, ms: list[int], starts: list[int], budgets: list[int]):
        """For each source of ``sources`` ((stage, levels) pairs) and each |n|
        of ``ms``, the first stage K >= its start at which nothing of the
        source overflows, capped by its budget, and the levels that overflow
        there: ``(stage_rows, overflow_rows, deepest)``, one row per source
        and the deepest K per column.  The top level of a source at stage K
        is its top level plus top_K - top_js.  Where the highest level of all
        the sources plus n stays below the start stage's height, every
        source resolves there with overflow 0: one filter keeps the other
        columns, the pending ones, and only those are stepped, per source.
        When no column is pending every source shares the start row, which
        is then the deepest row; when one source steps, its row is the
        deepest row itself, and of several it is their elementwise max."""
        chain = self._chain
        zeros = [0] * len(ms)
        stage_rows, overflow_rows = [starts] * len(sources), [zeros] * len(sources)
        # the highest source level over its stage's top; a set with no level
        # overflows nothing
        reach = None
        for js, src in sources:
            if src and (reach is None or src[-1] - chain[js - 1].top > reach):
                reach = src[-1] - chain[js - 1].top
        pending = []
        if reach is not None:
            for c, (m, K) in enumerate(zip(ms, starts)):
                st = chain[K - 1]
                if st.top + m + reach >= st.h:
                    pending.append(c)
        if not pending:
            return stage_rows, overflow_rows, starts
        deepest = starts
        for s, (js, src) in enumerate(sources):
            if not src:
                continue
            stages, overflows = starts.copy(), zeros.copy()
            peak = src[-1] - chain[js - 1].top
            for c in pending:
                above, K, budget = ms[c] + peak, starts[c], budgets[c]
                st = chain[K - 1]  # planning built the start stage
                while st.top + above >= st.h and K < budget:
                    K += 1
                    # a walk to the budget steps through every stage: read a
                    # built one in place, and only build past the chain
                    st = chain[K - 1] if K <= len(chain) else self.stage(K)
                if st.top + above >= st.h:
                    overflows[c] = sum(self._count_at_least(js, K, st.h - ms[c] - x) for x in src)
                stages[c] = K
            stage_rows[s], overflow_rows[s] = stages, overflows
            # every stepped row is at least the start row, so the first one
            # stepped is the max so far
            deepest = stages if deepest is starts else list(map(max, deepest, stages))
        return stage_rows, overflow_rows, deepest

    def grid_counts(
        self, pairs: Sequence[tuple[LevelSet, LevelSet]], shifts: Iterable[int],
        max_stage: int | None,
    ) -> list[tuple]:
        """The counts of (A, B) in ``pairs``, all of this construction, at each
        n in ``shifts``, as blocks ``(rows, cols, counts, spans)``, one per
        stage j0 = max(A's stage, B's stage) and sign of n.  ``rows`` are
        indices into ``pairs``, grouped by source set, and ``cols`` into
        ``shifts``; ``spans`` holds one ``(end, overflows, stages)`` per
        source set, whose pairs are ``rows[start:end]`` with ``start`` the
        previous span's end (0 for the first).  ``counts[c]`` holds, for each
        pair of ``rows``, the level pairs (x, y) of A and B at its source's
        resolved stage ``stages[c]`` with y - x = n for
        n = ``shifts[cols[c]]``, and that source's ``overflows[c]`` the levels
        of it pushed past the top of that stage's tower.  The measure interval
        of a cell is ``[count, count + overflow]`` times ``stage(K).level_width``;
        negative n count T^{-n} B /\\ A.  Every (pair, shift) lies in exactly
        one block, and spans may share their lists.  The shifts are planned
        once per j0.  Each source set finds its own K and overflow per shift;
        where the highest source level plus n stays inside the start stage's
        tower, every source resolves there with overflow 0 and the sources
        share that row.  The sources of one j0 and sign share one
        ``TargetIndex`` and count each shift once, at the deepest K' of its
        sources, in one ``pair_counts`` batch per distinct K', so the sources
        of one stage read each M_K'(n + d) once.  A source that resolved at
        K < K' overflows nothing at K, so no level pair of it crosses a column
        of stages K..K' and its count at K' is its count at K times
        ``stage(K').copies // stage(K).copies``; its span of the column is
        divided back by that ratio in place, and its span keeps its own K and
        overflow.
        """
        max_stage = check_max_stage(max_stage)
        shifts = integers(shifts, "shifts")
        by_j0: dict[int, list[int]] = {}
        for i, (a, b) in enumerate(pairs):
            by_j0.setdefault(max(a.stage, b.stage), []).append(i)
        chain = self._chain
        blocks = []
        for j0, members in by_j0.items():
            for backward, (cols, ms, starts, budgets) in self._plans(
                    j0, shifts, max_stage).items():
                index, sources, rows, order = _by_source(pairs, members, backward)
                stage_rows, overflow_rows, deepest = self._resolve(sources, ms, starts, budgets)
                # one count per shift, at the deepest K of its sources, in one
                # batch per distinct K
                by_stage: dict[int, list[int]] = {}
                for c, K in enumerate(deepest):
                    by_stage.setdefault(K, []).append(c)
                counts = [None] * len(ms)
                for K, batch in by_stage.items():
                    columns = self.pair_counts(index, [ms[c] for c in batch], K)
                    for c, column in zip(batch, columns):
                        counts[c] = column
                # each source's cell range, divided in place back to its own K
                # where that is shallower than the column's; a source whose
                # stage row is the deepest row has nothing to divide
                spans = []
                end = 0
                for own, overflows, stages in zip(rows, overflow_rows, stage_rows):
                    start, end = end, end + len(own)
                    if stages is not deepest:
                        for column, K, deep in zip(counts, stages, deepest):
                            if K != deep:
                                ratio = chain[deep - 1].copies // chain[K - 1].copies
                                column[start:end] = [count // ratio
                                                     for count in column[start:end]]
                    spans.append((end, overflows, stages))
                blocks.append((order, cols, counts, spans))
        return blocks

    def stage_grid(self, pairs: Sequence[tuple[LevelSet, LevelSet]], shifts: Sequence[int],
                   j: int) -> list[list[MeasureBound]]:
        """For each (A, B) of ``pairs``, sets at stages <= j, and each n of
        ``shifts``, either sign: the level pairs (x, y) of A and B at stage j,
        all in [0, h_j), with y - x = n, times the level width of stage j.
        The caller has built stage j.  The pairs, in order, are the cells of
        one ``TargetIndex`` and one ``pair_counts`` batch of every n, so the
        sources of one stage read each M_j(n + d) once.  Every cell has
        overflow 0 and K = j, so each row reads its bounds off the tower's
        (0, j) memo of ``_shared`` by count alone, and no block is built."""
        counts = self.pair_counts(TargetIndex(pairs), shifts, j)
        read = self._shared[0, j].__getitem__
        # the columns read across, one row of counts per pair; with no column,
        # each pair's row is empty
        return [list(map(read, values)) for values in zip(*counts)] or [[] for _ in pairs]

    def _bounds(self, blocks, height: int, width: int) -> list[list[MeasureBound]]:
        """The rational view of ``grid_counts`` blocks: ``height`` rows (one
        per pair) of ``width`` bounds (one per shift), read span by span
        and each span's cells by index, so no column is sliced.
        Each cell reads the tower's one bound of its (count, overflow, K)
        off ``_shared``; a span looks its (overflow, K) memo up only where
        that pair changes from the previous column, which along a run of
        one stage and no overflow is once."""
        grid = [[None] * width for _ in range(height)]
        shared = self._shared
        for rows, cols, counts, spans in blocks:
            start = 0
            for end, overflows, stages in spans:
                cells = range(start, end)
                overflow = K = None
                for col, column, here, stage in zip(cols, counts, overflows, stages):
                    if here != overflow or stage != K:
                        overflow, K = here, stage
                        memo = shared[overflow, K]
                    for cell in cells:
                        grid[rows[cell]][col] = memo[column[cell]]
                start = end
        return grid

    def _bound(self, count: int, overflow: int, K: int) -> MeasureBound:
        """``[count, count + overflow]`` times the level width of stage K.
        Widths are positive, so ``MeasureBound``'s check 0 <= lo <= hi is
        count >= 0 and overflow >= 0, made here on the integers before the
        slots are filled."""
        width = self._chain[K - 1].level_width
        num, den = width.numerator, width.denominator
        if count < 0 or overflow < 0:
            raise ValueError(
                f"bad measure interval [{count * width}, {(count + overflow) * width}]")
        # Fraction(int, int) skips the operator dispatch of int * Fraction
        lo = Fraction(count * num, den)
        hi = Fraction((count + overflow) * num, den) if overflow else lo
        bound = object.__new__(MeasureBound)
        _set_lo(bound, lo)
        _set_hi(bound, hi)
        _set_resolved_stage(bound, K)
        return bound

    def self_returns(
        self, sets: Sequence[LevelSet], shifts: Iterable[int], max_stage: int | None
    ) -> list[list[MeasureBound]]:
        """mu(T^n A /\\ A) = mu(T^{-n} A /\\ A) for every A of ``sets`` and every
        n in ``shifts``, one row per set, memoized for product scans on the
        inputs of the stage budget (A, |n|, ``max_stage``), so a hit plans
        nothing.  Equal sets share one row; one grid over the sets that miss
        some |n| fills every miss, storing the tower's one bound per answer."""
        # checked before the memo, so a hit cannot answer for 2.0 as for 2
        max_stage = check_max_stage(max_stage)
        steps = list(map(abs, integers(shifts, "shifts")))
        keys = [(a.stage, a.levels, max_stage) for a in sets]
        memos: dict[tuple, tuple[LevelSet, dict[int, MeasureBound]]] = {}
        for a, key in zip(sets, keys):
            if key not in memos:
                memos[key] = (a, self._returns.setdefault(key, {}))
        rows: dict[tuple, list[MeasureBound]] = {}
        pending = []  # (key, set, memo) of each set that misses some |n|
        for key, (a, memo) in memos.items():
            try:
                rows[key] = list(map(memo.__getitem__, steps))
            except KeyError:
                pending.append((key, a, memo))
        if pending:
            # each |n| that some pending set misses, once, in increasing order
            wanted = set(steps)
            missing = sorted(set().union(*[wanted - memo.keys() for _, _, memo in pending]))
            filled = self._bounds(
                self.grid_counts([(a, a) for _, a, _ in pending], missing, max_stage),
                len(pending), len(missing))
            for (key, _, memo), row in zip(pending, filled):
                memo.update(zip(missing, row))
                rows[key] = list(map(memo.__getitem__, steps))
        return [rows[key] for key in keys]


def _by_source(pairs, rows: Iterable[int], backward: bool):
    """The pairs of ``rows`` (at least one) grouped by source set, A (B when
    ``backward``): ``(index, sources, members, order)``, the ``TargetIndex``
    of the (source, target) pairs of ``order``, the distinct sources, the
    rows of each and those rows source by source."""
    groups: dict[tuple, list[int]] = {}
    for i in rows:
        src = pairs[i][backward]
        groups.setdefault((src.stage, src.levels), []).append(i)
    members = list(groups.values())
    order = [i for own in members for i in own]
    cells = [pairs[i][::-1] for i in order] if backward else [pairs[i] for i in order]
    return TargetIndex(cells), tuple(groups), members, order


_towers: dict[ConstructionParams, Tower] = {}


def tower_of(params: ConstructionParams) -> Tower:
    """The one ``Tower`` of a construction."""
    tower = _towers.get(params)
    if tower is None:
        tower = _towers.setdefault(params, Tower(params))
    return tower


def refine(a: LevelSet, to_stage: int) -> LevelSet:
    """Same point set, represented at a deeper stage.  Measure is preserved."""
    if to_stage < a.stage:
        raise ValueError("cannot refine to a shallower stage")
    tower = tower_of(a.params)
    levels = a.levels
    for k in range(a.stage, to_stage):
        # already increasing: consecutive columns sit h + s >= h apart
        levels = tuple(off + lvl for off in tower.stage(k).column_offsets for lvl in levels)
    return LevelSet(a.params, to_stage, levels)


def grid_tower(pairs: Sequence[tuple[LevelSet, LevelSet]]) -> Tower:
    """The one ``Tower`` of every set of ``pairs`` (at least one pair);
    ``ValueError`` if the sets belong to more than one construction."""
    params = pairs[0][0].params
    for a, b in pairs:
        if a.params is not params or b.params is not params:  # equal is fine too
            check_construction(params, (a, b))
    return tower_of(params)


def stage_budget(start: int, max_stage: int | None) -> int:
    """The deepest stage a query that starts at stage ``start`` (the first
    stage taller than its |n|) may walk to: ``start + DEFAULT_EXTRA_STAGES``
    without ``max_stage``, else ``max_stage`` but at least ``start``."""
    return start + DEFAULT_EXTRA_STAGES if max_stage is None else max(max_stage, start)


def check_max_stage(max_stage: int | None) -> int | None:
    """``max_stage`` as an int, or None; ``ValueError`` unless an integer >= 1."""
    if max_stage is None:
        return None
    max_stage = integer(max_stage, "stage caps")
    if max_stage < 1:
        raise ValueError(f"max_stage must be >= 1, got {max_stage}")
    return max_stage


def check_construction(params: ConstructionParams, sets: Iterable[LevelSet]) -> None:
    """``ValueError`` unless every set of ``sets`` belongs to ``params``."""
    for s in sets:
        if s.params is not params and s.params != params:
            raise ValueError("level sets belong to different constructions")


def _align(a: LevelSet, b: LevelSet) -> tuple[LevelSet, LevelSet, int]:
    check_construction(a.params, (b,))
    j = max(a.stage, b.stage)
    return refine(a, j), refine(b, j), j


def intersect(a: LevelSet, b: LevelSet) -> LevelSet:
    ra, rb, j = _align(a, b)
    return LevelSet.from_levels(a.params, j, set(ra.levels) & set(rb.levels))


def union(a: LevelSet, b: LevelSet) -> LevelSet:
    ra, rb, j = _align(a, b)
    return LevelSet.from_levels(a.params, j, set(ra.levels) | set(rb.levels))


def difference(a: LevelSet, b: LevelSet) -> LevelSet:
    ra, rb, j = _align(a, b)
    return LevelSet.from_levels(a.params, j, set(ra.levels) - set(rb.levels))


def apply_power_bounds(
    a: LevelSet, b: LevelSet, n: int, max_stage: int | None = None
) -> MeasureBound:
    """Exact rational bounds on mu(T^n A /\\ B).

    The interval collapses (lo == hi) when nothing is pushed past the top of
    the tower by the stage budget; raising ``max_stage`` never widens the
    result.  ``max_stage`` must be at least 1; one below a query's start
    stage (the first stage whose tower is taller than |n|) means the start
    stage.
    """
    check_construction(a.params, (b,))
    tower = tower_of(a.params)
    ((_, _, ((count,),), ((_, (overflow,), (K,)),)),) = tower.grid_counts(
        [(a, b)], (n,), max_stage)
    return tower.bound(count, overflow, K)


def power_grid(
    pairs: Iterable[tuple[LevelSet, LevelSet]], shifts: Iterable[int],
    max_stage: int | None = None,
) -> list[list[MeasureBound]]:
    """``[power_profile(a, b, shifts, max_stage) for a, b in pairs]`` in one call.

    Every set of ``pairs`` must belong to one construction.  The shifts may
    be negative, repeated and in any order, and ``max_stage`` is the stage
    cap of every query.  The tower is looked up once for the grid; the shifts
    are planned once per common stage of a pair, and the source sets (A for
    n >= 0, B for n < 0) of one common stage share one count per shift, in
    which each pair-table value is read once.  Equal results share one
    ``MeasureBound``.
    """
    pairs, shifts = list(pairs), list(shifts)
    if not pairs:
        return []
    tower = grid_tower(pairs)
    return tower._bounds(tower.grid_counts(pairs, shifts, max_stage), len(pairs), len(shifts))


def power_profile(
    a: LevelSet, b: LevelSet, shifts: Iterable[int], max_stage: int | None = None
) -> list[MeasureBound]:
    """``[apply_power_bounds(a, b, n, max_stage) for n in shifts]`` in one call:
    the one-pair case of ``power_grid``."""
    return power_grid([(a, b)], shifts, max_stage)[0]


# ---------------------------------------------------------------------------
# Textual form ("stage=3; levels=0,1,3,4") for CLI and fixtures


def format_level_set(a: LevelSet) -> str:
    return f"stage={a.stage}; levels={','.join(str(v) for v in a.levels)}"


def parse_level_set(text: str, params: ConstructionParams) -> LevelSet:
    return LevelSet.from_levels(params, *level_set_fields(text))


def level_set_fields(text: str) -> tuple[int, tuple[int, ...]]:
    """The stage and the levels of the textual form, read before any stage
    is built; a field given twice is refused."""
    stage = None
    levels: tuple[int, ...] | None = None
    seen = set()
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        key, _, value = part.partition("=")
        key = key.strip()
        value = value.strip()
        if key in seen:  # keeping the last would answer for a set not meant
            raise ValueError(f"level-set field {key!r} given twice")
        seen.add(key)
        if key == "stage":
            stage = int(value)
        elif key == "levels":
            levels = tuple(int(v) for v in value.split(",") if v.strip() != "")
        else:
            raise ValueError(f"unknown level-set field {key!r}")
    if stage is None or levels is None:
        raise ValueError(f"level-set text needs stage= and levels=: {text!r}")
    return stage, levels
