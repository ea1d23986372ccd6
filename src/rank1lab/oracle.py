"""Brute-force interval model of the truncated system, independent of the
level calculus.

The stage-J tower is materialized as h_J explicit subintervals of the line,
laid out by replaying the stacking rule literally: stage 1 occupies
[0, h_1 * w_1), each cut slices every level interval into r equal parts in
place, and every spacer is allocated at the end of the used part of the line.
By induction every level of every stage is a single half-open interval and
the used space is [0, h_J * w_J), so the system is stored as a permutation
between "cells" (intervals of width w_J) and level indices: an int32 array
``cell_of_level``; no inverse of it is built.  The replay builds it in
place: it allocates stage j+1's array once and fills it column by
column, column c being stage j's ``cell_of_level`` sliced in place
(``cell * r + c``, written straight into the column's slice) followed by the
column's fresh spacer cells, numbered consecutively from the end of the used
part.  Each ``IntervalSystem`` replays stages 1..J once and owns their
tables, which are freed with it: the module keeps no state between calls.
A walk and ``orbit_counts`` find a set's stage-J levels the same way, in one
sequential pass over ``cell_of_level`` that tests the owner of each level's
cell at the set's own stage against a mark per cell of that stage.  A cell
or level index is below h_J, so int32 holds it while h_J < 2^31; the replay
refuses, with ``ValueError``, a stage below 1 before it starts and a stage of
2^31 cells or more before allocating it, and a sum that can pass h_J (a level
plus a power, or a padded index) is computed in int64.
T is the partial piecewise translation moving level l onto level l+1; it is
undefined on the top level, and T^{-1} is undefined on the bottom one.
``OrbitWalker`` applies T^n to a set by moving its levels;
``IntervalSystem.orbit_counts`` reads what a walker of each of many sources
would at every power of a run, against many target sets, labelling the
targets once for all sources.

None of the tower-calculus refinement machinery is used here; that module is
validated against this one, so they share only the construction parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .construction import ConstructionParams
from .tower import LevelSet, integers


_CELL = np.int32  # dtype of the stage tables and of the cell arrays that index them
_MAX_CELLS = 1 << 31  # the first stage size whose indices int32 cannot hold


def _check_cells(j: int, cells: int) -> None:
    if cells >= _MAX_CELLS:
        raise ValueError(f"stage {j} has {cells} cells; the oracle's int32 tables "
                         f"hold fewer than 2^31")


class IntervalSystem:
    """Stage-J tower as explicit rational intervals of the line.  It keeps
    every replayed stage's ``cell_of_level`` and cells per stage-1 cell, as
    a shallower set reads its own stage's table."""

    def __init__(self, params: ConstructionParams, stage: int):
        if stage < 1:
            raise ValueError(f"stage {stage} is below 1, the first stage of a tower")
        self.params = params
        self.stage = stage
        _check_cells(1, params.h1)
        # (cell_of_level, cells per stage-1 cell) of stages 1..J
        self._stages = [(np.arange(params.h1, dtype=_CELL), 1)]
        for j in range(1, stage):
            prev, subdivision = self._stages[-1]
            h = len(prev)
            r = params.cut_count(j)
            spacers = params.spacer_vector(j, h)
            free = h * r  # the first spacer cell
            size = free + sum(spacers)
            _check_cells(j + 1, size)
            cell_of_level = np.empty(size, _CELL)
            start = 0
            for column, spacer in enumerate(spacers):
                sliced = cell_of_level[start:start + h]
                np.multiply(prev, r, out=sliced)
                sliced += column
                start += h
                cell_of_level[start:start + spacer] = np.arange(free, free + spacer, dtype=_CELL)
                start += spacer
                free += spacer
            self._stages.append((cell_of_level, subdivision * r))
        self.cell_of_level, self._subdivision = self._stages[-1]

    @property
    def height(self) -> int:
        return len(self.cell_of_level)

    @property
    def cell_width(self) -> Fraction:
        return self.params.base_width / self._subdivision

    def interval(self, level: int) -> tuple[Fraction, Fraction]:
        """[left, right) endpoints of the given tower level, in [0, h)."""
        h = self.height
        if not 0 <= level < h:
            raise ValueError(f"level {level} is outside [0, {h}), "
                             f"the levels of the stage-{self.stage} tower")
        cell = int(self.cell_of_level[level])
        w = self.cell_width
        return cell * w, (cell + 1) * w

    def cells_of(self, a: LevelSet) -> set[int]:
        """Cells of this system covered by a shallower-stage level set."""
        return set(self._cell_array(a).tolist())

    def _shallow(self, a: LevelSet) -> tuple[np.ndarray, int]:
        """A's own stage's ``cell_of_level`` and the cells of this system per
        cell of that stage, once A is checked to be a set of this system."""
        if a.params != self.params:
            raise ValueError("level set belongs to a different construction")
        if a.stage > self.stage:
            raise ValueError("level set is finer than the system")
        shallow, subdivision = self._stages[a.stage - 1]
        return shallow, self._subdivision // subdivision

    def _cell_array(self, a: LevelSet) -> np.ndarray:
        """``cells_of(a)`` as a sorted int32 array."""
        shallow, ratio = self._shallow(a)
        # a shallow level is a block of ratio consecutive cells
        starts = np.sort(shallow[np.array(a.levels, dtype=np.int64)] * ratio)
        return (starts[:, None] + np.arange(ratio, dtype=_CELL)).ravel()

    def _marks(self, a: LevelSet) -> tuple[np.ndarray, int]:
        """A mark per cell of A's stage, set on A's cells, padded to cover
        ``cell // ratio`` for every cell of this system, and that ratio:
        the cells of this system per cell of A's stage.  Spacers added after
        that stage sit past its cells, so their owners index padding that
        is never marked."""
        shallow, ratio = self._shallow(a)
        marks = np.zeros(-(-self.height // ratio), dtype=bool)
        marks[shallow[np.array(a.levels, dtype=np.int64)]] = True
        return marks, ratio

    def _owned(self, a: LevelSet, cells: np.ndarray) -> np.ndarray:
        """Which of ``cells`` (cells of this system) lie in A: a cell lies in
        the shallow cell ``cell // ratio`` of A's stage, tested against
        ``_marks``."""
        marks, ratio = self._marks(a)
        return marks[_owners(cells, ratio)]

    def orbit_counts(
        self, sources: Sequence[LevelSet], targets: Sequence[LevelSet],
        powers: Sequence[int],
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """What an ``OrbitWalker`` of each source A reads at every power of
        ``powers``: one ``(hits, lost)`` per source, in order, where
        ``hits[t, i]`` counts the cells of T^n A in ``targets[t]`` and
        ``lost[i]`` the cells of A whose orbit leaves the tower on the way,
        for n = ``powers[i]``; both int64 arrays.

        The walker's rule moves a cell of stage-J level x to level x + n,
        with n clamped to +-h, and keeps it when that lies in [0, h).  Here
        x + n indexes a label table padded by h levels on each side: a pad
        level reads "lost", a tower level the target holding its cell, and
        one ``bincount`` of (label, power) counts all of them.  Targets may
        overlap, so they are labelled in layers of pairwise disjoint sets,
        one table and one ``bincount`` per layer.  The tables are built once
        and serve every source; the sources are counted one at a time, as
        they are read.  Each level's owner at a source's stage (its cell
        divided by that stage's ratio, as in ``_owned``) is computed once
        per run of sources at one stage, so sources given in stage order
        divide once per stage, and one owner array is alive at a time; a
        source only gathers its marks at its owners.
        """
        h = self.height
        width = len(powers)
        shifts = np.array([max(-h, min(n, h)) for n in integers(powers, "powers")],
                          dtype=np.int64)
        # (cell label per layer, target positions); a target joins the first
        # layer whose labelled cells it misses
        layers: list[tuple[np.ndarray, list[int]]] = [(np.full(h, -1, np.int64), [])]
        for t, b in enumerate(targets):
            cells = self._cell_array(b)
            for label, members in layers:
                if (label[cells] < 0).all():
                    break
            else:
                label, members = np.full(h, -1, np.int64), []
                layers.append((label, members))
            label[cells] = len(members)
            members.append(t)
        tables = []
        for label, members in layers:
            size = len(members)
            table = np.full(3 * h, size + 1, np.int64)  # size + 1: lost
            by_level = label[self.cell_of_level]
            table[h:2 * h] = np.where(by_level < 0, size, by_level)  # size: no target
            tables.append((table, members))
        column = np.arange(width)
        padding = shifts + h  # int64, so the int32 levels are padded in int64
        owner, owned = None, 0  # each level's cell // owned, for the last ratio seen
        for a in sources:
            marks, ratio = self._marks(a)
            if ratio != owned:
                owner, owned = _owners(self.cell_of_level, ratio), ratio
            padded = np.flatnonzero(marks[owner])[:, None] + padding
            hits = np.zeros((len(targets), width), dtype=np.int64)
            for table, members in tables:
                size = len(members)
                keys = table[padded]
                keys *= width
                keys += column
                counts = np.bincount(keys.ravel(), minlength=(size + 2) * width)
                counts = counts.reshape(size + 2, width)
                hits[members] = counts[:size]
                lost = counts[size + 1]  # the same in every layer
            yield hits, lost


def _owners(cells: np.ndarray, ratio: int) -> np.ndarray:
    """``cells // ratio`` as intp, divided in intp: numpy gathers by intp
    indices as they are, and first casts an int32 index array to intp on
    every gather."""
    return np.floor_divide(cells, ratio, dtype=np.intp)


@dataclass(frozen=True)
class OracleResult:
    value: Fraction
    undefined_mass: Fraction
    stage: int

    @property
    def fully_defined(self) -> bool:
        return self.undefined_mass == 0


class OrbitWalker:
    """Tracks the image of a set under powers of T.

    The walker holds the stage-J levels of its set, sorted: its start finds
    them in one pass over ``cell_of_level``, testing the owner of each
    level's cell at the set's own stage.
    ``step(n)`` applies T^n (T^{-|n|} for n < 0) in one pass over the
    levels.  Levels whose orbit leaves the stage-J tower on the way are
    removed and counted in ``lost``; their mass is ``undefined``.
    ``power`` is the total power applied so far, so a sweep over
    consecutive powers steps by 1 and a single power is one step.
    """

    def __init__(self, a: LevelSet, stage: int):
        self._start(IntervalSystem(a.params, stage), a)

    def _start(self, system: IntervalSystem, a: LevelSet):
        self.system = system
        self._levels = np.flatnonzero(system._owned(a, system.cell_of_level))
        self.lost = 0
        self.power = 0

    @property
    def cells(self) -> set[int]:
        return set(self.system.cell_of_level[self._levels].tolist())

    @property
    def undefined(self) -> Fraction:
        return self.lost * self.system.cell_width

    def step(self, n: int = 1):
        # T moves one level at a time, so a cell survives all |n| steps exactly
        # when its final level is still in the tower; clamping n to +-h keeps
        # that outcome and keeps a huge Python int out of the tables; the
        # levels are int64, where int32 ones would wrap past 2^31
        (n,) = integers((n,), "powers")
        h = self.system.height
        levels = self._levels + max(-h, min(n, h))
        kept = levels[(levels >= 0) & (levels < h)]
        self.lost += len(levels) - len(kept)
        self._levels = kept
        self.power += n

    def value_against(self, b: LevelSet) -> Fraction:
        system = self.system
        hits = system._owned(b, system.cell_of_level[self._levels])
        return int(np.count_nonzero(hits)) * system.cell_width


def oracle_intersection(a: LevelSet, b: LevelSet, n: int, stage: int) -> OracleResult:
    """mu(T^n A /\\ B) by explicit orbit tracking in the stage-J system.

    Both sets are checked to be sets of the system before anything else;
    then |n| >= h_J is refused (everything would leave the tower).  The
    returned value covers exactly the mass whose whole orbit segment stays
    inside the stage-J tower; the rest is reported as undefined, never
    guessed.
    """
    system = IntervalSystem(a.params, stage)
    for s in (a, b):
        system._shallow(s)  # raises for a set of another construction or stage
    if abs(n) >= system.height:
        raise ValueError(f"|n| = {abs(n)} >= tower height {system.height} at stage {stage}")
    walker = OrbitWalker.__new__(OrbitWalker)  # walks the system just built
    walker._start(system, a)
    walker.step(n)
    return OracleResult(walker.value_against(b), walker.undefined, stage)
