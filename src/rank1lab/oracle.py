"""Brute-force interval model of the truncated system, independent of the
level calculus.

The stage-J tower is materialized as h_J explicit subintervals of the line,
laid out by replaying the stacking rule literally: stage 1 occupies
[0, h_1 * w_1), each cut slices every level interval into r equal parts in
place, and every spacer is allocated at the end of the used part of the line.
By induction every level of every stage is a single half-open interval and
the used space is [0, h_J * w_J), so the system is stored as a permutation
between "cells" (intervals of width w_J) and level indices: two int arrays,
``cell_of_level`` and its inverse ``level_of_cell``.  The replay builds them
one column at a time: column c of stage j+1 is stage j's ``cell_of_level``
sliced in place (``cell * r + c``), followed by the column's fresh spacer
cells, numbered consecutively from the end of the used part.  T is the partial
piecewise translation moving level l onto level l+1; it is undefined on the
top level, and T^{-1} is undefined on the bottom one.

None of the tower-calculus refinement machinery is used here; that module is
validated against this one, so they share only the construction parameters.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .construction import ConstructionParams
from .tower import LevelSet


class _Stage:
    __slots__ = ("index", "cell_of_level", "level_of_cell", "subdivision")

    def __init__(self, index, cell_of_level, subdivision):
        self.index = index
        self.cell_of_level = cell_of_level
        self.subdivision = subdivision  # cells per stage-1 cell
        self.level_of_cell = np.empty_like(cell_of_level)
        self.level_of_cell[cell_of_level] = np.arange(len(cell_of_level))


_chains: dict[ConstructionParams, list[_Stage]] = {}
_chains_lock = threading.Lock()


def _stage(params: ConstructionParams, j: int) -> _Stage:
    with _chains_lock:
        chain = _chains.setdefault(params, [])
        if not chain:
            chain.append(_Stage(1, np.arange(params.h1, dtype=np.int64), 1))
        while len(chain) < j:
            prev = chain[-1]
            h = len(prev.cell_of_level)
            r = params.cut_count(prev.index)
            spacers = params.spacer_vector(prev.index, h)
            columns = []
            free = h * r
            for column in range(r):
                columns.append(prev.cell_of_level * r + column)
                columns.append(np.arange(free, free + spacers[column], dtype=np.int64))
                free += spacers[column]
            chain.append(_Stage(prev.index + 1, np.concatenate(columns), prev.subdivision * r))
        return chain[j - 1]


@dataclass(frozen=True)
class IntervalSystem:
    """Stage-J tower as explicit rational intervals of the line."""

    params: ConstructionParams
    stage: int

    @property
    def _data(self) -> _Stage:
        return _stage(self.params, self.stage)

    @property
    def height(self) -> int:
        return len(self._data.cell_of_level)

    @property
    def cell_width(self) -> Fraction:
        return self.params.base_width / self._data.subdivision

    def interval(self, level: int) -> tuple[Fraction, Fraction]:
        """[left, right) endpoints of the given tower level."""
        cell = int(self._data.cell_of_level[level])
        w = self.cell_width
        return cell * w, (cell + 1) * w

    def cells_of(self, a: LevelSet) -> set[int]:
        """Cells of this system covered by a shallower-stage level set."""
        if a.params != self.params:
            raise ValueError("level set belongs to a different construction")
        if a.stage > self.stage:
            raise ValueError("level set is finer than the system")
        shallow = _stage(self.params, a.stage)
        ratio = self._data.subdivision // shallow.subdivision
        starts = shallow.cell_of_level[np.array(a.levels, dtype=np.int64)] * ratio
        return set((starts[:, None] + np.arange(ratio)).ravel().tolist())


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

    ``step(n)`` applies T^n (T^{-|n|} for n < 0) in one pass over the cells.
    Cells whose orbit leaves the stage-J tower on the way are removed and
    counted in ``lost``; their mass is ``undefined``.  ``power`` is the
    total power applied so far, so a sweep over consecutive powers steps by
    1 and a single power is one step.
    """

    def __init__(self, a: LevelSet, stage: int):
        self.system = IntervalSystem(a.params, stage)
        self._data = self.system._data
        cells = self.system.cells_of(a)
        self._cells = np.fromiter(cells, np.int64, len(cells))
        self.lost = 0
        self.power = 0

    @property
    def cells(self) -> set[int]:
        return set(self._cells.tolist())

    @property
    def undefined(self) -> Fraction:
        return self.lost * self.system.cell_width

    def step(self, n: int = 1):
        # T moves one level at a time, so a cell survives all |n| steps exactly
        # when its final level is still in the tower; clamping n to +-h keeps
        # that outcome and keeps a huge Python int out of the int64 table
        data = self._data
        h = len(data.cell_of_level)
        levels = data.level_of_cell[self._cells] + max(-h, min(n, h))
        levels = levels[(levels >= 0) & (levels < h)]
        self.lost += len(self._cells) - len(levels)
        self._cells = data.cell_of_level[levels]
        self.power += n

    def value_against(self, b: LevelSet) -> Fraction:
        hits = self.system.cells_of(b).intersection(self._cells.tolist())
        return len(hits) * self.system.cell_width


def oracle_intersection(a: LevelSet, b: LevelSet, n: int, stage: int) -> OracleResult:
    """mu(T^n A /\\ B) by explicit orbit tracking in the stage-J system.

    Refuses |n| >= h_J (everything would leave the tower).  The returned
    value covers exactly the mass whose whole orbit segment stays inside the
    stage-J tower; the rest is reported as undefined, never guessed.
    """
    system = IntervalSystem(a.params, stage)
    if abs(n) >= system.height:
        raise ValueError(f"|n| = {abs(n)} >= tower height {system.height} at stage {stage}")
    walker = OrbitWalker(a, stage)
    walker.step(n)
    return OracleResult(walker.value_against(b), walker.undefined, stage)
