"""Rank-one cutting-and-stacking constructions.

A construction is determined by the initial tower height, a cut-count rule
r_j >= 2 and a spacer vector rule s_j = (s_j(1), ..., s_j(r_j)), s_j(i) >= 0.
Stage j+1 is built by cutting the stage-j tower into r_j equal-width columns,
adding s_j(i) fresh spacer levels on top of column i, and stacking the columns
left to right, so

    h_{j+1} = h_j * r_j + sum_i s_j(i)

and column i's base sits at offset pos(i) = sum_{i'<i} (h_j + s_j(i')) inside
the stage-(j+1) tower.  All widths and measures are exact rationals.

Spacer rules form a closed enumeration (zero, constant, c*j, c*h_j, j*h_j,
the block sequence 1,2, 1,2,3, 1,2,3,4, ..., and a scaled-height target), and
each rule takes only the one parameter its kind reads (c, a or none), so a
config file reproduces a construction exactly.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .serde import MAX_LISTED, format_int, format_rational, parse_int, parse_rational


class InvalidConstructionError(ValueError):
    """Raised when parameters cannot define a valid construction."""


def block_sequence(j: int) -> int:
    """j-th element (1-indexed) of 1,2, 1,2,3, 1,2,3,4, ...

    Block b (b >= 1) is 1..b+1; every positive value recurs infinitely often.
    """
    if j < 1:
        raise ValueError("index must be >= 1")
    b = 1
    cum = 0
    while cum + b + 1 < j:
        cum += b + 1
        b += 1
    return j - cum


def _ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _reference_height(j: int) -> int:
    # Heights of the halving family (h_1 = 2, h_{j+1} = (j+2) h_j), i.e. (j+1)!.
    return math.factorial(j + 1)


# The spacer-rule grammar: kind -> (the one parameter it reads, or None; its
# spacer count as a function of that parameter, j and h_j).  scaled_target
# pushes the height from H_j to H_{j+1} = ceil(a * ref(j+1)), assuming r_j = 2
# and a single nonzero spacer.
_SPACER_RULES = {
    "zero": (None, lambda _, j, h: 0),
    "constant": ("c", lambda c, j, h: c),
    "linear": ("c", lambda c, j, h: c * j),
    "times_height": ("c", lambda c, j, h: c * h),
    "j_times_h": (None, lambda _, j, h: j * h),
    "blocks": (None, lambda _, j, h: block_sequence(j)),
    "scaled_target": ("a", lambda a, j, h: _ceil(a * _reference_height(j + 1)) - 2 * h),
}
# parameter -> (its value on a rule that does not read it, its config parser);
# a null a is a missing one
_SPACER_PARAMETERS = {"c": (1, parse_int),
                      "a": (None, lambda a: a if a is None else parse_rational(a))}


def _spacer_reads(kind) -> str | None:
    # the parameter a spacer rule of ``kind`` reads; an unhashable kind is unknown too
    entry = _SPACER_RULES.get(kind) if isinstance(kind, str) else None
    if entry is None:
        raise InvalidConstructionError(f"unknown spacer rule {kind!r}")
    return entry[0]


@dataclass(frozen=True)
class SpacerRule:
    """Deterministic spacer count as a function of (j, h_j).  A rule sets
    only the parameter its kind reads, so rules that count alike are equal."""

    kind: str
    c: int = 1  # constant, linear and times_height only
    a: Fraction | None = None  # scaled_target only

    def __post_init__(self):
        reads = _spacer_reads(self.kind)
        if self.c < 0:
            raise InvalidConstructionError("spacer multiplier must be >= 0")
        if reads == "a" and (self.a is None or self.a <= 1):
            raise InvalidConstructionError("scaled_target needs a rational a > 1")
        for name, (unread, _) in _SPACER_PARAMETERS.items():
            if name != reads and getattr(self, name) != unread:
                raise InvalidConstructionError(f"spacer rule {self.kind!r} reads no {name}")

    def evaluate(self, j: int, h: int) -> int:
        reads, count = _SPACER_RULES[self.kind]
        return count(reads and getattr(self, reads), j, h)


@dataclass(frozen=True)
class CutRule:
    """Cut count r_j: constant, or j + c for constructions with r_j -> oo."""

    kind: str  # "constant" | "j_plus"
    c: int

    def __post_init__(self):
        if self.kind == "constant":
            if self.c < 2:
                raise InvalidConstructionError("cut count must be >= 2")
        elif self.kind == "j_plus":
            if self.c < 1:
                raise InvalidConstructionError("j_plus cut rule needs c >= 1")
        else:
            raise InvalidConstructionError(f"unknown cut rule {self.kind!r}")

    def evaluate(self, j: int) -> int:
        if self.kind == "constant":
            return self.c
        return j + self.c


@dataclass(frozen=True)
class ConstructionParams:
    """Full recipe for a rank-one construction.

    ``spacer_tail`` gives rules for the last ``len(spacer_tail)`` columns of
    every stage; earlier columns get zero spacers.  This covers all preset
    families, including (0, ..., 0, block_sequence(j), j*h_j) shapes.
    """

    h1: int
    cuts: CutRule
    spacer_tail: tuple[SpacerRule, ...]
    base_width: Fraction = Fraction(1)
    family: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.h1 < 1:
            raise InvalidConstructionError("initial height must be >= 1")
        if self.base_width <= 0:
            raise InvalidConstructionError("base width must be positive")
        # hashed on every tower, stage-chain and LevelSet lookup: hash the
        # compared fields once (``family`` is in neither == nor the hash)
        object.__setattr__(
            self, "_hash", hash((self.h1, self.cuts, self.spacer_tail, self.base_width)))

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self):
        # str hashes differ between processes, so the cached hash is not pickled
        state = dict(self.__dict__)
        del state["_hash"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.__post_init__()

    def cut_count(self, j: int) -> int:
        r = self.cuts.evaluate(j)
        if r < 2:
            raise InvalidConstructionError(f"cut count {r} < 2 at stage {j}")
        if r > MAX_LISTED:  # a stage lists its r columns before anything is sized
            raise InvalidConstructionError(f"cut count {format_int(r)} at stage {j} is above "
                                           f"the limit of {MAX_LISTED}")
        return r

    def spacer_vector(self, j: int, h: int) -> tuple[int, ...]:
        """s_j = (s_j(1), ..., s_j(r_j)) for a tower of height h at stage j."""
        r = self.cut_count(j)
        if len(self.spacer_tail) > r:
            raise InvalidConstructionError(
                f"{len(self.spacer_tail)} spacer rules but only {r} columns at stage {j}"
            )
        head = (0,) * (r - len(self.spacer_tail))
        tail = []
        for rule in self.spacer_tail:
            s = rule.evaluate(j, h)
            if s < 0:
                raise InvalidConstructionError(f"negative spacer count at stage {j}")
            if rule.kind == "scaled_target" and s < h:
                raise InvalidConstructionError(
                    f"scaled target spacer {s} < height {h} at stage {j}; "
                    "the scale factor is too close to 1"
                )
            tail.append(s)
        return head + tuple(tail)

    def label(self) -> str:
        return self.family or "custom"


@dataclass(frozen=True)
class StageGeometry:
    """Exact geometry of stage j and of the j -> j+1 stacking step."""

    j: int
    h: int
    level_width: Fraction
    r: int
    spacers: tuple[int, ...]
    column_offsets: tuple[int, ...]
    space_measure: Fraction
    copies: int  # copies of stage 1 stacked into stage j: r_1 * ... * r_{j-1}
    top: int  # where the highest copy starts: the last column offsets below, summed

    @property
    def next_height(self) -> int:
        return self.column_offsets[-1] + self.h + self.spacers[-1]

    @cached_property
    def offset_differences(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The sorted distinct column-offset differences o(i') - o(i), and the
        number of column pairs (i, i') giving each."""
        offsets = self.column_offsets
        mult = Counter(q - p for p in offsets for q in offsets)
        diffs = tuple(sorted(mult))
        return diffs, tuple(mult[d] for d in diffs)


def _build_stage(params: ConstructionParams, below: StageGeometry | None) -> StageGeometry:
    if below is None:
        j, h, width, copies, top = 1, params.h1, params.base_width, 1, 0
    else:
        j, h, width = below.j + 1, below.next_height, below.level_width / below.r
        copies, top = below.copies * below.r, below.top + below.column_offsets[-1]
    spacers = params.spacer_vector(j, h)
    offsets = [0]
    for s in spacers[:-1]:
        offsets.append(offsets[-1] + h + s)
    return StageGeometry(
        j=j,
        h=h,
        level_width=width,
        r=len(spacers),
        spacers=spacers,
        column_offsets=tuple(offsets),
        space_measure=h * width,
        copies=copies,
        top=top,
    )


def stage_geometry(params: ConstructionParams, j: int) -> StageGeometry:
    """Geometry of stage j >= 1: ``tower_of(params).stage(j)``, read off the
    one stage chain the construction's ``Tower`` builds and keeps; j must be
    an integer."""
    return tower_of(params).stage(integer(j, "stages"))


def height(params: ConstructionParams, j: int) -> int:
    return stage_geometry(params, j).h


def level_width(params: ConstructionParams, j: int) -> Fraction:
    return stage_geometry(params, j).level_width


# ---------------------------------------------------------------------------
# Named families


def toy() -> ConstructionParams:
    """Two columns, one spacer on the right column, h_1 = 1 (heights 2^j - 1)."""
    return ConstructionParams(
        h1=1,
        cuts=CutRule("constant", 2),
        spacer_tail=(SpacerRule("zero"), SpacerRule("constant", 1)),
        family="toy",
    )


def utv1() -> ConstructionParams:
    """Halving family: r = 2, s_j = (0, j*h_j), h_1 = 2, so h_j = (j+1)!."""
    return ConstructionParams(
        h1=2,
        cuts=CutRule("constant", 2),
        spacer_tail=(SpacerRule("zero"), SpacerRule("j_times_h")),
        family="utv1",
    )


def thm2(N: int) -> ConstructionParams:
    """r = N+1, s_j = (0, ..., 0, block_sequence(j), j*h_j); requires N >= 2."""
    if N < 2:
        raise InvalidConstructionError("thm2 family requires N >= 2")
    return ConstructionParams(
        h1=2,
        cuts=CutRule("constant", N + 1),
        spacer_tail=(SpacerRule("blocks"), SpacerRule("j_times_h")),
        family=f"thm2({N})",
    )


def scaled(a) -> ConstructionParams:
    """Heights tracking a * (halving-family heights) for rational a > 1.

    h_1 = ceil(2a) and s_j(2) = H_{j+1} - 2 H_j with H_j = ceil(a (j+1)!), so
    the heights equal H_j exactly.  Stages where s_j(2) < h_j are rejected
    when their geometry is first computed.
    """
    a = parse_rational(a)
    if a <= 1:
        raise InvalidConstructionError("scaled family requires a > 1")
    return ConstructionParams(
        h1=_ceil(a * _reference_height(1)),
        cuts=CutRule("constant", 2),
        spacer_tail=(SpacerRule("zero"), SpacerRule("scaled_target", a=a)),
        family=f"scaled({a})",
    )


_FAMILY_BUILDERS = {"toy": toy, "utv1": utv1, "thm2": thm2, "scaled": scaled}
# the families that take an argument: name -> (keyword, parser, what it must be);
# the others take none
FAMILY_ARGUMENTS = {"thm2": ("N", parse_int, "an integer"),
                    "scaled": ("a", parse_rational, "a rational p/q")}


def family(name: str, **kwargs) -> ConstructionParams:
    """Build a preset by name: toy, utv1, thm2 (N=...), scaled (a=...)."""
    builder = _FAMILY_BUILDERS.get(name) if isinstance(name, str) else None
    if builder is None:
        raise InvalidConstructionError(f"unknown family {name!r}")
    wanted = [FAMILY_ARGUMENTS[name][0]] if name in FAMILY_ARGUMENTS else []
    if set(kwargs) != set(wanted):
        raise InvalidConstructionError(
            f"family {name} takes arguments {wanted}, got {sorted(kwargs)}"
        )
    return builder(**kwargs)


# ---------------------------------------------------------------------------
# Diagnostics


@dataclass(frozen=True)
class PartialSumReport:
    """Partial sums of sum_j sum_i s_j(i) / (h_j r_j) through stage J."""

    stages: tuple[int, ...]
    terms: tuple[Fraction, ...]
    partial_sums: tuple[Fraction, ...]
    total: Fraction
    diverging: bool


def infinite_measure_partial_sum(params: ConstructionParams, J: int) -> PartialSumReport:
    """Exact partial sums of the infinite-measure criterion series.

    ``diverging`` is a heuristic: the increment gathered over the most recent
    half of the stages is at least the increment over the half before it (and
    positive), the pattern of a divergent series at this truncation.
    """
    if J < 1:
        raise ValueError("J must be >= 1")
    terms = []
    for j in range(1, J + 1):
        geom = stage_geometry(params, j)
        terms.append(Fraction(sum(geom.spacers), geom.h * geom.r))
    partial = []
    acc = Fraction(0)
    for t in terms:
        acc += t
        partial.append(acc)
    total = partial[-1]
    # compare increments over (J/2, J] and (J/4, J/2]
    half = partial[J // 2 - 1] if J // 2 >= 1 else Fraction(0)
    quarter = partial[J // 4 - 1] if J // 4 >= 1 else Fraction(0)
    recent = total - half
    earlier = half - quarter
    diverging = recent > 0 and recent >= earlier
    return PartialSumReport(
        stages=tuple(range(1, J + 1)),
        terms=tuple(terms),
        partial_sums=tuple(partial),
        total=total,
        diverging=diverging,
    )


@dataclass(frozen=True)
class StarConditionReport:
    """Ratio chains h_j/s_j(2), s_j(i)/s_j(i+1) and whether each shrinks."""

    stages: tuple[int, ...]
    chains: tuple[tuple[Fraction | None, ...], ...]  # None marks a zero divisor
    violations: tuple[str, ...]
    passed: bool


def condition_star_check(params: ConstructionParams, J: int) -> StarConditionReport:
    """Check the separated-growth condition s_j(1)=0, h_j << s_j(2) << ... << s_j(r)."""
    if J < 2:
        raise ValueError("need J >= 2 to compare consecutive stages")
    r = params.cut_count(1)
    for j in range(2, J + 1):
        if params.cut_count(j) != r:
            raise ValueError("condition (*) requires a constant cut count")
    violations: list[str] = []
    stages = tuple(range(1, J + 1))
    chains: list[tuple[Fraction | None, ...]] = []
    for j in stages:
        geom = stage_geometry(params, j)
        s = geom.spacers
        if s[0] != 0:
            violations.append(f"s_{j}(1) != 0")
        chain: list[Fraction | None] = []
        numerators = [geom.h] + list(s[1:-1])
        denominators = list(s[1:])
        for num, den in zip(numerators, denominators):
            if den == 0:
                violations.append(f"s_{j} has a zero interior spacer")
                chain.append(None)
            else:
                chain.append(Fraction(num, den))
        chains.append(tuple(chain))
    shrinking = True
    for pos in range(len(chains[0])):
        column = [c[pos] for c in chains]
        if any(v is None for v in column):
            shrinking = False
            continue
        if any(b >= a for a, b in zip(column, column[1:])):
            shrinking = False
    passed = shrinking and not violations
    return StarConditionReport(
        stages=stages,
        chains=tuple(chains),
        violations=tuple(violations),
        passed=passed,
    )


# ---------------------------------------------------------------------------
# Config files


def _reject_unknown_keys(entry: dict, known: set, what: str) -> None:
    unknown = set(entry) - known
    if unknown:
        raise InvalidConstructionError(f"unknown {what} keys {sorted(unknown)}")


def _spacer_rule_from_config(entry) -> SpacerRule:
    if isinstance(entry, str):
        entry = {"rule": entry}
    if not isinstance(entry, dict):
        raise InvalidConstructionError(f"bad spacer rule {entry!r}")
    kind = entry.get("rule")
    reads = _spacer_reads(kind)  # before the keys, so an unknown kind is named
    _reject_unknown_keys(entry, {"rule", reads} - {None}, "spacer rule")
    if reads not in entry:
        return SpacerRule(kind)
    return SpacerRule(kind, **{reads: _SPACER_PARAMETERS[reads][1](entry[reads])})


def _spacer_rule_to_config(rule: SpacerRule):
    if rule.kind == "zero":
        return "zero"
    reads = _SPACER_RULES[rule.kind][0]
    out = {"rule": rule.kind}
    if reads:
        out[reads] = rule.c if reads == "c" else format_rational(rule.a)
    return out


def params_from_config(config: dict) -> ConstructionParams:
    """Build parameters from the JSON config form.

    Either {"family": name, ...family args} or
    {"h1": ..., "base_width": "p/q", "stages": {"r": ..., "spacers": [...]}}.
    Unknown keys are rejected.
    """
    if not isinstance(config, dict):
        raise InvalidConstructionError("construction config must be an object")
    if "family" in config:
        parsers = {key: parse for key, parse, _ in FAMILY_ARGUMENTS.values()}
        _reject_unknown_keys(config, {"family", *parsers}, "config")
        kwargs = {key: parse(config[key]) for key, parse in parsers.items() if key in config}
        return family(config["family"], **kwargs)
    _reject_unknown_keys(config, {"h1", "base_width", "stages"}, "config")
    if "h1" not in config or "stages" not in config:
        raise InvalidConstructionError("config needs either 'family' or 'h1' + 'stages'")
    stages = config["stages"]
    if not isinstance(stages, dict):
        raise InvalidConstructionError("'stages' must be an object")
    _reject_unknown_keys(stages, {"r", "spacers"}, "stage")
    r_entry = stages.get("r")
    if r_entry is None:
        raise InvalidConstructionError("'stages' needs 'r'")
    if isinstance(r_entry, dict):
        _reject_unknown_keys(r_entry, {"rule", "c"}, "cut rule")
        cuts = CutRule(r_entry.get("rule"), parse_int(r_entry.get("c", 1)))
    else:
        cuts = CutRule("constant", parse_int(r_entry))
    spacers = stages.get("spacers", [])
    if not isinstance(spacers, list):
        raise InvalidConstructionError("'spacers' must be a list")
    spacer_tail = tuple(_spacer_rule_from_config(e) for e in spacers)
    return ConstructionParams(
        h1=parse_int(config["h1"]),
        cuts=cuts,
        spacer_tail=spacer_tail,
        base_width=parse_rational(config.get("base_width", "1/1")),
    )


def params_to_config(params: ConstructionParams) -> dict:
    """Inverse of params_from_config (always the explicit form)."""
    if params.cuts.kind == "constant":
        r = params.cuts.c
    else:
        r = {"rule": params.cuts.kind, "c": params.cuts.c}
    return {
        "h1": format_int(params.h1),
        "base_width": format_rational(params.base_width),
        "stages": {
            "r": r,
            "spacers": [_spacer_rule_to_config(rule) for rule in params.spacer_tail],
        },
    }


from .tower import integer, tower_of  # noqa: E402  (last: tower imports the names above)
