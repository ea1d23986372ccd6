"""The ``rank1lab`` command: config-driven experiments.

Every verification in the acceptance suite is reachable as a named
subcommand; reports embed the resolved construction config and the tool
version, rationals travel as "p/q" and big integers as decimal strings, and
output files are written only after a run completes.

Rejected input is decided in one place.  The library rejects input with
``ValueError`` (``InvalidConstructionError`` for constructions, sometimes only
at the stage that breaks one), and ``_Main.invoke`` turns every such error into
a one-line ``Error:`` and exit 2, among them a ``limits scan`` that opens no
dead zone or would list more shifts than ``scan_window`` takes; an unwritable
``--out``, a malformed ``--family`` spec, a negative ``--tol`` or ``--eps``, a
``--grid`` or ``--max-stage`` below 1, a list option with no integer or too
many, a ``products scan --samples`` or ``spectral density --grid`` that would
list more than ``MAX_LISTED`` shifts or grid points, a stage past
``STAGE_CEILING`` (a stage option, span end, set or ``--max-stage``), a shift
whose stage budget walks past it (``measure`` and ``spectral`` ``--n``,
``spectral suspend --k``, ``products scan --k-hi``), a ``run`` list for a
single-valued option, and a request that runs out of memory, overflows a C
size or hits the recursion limit exit 2 the same way, so a crash never reads
as FAIL.
``--max-stage`` is the one stage cap of a command; no environment variable
changes an answer.
``_with_construction`` hands each command its parsed construction as
``params``, and ``_emit`` writes the report and exits with its status.
``run`` re-enters ``main`` with its experiment's subcommand path and one
``--option`` per params key, so the subcommands' own options are its schema;
it parses the construction once and hands it over as the click context object.

Exit codes: 0 PASS, 1 FAIL, 2 usage or config error, 3 INCONCLUSIVE
(resolution budget ran out).
"""

from __future__ import annotations

import csv
import functools
import io
import json
import re
import sys

import click

from . import __version__, acceptance, reports
from .construction import (
    FAMILY_ARGUMENTS,
    InvalidConstructionError,
    condition_star_check,
    family as family_builder,
    infinite_measure_partial_sum,
    params_from_config,
    params_to_config,
    stage_geometry,
)
from .joinings import domination_witness
from .oracle import oracle_intersection
from .products import ProductSystem, dissipativity_scan
from .serde import MAX_LISTED, format_int, format_number, format_rational, parse_rational
from .spectral import correlations, fejer_density, suspension_correlation
from .tower import LevelSet, level_set_fields, power_profile, stage_budget
from .weak_limits import (
    parse_polynomial,
    parse_sequence,
    scan_window,
    verify_mixture_law,
    verify_limit,
)

# The deepest stage a command may name, checked before any stage is built: a
# command builds every stage up to the deepest it names.  geometry --j 1..2000
# takes about 2 s on utv1 and 4 s on thm2(5) (Python 3.11, 2 vCPUs).
STAGE_CEILING = 2000
# Largest stage the oracle command materializes, in cells (= h_J).  It admits
# toy stage 20 (at most 56 MB peak RSS and about 0.15 s for any n on a
# 2-vCPU host with Python 3.11); utv1 stage 30 would need 31! cells.
_ORACLE_MAX_CELLS = 1 << 20

_FAMILY_SPEC = re.compile(r"^\s*(\w+)\s*(?:\(\s*([^)]+?)\s*\))?\s*$")
_SET_SUGAR = re.compile(r"^\s*(?:T\^?(-?\d+)\s*)?E_?(\d+)\s*$")


class _BadInput(click.ClickException):
    """Bad input or configuration: a one-line message and exit code 2."""

    exit_code = 2


def _parse_family(text: str):
    """The construction of a --family spec; a malformed spec is quoted in the error."""
    m = _FAMILY_SPEC.match(text)
    if not m:
        raise _BadInput(f"cannot parse family {text!r}, expected e.g. toy, thm2(3) or scaled(5/2)")
    name, arg = m.group(1), m.group(2)
    if arg is None:
        return family_builder(name)
    if name not in FAMILY_ARGUMENTS:
        raise _BadInput(f"bad family {text!r}: only {' and '.join(FAMILY_ARGUMENTS)} "
                        "take an argument")
    key, parse, kind = FAMILY_ARGUMENTS[name]
    try:
        value = parse(arg)
    except ValueError:
        raise _BadInput(f"bad family {text!r}: the argument of {name} must be {kind}") from None
    return family_builder(name, **{key: value})


def _load_params(family: str | None, config_path: str | None):
    handed = click.get_current_context().obj  # the construction `run` parsed
    if handed is not None:
        return handed
    if (family is None) == (config_path is None):
        raise click.UsageError("give exactly one of --family or --config")
    if family is not None:
        return _parse_family(family)
    try:
        with open(config_path) as fh:
            return params_from_config(json.load(fh))
    except (OSError, ValueError) as exc:
        raise _BadInput(f"bad construction config: {exc}") from exc


def _check_stage(stage: int, option: str):
    if stage > STAGE_CEILING:
        raise _BadInput(f"{option} names stage {format_int(stage)}, above the ceiling of "
                        f"{STAGE_CEILING} stages")


def _check_shift(params, shift: int, max_stage: int | None, option: str):
    """Refuse a shift whose stage budget passes the ceiling, before any kernel
    work.  Its start, the first stage taller than |shift|, is found by walking
    the stage heights, and the walk builds no stage past the ceiling."""
    start, m = 1, abs(shift)
    while start <= STAGE_CEILING and stage_geometry(params, start).h <= m:
        start += 1
    budget = stage_budget(start, max_stage)
    if budget > STAGE_CEILING:
        reach = f"to stage {budget}" if start <= STAGE_CEILING else f"past stage {STAGE_CEILING}"
        raise _BadInput(f"{option} walks {reach}, above the ceiling of {STAGE_CEILING} stages")


def _parse_set(text: str, params, option: str) -> LevelSet:
    """The set of ``option``'s text, its stage checked against the ceiling
    before the set is built."""
    m = _SET_SUGAR.match(text)
    try:
        stage, levels = (int(m.group(2)), (int(m.group(1) or 0),)) if m else level_set_fields(text)
        _check_stage(stage, option)
        return LevelSet.from_levels(params, stage, levels)
    except ValueError as exc:
        raise click.UsageError(f"bad set {text!r}: {exc}") from exc


def _parse_sets(set_a: str, set_b: str | None, params,
                options=("--set", "--set-b")) -> tuple[LevelSet, LevelSet]:
    """(A, B) from --set and --set-b; B is A when --set-b is not given."""
    a = _parse_set(set_a, params, options[0])
    return a, (_parse_set(set_b, params, options[1]) if set_b else a)


def _span(text: str) -> range:
    """"a..b" (inclusive, a <= b) or a single integer."""
    try:
        if ".." in text:
            lo, hi = (int(part) for part in text.split("..", 1))
        else:
            lo = hi = int(text)
    except ValueError:
        raise _BadInput(f"bad integer or range {text!r}, expected e.g. 5 or 3..8") from None
    if lo > hi:
        raise _BadInput(f"empty range {text!r}: the start is past the end")
    return range(lo, hi + 1)


def _parse_span(text: str, option: str) -> range:
    """A span of stages in ``_span``'s form, its end checked against the ceiling."""
    span = _span(text)
    _check_stage(span[-1], option)
    return span


def _check_count(count: int, option: str, items: str):
    """Refuse an option that would list more than ``MAX_LISTED`` items."""
    if count > MAX_LISTED:
        raise _BadInput(f"{option} would list {format_int(count)} {items}, above the limit "
                        f"of {MAX_LISTED}")


def _parse_int_list(text: str, option: str) -> list[int]:
    """Comma-separated integers and ranges, counted from their bounds first: a
    list with none would be a vacuous run, and one above ``MAX_LISTED`` is refused."""
    spans = [_span(part) for part in map(str.strip, text.split(",")) if part]
    count = sum(span.stop - span.start for span in spans)
    if not count:
        raise _BadInput(f"no integer in {text!r}, expected e.g. 5, 3..8 or 1,2,8")
    _check_count(count, option, "integers")
    return [n for span in spans for n in span]


def _bound_fields(bound) -> dict:
    return {
        "lo": format_rational(bound.lo),
        "hi": format_rational(bound.hi),
        "exact": bound.exact,
        "resolved_stage": bound.resolved_stage,
    }


def _interval_text(bound) -> str:
    return (format_rational(bound.lo) if bound.exact
            else f"[{format_number(bound.lo)},{format_number(bound.hi)}]")


def _scan_status(all_zero: bool, nonzero: bool) -> str:
    """PASS if all proven zero, FAIL on a proven nonzero value, else INCONCLUSIVE."""
    if all_zero:
        return reports.PASS
    return reports.FAIL if nonzero else reports.INCONCLUSIVE


def _emit(meta: dict, rows: list[dict], fmt: str, out: str | None, status: str | None):
    """Write the report, then exit with the status's code unless it is PASS."""
    if fmt == "json":
        payload = dict(meta)
        if status is not None:
            payload["status"] = status
        payload["rows"] = rows
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = [f"# {key}={json.dumps(value, sort_keys=True)}" for key, value in meta.items()]
        if status is not None:
            lines.append(f"# status={status}")
        text = "\n".join(lines) + "\n"
        if rows:
            # the csv module quotes a cell that holds a comma, such as "[lo,hi]"
            header = list(rows[0].keys())
            table = io.StringIO()
            writer = csv.writer(table, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([str(row.get(col, "")) for col in header] for row in rows)
            text += table.getvalue()
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise _BadInput(f"cannot write --out: {exc}") from exc
    else:
        click.echo(text, nl=False)
    if status is not None and status != reports.PASS:
        sys.exit(reports.EXIT_CODES[status])


def _meta(params=None, **extra) -> dict:
    meta = {"version": __version__}
    if params is not None:
        meta["config"] = params_to_config(params)
        meta["family"] = params.label()
    meta.update(extra)
    return meta


def _with_construction(fn):
    """Add --family and --config; the command gets the construction as ``params``."""
    @click.option("--family", default=None, help="toy | utv1 | thm2(N) | scaled(p/q)")
    @click.option("--config", "config_path", default=None, type=click.Path(),
                  help="construction config JSON file")
    @functools.wraps(fn)
    def command(family, config_path, **kwargs):
        return fn(params=_load_params(family, config_path), **kwargs)

    return command


_format_option = click.option("--format", "fmt", default="json",
                              type=click.Choice(["json", "csv"]))
_out_option = click.option("--out", default=None, type=click.Path())


def _stage_cap(ctx, param, value):
    if value is not None:
        if value < 1:
            raise _BadInput(f"--max-stage must be >= 1, got {value}")
        _check_stage(value, "--max-stage")
    return value


_max_stage_option = click.option("--max-stage", default=None, type=int, callback=_stage_cap,
                                 help="absolute resolution stage cap")


class _Main(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, MemoryError, RecursionError, OverflowError) as exc:
            # free the failing frames and the half-built data they hold before
            # click formats the message: a crash must not read as FAIL
            exc.__traceback__ = None
            # a construction can turn out invalid only at the stage that breaks it
            message = (f"invalid construction: {exc}" if isinstance(exc, InvalidConstructionError)
                       else str(exc) if isinstance(exc, ValueError)
                       else f"request too large for this host ({type(exc).__name__})")
        raise _BadInput(message)  # outside the handler, so it chains no exception


@click.group(cls=_Main)
@click.version_option(version=__version__)
def main():
    """Exact-arithmetic experiments on rank-one cutting-and-stacking systems."""


@main.command()
@_with_construction
@click.option("--j", "span", required=True, help="stage or range, e.g. 5 or 3..8")
@click.option("--star-check", is_flag=True, help="include separated-growth ratios")
@click.option("--measure-sum", is_flag=True, help="include infinite-measure partial sums")
@_format_option
@_out_option
def geometry(params, span, star_check, measure_sum, fmt, out):
    """Exact stage geometry: heights, widths, offsets, cumulative measure."""
    stages = _parse_span(span, "--j")
    rows = []
    for j in stages:
        geom = stage_geometry(params, j)
        rows.append({
            "j": j,
            "h": format_int(geom.h),
            "level_width": format_rational(geom.level_width),
            "r": geom.r,
            "spacers": " ".join(format_int(s) for s in geom.spacers),
            "column_offsets": " ".join(format_int(p) for p in geom.column_offsets),
            "space_measure": format_rational(geom.space_measure),
        })
    meta = _meta(params)
    if measure_sum:
        report = infinite_measure_partial_sum(params, stages[-1])
        meta["measure_sum"] = {
            "total": format_rational(report.total),
            "diverging": report.diverging,
        }
    if star_check:
        report = condition_star_check(params, max(stages[-1], 2))
        meta["condition_star"] = {
            "passed": report.passed,
            "violations": list(report.violations),
        }
    _emit(meta, rows, fmt, out, None)


@main.command("measure")
@_with_construction
@click.option("--set", "set_a", required=True)
@click.option("--set-b", default=None)
@click.option("--n", "shifts", required=True, help="shift(s): 5, -3..3, or 1,2,8")
@_max_stage_option
@_format_option
@_out_option
def measure_cmd(params, set_a, set_b, shifts, max_stage, fmt, out):
    """mu(T^n A /\\ B) as exact rational intervals."""
    a, b = _parse_sets(set_a, set_b, params)
    ns = _parse_int_list(shifts, "--n")
    _check_shift(params, max(ns, key=abs), max_stage, "--n")
    bounds = power_profile(a, b, ns, max_stage)
    rows = [{"n": format_int(n), **_bound_fields(bound)} for n, bound in zip(ns, bounds)]
    status = reports.PASS if all(bound.exact for bound in bounds) else reports.INCONCLUSIVE
    _emit(_meta(params, set_a=set_a, set_b=set_b or set_a), rows, fmt, out, status)


@main.command()
@_with_construction
@click.option("--set", "set_a", required=True)
@click.option("--set-b", default=None)
@click.option("--n", type=int, required=True)
@click.option("--stage", type=int, required=True, help="stage of the materialized system")
@_format_option
@_out_option
def oracle(params, set_a, set_b, n, stage, fmt, out):
    """Brute-force interval-model value of mu(T^n A /\\ B)."""
    _check_stage(stage, "--stage")
    a, b = _parse_sets(set_a, set_b, params)
    cells = stage_geometry(params, stage).h
    if cells > _ORACLE_MAX_CELLS:
        raise _BadInput(f"stage {stage} has {format_int(cells)} cells; the oracle "
                        f"materializes at most {_ORACLE_MAX_CELLS}")
    result = oracle_intersection(a, b, n, stage)
    rows = [{
        "n": format_int(n),
        "value": format_rational(result.value),
        "undefined_mass": format_rational(result.undefined_mass),
        "fully_defined": result.fully_defined,
    }]
    _emit(_meta(params, stage=stage), rows, fmt, out, None)


@main.group()
def limits():
    """Weak-limit verification: candidate sequences, windows, the 3-column law."""


@limits.command("verify")
@_with_construction
@click.option("--seq", required=True, help='e.g. "h_k", "h_k+h_{k-1}", "h_k + 1"')
@click.option("--poly", required=True, help='e.g. "1/2*T^0"')
@click.option("--j", "span", required=True, help="k range, e.g. 3..8")
@click.option("--pair", "pairs", multiple=True,
              help="A|B set pair; default E2|E2", default=())
@click.option("--tol", default="0")
@_max_stage_option
@_format_option
@_out_option
def limits_verify(params, seq, poly, span, pairs, tol, max_stage, fmt, out):
    """Check mu(T^{n(k)} A /\\ B) against a polynomial limit candidate."""
    sequence = parse_sequence(seq)
    polynomial = parse_polynomial(poly)
    if pairs:
        test_pairs = []
        for pair in pairs:
            left, _, right = pair.partition("|")
            test_pairs.append(_parse_sets(left, right, params, ("--pair", "--pair")))
    else:
        e2 = LevelSet.base(params, 2)
        test_pairs = [(e2, e2)]
    report = verify_limit(params, sequence, polynomial, test_pairs,
                          _parse_span(span, "--j"), parse_rational(tol), max_stage)
    rows = [{
        "k": r.k,
        "n": format_int(r.n),
        "pair": r.pair_index,
        "lo": format_rational(r.value.lo),
        "hi": format_rational(r.value.hi),
        "prediction": _interval_text(r.prediction),
        "deviation": format_rational(r.dev_hi),
        "status": r.status,
    } for r in report.rows]
    meta = _meta(params, seq=str(sequence), poly=str(polynomial),
                 max_deviation=format_rational(report.max_deviation))
    _emit(meta, rows, fmt, out, report.status)


@limits.command("scan")
@_with_construction
@click.option("--j", type=int, required=True)
@click.option("--set", "set_a", default="E2")
@click.option("--set-b", default=None)
@click.option("--step", type=int, default=None)
@click.option("--dead-samples", default="64", help="count, or 'all' for exhaustive")
@_max_stage_option
@_format_option
@_out_option
def limits_scan(params, j, set_a, set_b, step, dead_samples, max_stage, fmt, out):
    """Tabulate the window around h_j and sample the dead zone."""
    _check_stage(j, "--j")
    a, b = _parse_sets(set_a, set_b, params)
    try:
        samples = None if dead_samples == "all" else int(dead_samples)
    except ValueError:
        raise _BadInput(f"--dead-samples must be a count or 'all', got {dead_samples!r}") from None
    report = scan_window(params, j, a, b, step, samples, max_stage)
    rows = [
        {"zone": zone, "n": format_int(n), **_bound_fields(bound),
         "prediction": "", "deviation": ""}
        for zone, table in (("window", report.window_rows), ("dead", report.dead_rows))
        for n, bound in table
    ]
    status = _scan_status(report.dead_zone_exact_zero,
                          any(bound.lo > 0 for _, bound in report.dead_rows))
    meta = _meta(params, j=j,
                 window=[format_int(v) for v in report.window],
                 dead_zone=[format_int(v) for v in report.dead_zone],
                 dead_zone_exact_zero=report.dead_zone_exact_zero)
    _emit(meta, rows, fmt, out, status)


@limits.command("eq4")
@click.option("--big-n", "--N", "big_n", type=int, required=True, help="family parameter N")
@click.option("--n", type=int, required=True, help="power multiplier, 1 <= n <= N")
@click.option("--p", type=int, required=True, help="target shift (sign selects scan direction)")
@click.option("--set", "set_a", default="E2")
@click.option("--set-b", default=None)
@click.option("--stages", default=None, help="explicit stage list, e.g. 3,6")
@click.option("--j-max", type=int, default=9)
@click.option("--tol", default="0")
@_max_stage_option
@_format_option
@_out_option
def limits_eq4(big_n, n, p, set_a, set_b, stages, j_max, tol, max_stage, fmt, out):
    """Check T^{-n h_j'} -> ((N-n)/(N+1)) I + (1/(N+1)) T^p over thm2(N)."""
    _check_stage(j_max, "--j-max")
    stage_list = _parse_int_list(stages, "--stages") if stages is not None else None
    if stage_list is not None:
        _check_stage(max(stage_list), "--stages")
    params = family_builder("thm2", N=big_n)
    a, b = _parse_sets(set_a, set_b, params)
    report = verify_mixture_law(big_n, n, p, a, b, stage_list, j_max,
                                parse_rational(tol), max_stage)
    rows = [{
        "n": format_int(r.shift),
        "lo": format_rational(r.value.lo),
        "hi": format_rational(r.value.hi),
        "prediction": _interval_text(r.prediction),
        "deviation": format_rational(r.dev_hi),
        "stage": r.stage,
        "status": r.status,
    } for r in report.rows]
    meta = _meta(params, n=n, p=p, stages=list(report.stages),
                 decreasing=report.decreasing)
    _emit(meta, rows, fmt, out, report.status)


@main.group()
def joinings():
    """Off-diagonal joinings and domination witnesses."""


@joinings.command("witness")
@_with_construction
@click.option("--m", type=int, default=0, help="base graph-joining shift")
@click.option("--j", "span", default="4..8")
@click.option("--grid", type=int, default=5, help="use T^i E2 for i < grid")
@click.option("--eps", default="0")
@_max_stage_option
@_format_option
@_out_option
def joinings_witness(params, m, span, grid, eps, max_stage, fmt, out):
    """Find shifts k(j) whose joining dominates half the base joining."""
    if grid < 1:
        raise _BadInput(f"--grid must be >= 1, got {grid}")
    rect_grid = [
        (LevelSet.single(params, 2, i), LevelSet.single(params, 2, k))
        for i in range(grid)
        for k in range(grid)
    ]
    j_range, tolerance = _parse_span(span, "--j"), parse_rational(eps)
    report = domination_witness(params, m, rect_grid, j_range, tolerance, max_stage)
    rows = [row.to_json() for row in report.rows]
    status = reports.PASS if report.passed else reports.FAIL
    if not report.vacuous and any(
        row.margin_lo is not None and row.margin_lo < -tolerance <= row.margin_hi
        for row in report.rows
    ):
        status = reports.INCONCLUSIVE
    meta = _meta(params, m=m, vacuous=report.vacuous)
    _emit(meta, rows, fmt, out, status)


@main.group()
def products():
    """Product systems T^m x T^n on rectangles."""


@products.command("scan")
@_with_construction
@click.option("--right-family", default=None, help="right construction if different")
@click.option("--m", type=int, default=1)
@click.option("--n", type=int, default=1)
@click.option("--set", "set_a", default="E2")
@click.option("--set-b", default=None)
@click.option("--k-lo", type=int, required=True)
@click.option("--k-hi", type=int, required=True)
@click.option("--samples", type=int, default=256)
@click.option("--ratio-target", default=None, help="compare h_i/h'_i against p/q")
@_max_stage_option
@_format_option
@_out_option
def products_scan(params, right_family, m, n, set_a, set_b, k_lo, k_hi, samples,
                  ratio_target, max_stage, fmt, out):
    """Rectangle return scan over (k_lo, k_hi]; evidence, never a theorem."""
    _check_count(min(samples, k_hi - k_lo), "--samples", "shifts")
    right_params = _parse_family(right_family) if right_family else params
    system = ProductSystem(params, m, right_params, n)
    a = _parse_set(set_a, params, "--set")
    b = _parse_set(set_b or set_a, right_params, "--set-b" if set_b else "--set")
    target = parse_rational(ratio_target) if ratio_target else None
    _check_shift(params, m * k_hi, max_stage, "--k-hi")  # k_hi is the largest k scanned
    _check_shift(right_params, n * k_hi, max_stage, "--k-hi")
    report = dissipativity_scan(system, a, b, k_lo, k_hi, samples, max_stage,
                                ratio_target=target)
    rows = [{
        "k": format_int(r.k),
        "left_value": _interval_text(r.left),
        "right_value": "" if r.right is None else _interval_text(r.right),
        "product_lo": format_rational(r.product.lo),
        "product_hi": format_rational(r.product.hi),
        "verdict": r.verdict,
    } for r in report.rows]
    status = _scan_status(report.all_proven_zero, bool(report.nonzero_returns))
    meta = _meta(params, right_family=right_params.label(), m=m, n=n,
                 note=report.note,
                 nonzero_count=len(report.nonzero_returns),
                 unresolved_count=len(report.unresolved))
    if report.ratio_check is not None:
        meta["ratio_check"] = [
            {"i": i, "h": format_int(ha), "h_right": format_int(hb),
             "ratio": format_rational(ratio), "deviation": format_rational(dev)}
            for i, ha, hb, ratio, dev in report.ratio_check
        ]
    _emit(meta, rows, fmt, out, status)


@main.group()
def spectral():
    """Correlation sequences and spectral-type indicators."""


def _base_sequence(params, set_a, shifts, h_stages, max_stage):
    a = _parse_set(set_a, params, "--set")
    n_list = _parse_int_list(shifts, "--n") if shifts is not None else list(range(9))
    _check_shift(params, max(n_list, key=abs), max_stage, "--n")
    if h_stages:
        n_list += [stage_geometry(params, j).h for j in _parse_span(h_stages, "--h-stages")]
    return n_list, correlations(a, n_list, max_stage)


@spectral.command("corr")
@_with_construction
@click.option("--set", "set_a", default="E2")
@click.option("--n", "shifts", default=None, help="shifts, e.g. 0..8")
@click.option("--h-stages", default=None, help="also include h_j for j in this range")
@_max_stage_option
@_format_option
@_out_option
def spectral_corr(params, set_a, shifts, h_stages, max_stage, fmt, out):
    """Exact correlations c(n) = mu(T^n A /\\ A)/mu(A); INCONCLUSIVE when a
    requested c(n) did not resolve."""
    n_list, seq = _base_sequence(params, set_a, shifts, h_stages, max_stage)
    steps = sorted({abs(n) for n in n_list})
    rows = [{"n": format_int(n), "c_n": format_rational(seq.value(n))}
            for n in steps if seq.has(n)]
    unresolved = [format_int(n) for n in steps if not seq.has(n)]
    status = reports.INCONCLUSIVE if unresolved else None
    _emit(_meta(params, set=set_a, unresolved=unresolved), rows, fmt, out, status)


@spectral.command("density")
@_with_construction
@click.option("--set", "set_a", default="E2")
@click.option("--n", "shifts", default=None)
@click.option("--h-stages", default=None)
@click.option("--order", type=int, required=True)
@click.option("--grid", type=int, default=256)
@_max_stage_option
@_format_option
@_out_option
def spectral_density(params, set_a, shifts, h_stages, order, grid, max_stage, fmt, out):
    """Fejer spectral-density estimate of the correlation sequence; INCONCLUSIVE
    without rows when a shift below the order did not resolve."""
    _check_count(grid, "--grid", "grid points")
    _, seq = _base_sequence(params, set_a, shifts, h_stages, max_stage)
    # fejer_density reads a shift it was not given as zero
    computed = {n for n, _ in seq.entries}.union(n for n, _ in seq.unresolved)
    missing = next((n for n in range(order) if n not in computed), None)
    if missing is not None:
        raise _BadInput(f"--n must cover every shift below --order {format_int(order)}: "
                        f"{format_int(missing)} is missing")
    unresolved = [format_int(n) for n, _ in seq.unresolved if n < order]
    if unresolved:  # an unresolved c(n) is not zero: no estimate rather than a wrong one
        meta = _meta(params, set=set_a, order=format_int(order), unresolved=unresolved)
        return _emit(meta, [], fmt, out, reports.INCONCLUSIVE)
    est = fejer_density(seq, order, grid)
    rows = [{"theta": f"{theta:.12g}", "F": f"{value:.12g}"}
            for theta, value in zip(est.grid, est.values)]
    meta = _meta(params, set=set_a, order=format_int(order),
                 max_mean_ratio=f"{est.max_mean_ratio:.6g}",
                 top_share=f"{est.top_share:.6g}")
    _emit(meta, rows, fmt, out, None)


@spectral.command("suspend")
@_with_construction
@click.option("--set", "set_a", default="E2")
@click.option("--k", "shifts", required=True, help="shifts, e.g. 6,24,120")
@_max_stage_option
@_format_option
@_out_option
def spectral_suspend(params, set_a, shifts, max_stage, fmt, out):
    """Normalized suspension correlations (e^{c(k)} - 1)/(e - 1); INCONCLUSIVE
    when a value is an interval because its c(k) did not resolve."""
    a = _parse_set(set_a, params, "--set")
    ks = _parse_int_list(shifts, "--k")
    _check_shift(params, max(ks, key=abs), max_stage, "--k")
    seq = correlations(a, ks, max_stage)
    rows = []
    status = None
    for k in ks:
        value = suspension_correlation(seq, k)
        if isinstance(value, tuple):
            rows.append({"k": format_int(k), "value": f"[{value[0]:.12g},{value[1]:.12g}]"})
            status = reports.INCONCLUSIVE
        else:
            rows.append({"k": format_int(k), "value": f"{value:.12g}"})
    _emit(_meta(params, set=set_a), rows, fmt, out, status)


@main.command("acceptance")
@click.option("--only", default=None, help="criteria numbers, e.g. 1,2,5")
@_format_option
@_out_option
def acceptance_cmd(only, fmt, out):
    """Run the acceptance criteria and print one verdict line per criterion."""
    numbers = _parse_int_list(only, "--only") if only is not None else None
    results = acceptance.run_all(numbers)
    for res in results:
        marker = " [known-defect]" if res.known_defect else ""
        click.echo(f"{res.status} criterion-{res.number} {res.name}{marker}: {res.detail}")
    if out:
        rows = [{
            "number": res.number, "name": res.name, "status": res.status,
            "known_defect": res.known_defect, "detail": res.detail,
        } for res in results]
        _emit(_meta(), rows, fmt, out, None)
    if not all(res.passed for res in results):
        sys.exit(reports.EXIT_CODES[reports.FAIL])


# `run` experiment names -> subcommand paths; "spectral" appends params["op"]
_RUN_PATHS = {
    "geometry": ["geometry"],
    "measure": ["measure"],
    "oracle": ["oracle"],
    "limits": ["limits", "verify"],
    "scan": ["limits", "scan"],
    "eq4": ["limits", "eq4"],
    "joinings": ["joinings", "witness"],
    "products": ["products", "scan"],
    "spectral": ["spectral"],
    "acceptance": ["acceptance"],
}
# options that are not experiment parameters: the construction and the output
# have top-level keys, and --help would print help and exit 0
_NOT_PARAMS = {"family", "config", "out", "format", "help"}
# a key like "j=2" or "" would reach click as "--j=2" or the "--" separator
_PARAM_KEY = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


@main.command("run")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.pass_context
def run_config(ctx, config_path):
    """Run an experiment described by a JSON config file.

    Schema: {"experiment": name, "construction": {...}, "params": {...},
    "out": path?, "format": "csv"|"json"?}.  Each params key is a long option
    of the experiment's subcommand with "_" for "-" ({"set_b": "E3"} is
    --set-b E3); true adds a flag, a list repeats the option.  Unknown keys
    are rejected; the exit status is the dispatched experiment's.
    """
    try:
        with open(config_path) as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:
        raise click.UsageError(f"cannot read experiment config: {exc}") from exc
    if not isinstance(config, dict):
        raise _BadInput("experiment config must be a JSON object")
    unknown = set(config) - {"experiment", "construction", "params", "out", "format"}
    if unknown:
        raise click.UsageError(f"unknown experiment config keys {sorted(unknown)}")
    name = config.get("experiment")
    if not isinstance(name, str) or name not in _RUN_PATHS:
        raise click.UsageError(f"unknown experiment {name!r}")
    exp_params = config.get("params", {})
    if not isinstance(exp_params, dict):
        raise _BadInput('experiment "params" must be a JSON object')
    argv = list(_RUN_PATHS[name])
    if name == "spectral":
        op = str(exp_params.pop("op", "corr"))
        if op not in spectral.commands:
            raise click.UsageError(f"unknown spectral op {op!r}")
        argv.append(op)
    command = functools.reduce(lambda group, part: group.commands[part], argv, main)
    construction = None
    if "construction" in config:
        if not any(param.name == "family" for param in command.params):
            raise click.UsageError(f"experiment {name} takes no construction")
        construction = params_from_config(config["construction"])
    # click keeps only the last of several values of a single-valued option
    single = {opt for param in command.params if not param.multiple for opt in param.opts}
    for key, value in exp_params.items():
        if key in _NOT_PARAMS or not _PARAM_KEY.fullmatch(key):
            raise click.UsageError(f"unknown parameter {key!r} for experiment {name}")
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        elif isinstance(value, list):
            if flag in single:
                raise _BadInput(f"parameter {key!r} of experiment {name} takes one value, "
                                "not a list")
            for item in value:
                argv += [flag, str(item)]
        else:
            argv += [flag, str(value)]
    if "out" in config:
        argv += ["--out", str(config["out"])]
    if "format" in config:
        argv += ["--format", str(config["format"])]
    main.main(args=argv, prog_name=ctx.find_root().info_name,
              standalone_mode=False, obj=construction)


if __name__ == "__main__":
    main()
