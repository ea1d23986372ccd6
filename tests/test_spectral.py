import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rank1lab.construction import stage_geometry, thm2, toy, utv1
from rank1lab.products import ProductSystem, product_return
from rank1lab.spectral import (
    CorrelationSequence,
    correlation_sequence,
    correlations,
    fejer_density,
    product_correlation,
    suspension_correlation,
    toeplitz_min_eigenvalue,
)
from rank1lab.tower import LevelSet, apply_power_bounds, measure

UTV = utv1()
E2 = LevelSet.base(UTV, 2)
HEIGHTS = [stage_geometry(UTV, j).h for j in range(3, 9)]


def _base_sequence():
    return correlations(E2, list(range(8)) + HEIGHTS)


def test_normalization_and_symmetry():
    seq = _base_sequence()
    assert seq.value(0) == 1
    for n in (1, 6, HEIGHTS[0]):
        assert seq.value(-n) == seq.value(n)


def test_halving_shifts_correlate_at_one_half():
    seq = _base_sequence()
    for h in HEIGHTS:
        assert seq.value(h) == Fraction(1, 2)


def test_dead_zone_shift_correlates_at_zero():
    seq = correlations(E2, [720 + 240 + 17])
    assert seq.value(720 + 240 + 17) == 0


@pytest.mark.parametrize("a,shifts,max_stage", [
    # exact and unresolved shifts mixed, several sharing one bound
    (LevelSet.single(toy(), 3, 6), range(-40, 41), 6),
    (E2, [h + d for h in HEIGHTS for d in (-1, 0, 1, 2)] + list(range(40)), None),
])
def test_correlations_equal_one_division_per_shift(a, shifts, max_stage):
    mass = measure(a)
    entries, unresolved = {0: Fraction(1)}, {}
    for n in sorted({abs(n) for n in shifts} - {0}):
        bound = apply_power_bounds(a, a, n, max_stage)
        if bound.exact:
            entries[n] = bound.lo / mass
        else:
            unresolved[n] = (bound.lo / mass, bound.hi / mass)
    seq = correlations(a, shifts, max_stage)
    assert seq.entries == tuple(sorted(entries.items()))
    assert seq.unresolved == tuple(sorted(unresolved.items()))
    if max_stage is not None:
        assert len(seq.entries) > 1 and seq.unresolved


def test_unresolved_shifts_are_kept_as_intervals():
    from rank1lab.construction import toy

    t = toy()
    a = LevelSet.single(t, 3, 6)
    # widen: mu(T^15 a /\ a)/mu(a) does not resolve within budget 6
    seq = correlations(a, [15], max_stage=6)
    assert not seq.has(15)
    lo, hi = seq.bounds(15)
    assert lo < hi
    with pytest.raises(ValueError, match="did not resolve"):
        seq.value(15)
    assert isinstance(suspension_correlation(seq, 15), tuple)


def test_missing_shift_raises():
    seq = _base_sequence()
    with pytest.raises(ValueError, match="not computed"):
        seq.value(12345)


def test_sequence_validation():
    with pytest.raises(ValueError, match="normalized"):
        CorrelationSequence(entries=((0, Fraction(1, 2)),))
    with pytest.raises(ValueError, match="nonnegative"):
        CorrelationSequence(entries=((0, Fraction(1)), (-3, Fraction(1, 2))))
    with pytest.raises(ValueError, match="conflicting"):
        correlation_sequence({3: Fraction(1, 2), -3: Fraction(1, 3)})
    seq = correlation_sequence({5: Fraction(1, 4)})
    assert seq.value(0) == 1  # c(0) defaults to the normalization


def test_product_correlation_values():
    seq = _base_sequence()
    assert product_correlation(seq, seq, 1, 1, 0) == 1
    for h in HEIGHTS:
        table = correlations(E2, [h])
        assert product_correlation(table, table, 1, 1, h) == Fraction(1, 4)
    with pytest.raises(ValueError):
        product_correlation(seq, seq, 3, 1, HEIGHTS[0])  # 3*h not computed


def test_product_correlation_dissipative_tail_vanishes():
    params = thm2(2)
    a = LevelSet.base(params, 2)
    k = 2 * stage_geometry(params, 6).h  # leading stage >= 6: proven-zero zone
    table = correlations(a, [k, 3 * k])
    assert product_correlation(table, table, 1, 3, k) == 0


def test_factorization_matches_product_returns():
    rng = random.Random(11)
    system = ProductSystem(UTV, 1, UTV, 3)
    sets = [LevelSet.single(UTV, 2, i) for i in range(6)]
    for _ in range(20):
        a, b = rng.choice(sets), rng.choice(sets)
        k = rng.randrange(0, 60)
        ca = correlations(a, [k])
        cb = correlations(b, [3 * k])
        via_corr = product_correlation(ca, cb, 1, 3, k) * measure(a) * measure(b)
        assert via_corr == product_return(system, a, b, k).value


def test_suspension_normalization_points():
    seq = correlation_sequence({1: Fraction(0), 2: Fraction(1)})
    assert suspension_correlation(seq, 1) == 0
    assert suspension_correlation(seq, 2) == 1


def test_suspension_at_one_half():
    seq = _base_sequence()
    reference = (math.sqrt(math.e) - 1) / (math.e - 1)
    for h in HEIGHTS:
        assert abs(suspension_correlation(seq, h) - reference) <= 1e-12


def test_fejer_flat_for_pure_point_mass_at_zero():
    seq = correlation_sequence({0: Fraction(1)})
    est = fejer_density(seq, order=100, grid_size=64)
    assert all(abs(v - 1.0) < 1e-12 for v in est.values)
    assert abs(est.max_mean_ratio - 1.0) < 1e-12


def test_fejer_concentrates_for_constant_correlations():
    # c(n) = 1 up to the order: the kernel itself, peaked at theta = 0
    narrow = correlation_sequence({n: Fraction(1) for n in range(16)})
    est16 = fejer_density(narrow, order=16, grid_size=128)
    wide = correlation_sequence({n: Fraction(1) for n in range(64)})
    est64 = fejer_density(wide, order=64, grid_size=128)
    assert est16.values[0] == max(est16.values)
    assert est64.max_mean_ratio > est16.max_mean_ratio > 1.0


def test_fejer_mass_ratio_grows_with_order_for_halving_family():
    entries = {0: Fraction(1)}
    for j in range(2, 9):
        entries[stage_geometry(UTV, j).h] = Fraction(1, 2)
    seq = correlation_sequence(entries)
    h4, h5 = stage_geometry(UTV, 4).h, stage_geometry(UTV, 5).h
    low = fejer_density(seq, order=h4 + 1, grid_size=128)
    high = fejer_density(seq, order=h5 + 1, grid_size=128)
    assert high.max_mean_ratio > low.max_mean_ratio


def test_fejer_nonnegative_and_mean_close_to_one():
    # positivity needs the complete table below the order, not a sparsified one
    order = HEIGHTS[0] + 1
    seq = correlations(E2, range(order))
    est = fejer_density(seq, order=order, grid_size=127)
    assert all(v >= -1e-9 for v in est.values)
    mean = sum(est.values) / len(est.values)
    assert abs(mean - 1.0) < 0.05
    assert 0 < est.top_share <= 1


def test_fejer_rejects_bad_arguments():
    seq = correlation_sequence({0: Fraction(1)})
    with pytest.raises(ValueError):
        fejer_density(seq, order=0, grid_size=16)


def test_fejer_rejects_unresolved_shifts_below_the_order():
    """An unresolved c(n) is an interval, not zero: below the order it has no
    place in the sum, above it it does not enter."""
    t = toy()
    seq = correlations(LevelSet.base(t, 1), range(7), max_stage=3)
    assert [n for n, _ in seq.unresolved] == [3, 4, 5, 6]
    with pytest.raises(ValueError, match=r"^c\(3\) did not resolve exactly"):
        fejer_density(seq, order=7, grid_size=4)
    low = fejer_density(seq, order=3, grid_size=4)
    exact = correlation_sequence(dict(seq.entries))
    assert low == fejer_density(exact, order=3, grid_size=4)


def _fejer_per_theta(c, order, grid_size):
    """The per-theta double loop over the grid and the support, written out."""
    support = [(n, float(c.value(n))) for n in c.support() if n < order]
    values = []
    for t in range(grid_size):
        theta = 2.0 * math.pi * t / grid_size
        acc = 0.0
        for n, cn in support:
            if n == 0:
                acc += cn
            else:
                acc += 2.0 * (1.0 - n / order) * cn * math.cos(n * theta)
        values.append(acc)
    mean = sum(values) / grid_size
    ratio = max(values) / mean if mean != 0 else float("inf")
    top_count = max(1, -(-grid_size // 20))
    total = sum(values)
    top_share = sum(sorted(values, reverse=True)[:top_count]) / total if total else 0.0
    return values, ratio, top_share


_sparse_sequences = st.dictionaries(
    st.integers(min_value=1, max_value=300) | st.integers(min_value=1, max_value=10**12),
    st.fractions(min_value=-1, max_value=1, max_denominator=1000),
    max_size=30,
).map(correlation_sequence)

# mostly zeros, as the dead zones make real tables; a value below the float
# range is a nonzero Fraction whose float is +-0.0, and is skipped as a zero
_zero_heavy_sequences = st.tuples(
    st.sets(st.integers(min_value=1, max_value=400), max_size=80),
    st.dictionaries(
        st.integers(min_value=1, max_value=400),
        st.fractions(min_value=-1, max_value=1, max_denominator=1000)
        | st.sampled_from([Fraction(1, 10**400), Fraction(-1, 10**400)]),
        max_size=6,
    ),
).map(lambda parts: correlation_sequence({**dict.fromkeys(parts[0], 0), **parts[1]}))


@settings(max_examples=150, deadline=None)
@given(
    _sparse_sequences | _zero_heavy_sequences,
    st.one_of(st.integers(min_value=1, max_value=3000), st.just(10**12),
              st.integers(min_value=1, max_value=10**13)),
    st.one_of(st.sampled_from([1, 257]), st.integers(min_value=1, max_value=300)),
)
def test_fejer_equals_per_theta_loop(seq, order, grid_size):
    # exact equality: each grid point receives the same float additions in the
    # same order, less the zero terms the reference still adds (a +-0.0 term
    # leaves a sum that is never -0.0 unchanged); a failure here means np.cos
    # and math.cos differ on this host
    est = fejer_density(seq, order, grid_size)
    values, ratio, top_share = _fejer_per_theta(seq, order, grid_size)
    assert (list(est.values), est.max_mean_ratio, est.top_share) == (values, ratio, top_share)


def _criterion_9_product_table():
    """Criterion 9's table: c(k) c(3k) of thm2(2) E2 for k up to h_4."""
    params = thm2(2)
    e2 = LevelSet.base(params, 2)
    h4 = stage_geometry(params, 4).h
    table = correlations(e2, list(range(h4 + 1)) + [3 * k for k in range(h4 + 1)])
    return correlation_sequence({k: table.value(k) * table.value(3 * k) for k in range(h4 + 1)})


_SPARSE_TABLES = [
    *[pytest.param(lambda level=level: correlations(LevelSet.single(UTV, 2, level), range(2049)),
                   2049, id=f"utv1 T^{level}E2 n<2049") for level in range(4)],
    pytest.param(_criterion_9_product_table, 10**12, id="criterion 9 product table"),
]


@pytest.mark.parametrize("build,order", _SPARSE_TABLES)
def test_fejer_on_sparse_tables_equals_per_theta_loop(build, order):
    seq = build()
    zeros = sum(1 for _, c in seq.entries if c == 0)
    assert zeros > len(seq.entries) // 2
    est = fejer_density(seq, order, 24)
    values, ratio, top_share = _fejer_per_theta(seq, order, 24)
    assert (list(est.values), est.max_mean_ratio, est.top_share) == (values, ratio, top_share)


def test_fejer_computes_one_cosine_per_nonzero_shift(monkeypatch):
    """np.cos runs once per stored shift 0 < n < order whose float is not
    0.0: not for c(0), the zeros, a value below the float range, or shifts
    at or past the order."""
    counted = []
    cos = np.cos
    monkeypatch.setattr(np, "cos", lambda x: counted.append(1) or cos(x))
    seq = correlation_sequence({1: Fraction(1, 2), 2: 0, 3: 0, 5: Fraction(-1, 3),
                                7: Fraction(1, 4), 8: Fraction(1, 10**400), 10: Fraction(1, 8)})
    fejer_density(seq, 10, 16)
    assert len(counted) == 3
    counted.clear()
    # the dead zones leave 41 of these 2,049 values nonzero, c(0) among them
    fejer_density(correlations(E2, range(2049)), 2049, 16)
    assert len(counted) == 40


def test_fejer_converts_no_stored_zero_to_float(monkeypatch):
    """Only the stored shifts below the order whose exact value is not 0 are
    converted to float, c(0) and a value below the float range among them:
    never an exact zero, and never a shift at or past the order."""
    converted = []
    to_float = Fraction.__float__
    monkeypatch.setattr(Fraction, "__float__",
                        lambda self: converted.append(self) or to_float(self))
    seq = correlation_sequence({1: Fraction(1, 2), 2: 0, 3: 0, 5: Fraction(-1, 3),
                                7: Fraction(1, 4), 8: Fraction(1, 10**400), 9: 0,
                                10: Fraction(1, 8)})
    fejer_density(seq, 10, 16)
    assert converted == [1, Fraction(1, 2), Fraction(-1, 3), Fraction(1, 4),
                         Fraction(1, 10**400)]
    converted.clear()
    # 41 of these 2,049 values are nonzero, c(0) among them
    fejer_density(correlations(E2, range(2049)), 2049, 16)
    assert len(converted) == 41 and all(converted)


@pytest.mark.parametrize("order", [0, -1])
def test_toeplitz_rejects_orders_below_one(order):
    seq = correlation_sequence({0: Fraction(1)})
    with pytest.raises(ValueError, match="order"):
        toeplitz_min_eigenvalue(seq, order=order)


def test_toeplitz_section_is_positive_semidefinite():
    seq = correlations(E2, range(8))
    assert toeplitz_min_eigenvalue(seq, order=8) >= -1e-9


def test_zero_mass_base_set_rejected():
    with pytest.raises(ValueError):
        correlations(LevelSet.from_levels(UTV, 2, []), [1])
