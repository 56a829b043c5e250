import dataclasses
import math
import random

import numpy as np
import pytest

import eosieve.arith as arith
import eosieve.experiments as experiments
from eosieve.arith import is_squarefree, prime_array
from eosieve.errors import ConsistencyError
from eosieve.experiments import (
    _FSUM_CHUNK,
    Checkpoints,
    _admissible_counts,
    _pattern_counts,
    _reciprocal_fsum,
    _squarefree_window,
    _strike,
    alpha_density,
    alpha_density_target,
    exceptional_scan,
    logpower_fit,
    mertens_sum,
    pfree_counts_for_primes,
    pg_free_counts,
)
from eosieve.obstruction import obstruction_certificate
from eosieve.purefield import _index_pattern, _local_index_table, alpha_monogenic
from oracles import (
    admissible_counts_by_windows,
    count_squarefree_not_1_mod_4,
    pfree_count_inclusion_exclusion,
)


def test_checkpoints_validation():
    with pytest.raises(ValueError):
        Checkpoints(xs=(10, 100), counts=(1, 2), label="too short")
    with pytest.raises(ValueError):
        Checkpoints(xs=(10, 100, 50), counts=(1, 2, 3), label="not ascending")
    with pytest.raises(ValueError):
        Checkpoints(xs=(10, 100, 1000), counts=(5, 2, 3), label="decreasing counts")
    Checkpoints(xs=(10, 100, 1000), counts=(1, 2, 3), label="ok")


def test_pg_free_counts_checks_the_ladder_before_enumerating(monkeypatch):
    import eosieve.experiments as experiments

    def pg_table(*args):
        raise AssertionError("P_g enumerated before the ladder was checked")

    monkeypatch.setattr(experiments, "_pg_table", pg_table)
    with pytest.raises(ValueError, match="ascending"):
        pg_free_counts(4, 6, 10**12, [5, 3, 10**12])


def test_alpha_density_target_values():
    assert alpha_density_target(4) == pytest.approx(0.4052847345, abs=1e-9)
    assert alpha_density_target(6) == pytest.approx(0.3039635509, abs=1e-9)


def test_alpha_density_small_scale():
    rep = alpha_density(4, 10**3, [100, 500, 1000])
    assert abs(rep.densities[-1] - rep.target) / rep.target < 0.05
    # counts agree with a per-value recount through the public criterion
    from eosieve.arith import is_squarefree
    from eosieve.purefield import alpha_monogenic, binomial_irreducible

    direct = 0
    for m in range(-1000, 1001):
        if abs(m) <= 1 or not is_squarefree(m):
            continue
        if binomial_irreducible(4, m) and alpha_monogenic(4, m):
            direct += 1
    assert rep.checkpoints.counts[-1] == direct


# the g = 1 patterns of the local index tables are the criterion: n = 30
# tiles a period of 900 with three primes; at n = 210 the period 44100 is
# longer than the range
@pytest.mark.parametrize("n", [4, 6, 8, 9, 12, 30, 210])
def test_criterion_masks_match_alpha_monogenic(n):
    x_max = 2000
    sf = _squarefree_window(0, x_max + 1)
    pos, neg = (sf & np.resize(p, x_max + 1) for p in _index_pattern(n, 1, x_max))
    for k in range(2, x_max + 1):
        if is_squarefree(k):
            assert pos[k] == alpha_monogenic(n, k), (n, k)
            assert neg[k] == alpha_monogenic(n, -k), (n, -k)
        else:
            assert not pos[k] and not neg[k], (n, k)


# an int64 product of the local indices wraps at n = 48 and n = 60, and the
# largest local index is 2^63 at n = 64 and 3^40 at n = 81
@pytest.mark.parametrize("n", [4, 6, 12, 30, 48, 60, 64, 81])
def test_index_patterns_match_the_exact_product(n):
    tables = [_local_index_table(n, p) for p in arith.prime_divisors(n)]
    period = math.prod(len(t) for t in tables)
    products = [math.prod(t[r % len(t)] for t in tables) for r in range(period)]
    for g in set(products) - {0}:
        pos, neg = _index_pattern(n, g, period - 1)
        assert pos.tolist() == [products[r] == g for r in range(period)], (n, g)
        assert neg.tolist() == [products[-r % period] == g for r in range(period)], (n, g)


@pytest.mark.parametrize("n", [-4, 0, 1])
def test_range_scans_reject_degrees_below_2_first(n, monkeypatch):
    def tables(*args):
        raise AssertionError("local index tables read for a degree below 2")

    monkeypatch.setattr(experiments, "_index_pattern", tables)
    monkeypatch.setattr(experiments, "_index_values", tables)
    # the degree is checked before the ladder
    for scan in (alpha_density, exceptional_scan):
        with pytest.raises(ValueError, match="degree must be >= 2"):
            scan(n, 1000, [5, 3, 1000])


def test_alpha_density_equals_mod4_count():
    rep = alpha_density(4, 10**5, [10**3, 10**4, 10**5])
    assert rep.checkpoints.counts[-1] == count_squarefree_not_1_mod_4(10**5)


@pytest.mark.parametrize("n", [*range(2, 17), 24, 36, 48, 64, 210, 1000])
def test_moebius_counts_equal_the_windowed_counts(n):
    x = 10**5
    xs = (2, 3, 1000, 44099, 44100, 44101, x)
    patterns = _index_pattern(n, 1, x)
    assert _admissible_counts(patterns, xs) == admissible_counts_by_windows(patterns, xs)


def test_moebius_counts_of_arbitrary_patterns():
    # row sums of 0, 1 and 2 at periods with square factors, a prime period,
    # and a period longer than the range
    rng = np.random.default_rng(0)
    for period in (1, 2, 4, 12, 72, 97, 900, 3000):
        patterns = rng.random((2, period)) < 0.6
        xs = (2, 50, 499, 500, 2000)
        assert _admissible_counts(patterns, xs) == admissible_counts_by_windows(patterns, xs)


@pytest.mark.parametrize("n, period", [(6, 36), (210, 44100), (1000, 10**4)])
def test_moebius_counts_at_square_boundaries_and_a_truncated_period(n, period):
    # x = d^2 - 1, d^2, d^2 + 1: the d = sqrt(x) term enters; at x_max = 5000
    # a period longer than the range is cut at x_max + 1
    x_max = 5000
    patterns = _index_pattern(n, 1, x_max)
    assert patterns.shape[1] == min(period, x_max + 1)
    xs = (*sorted({d * d + e for d in (2, 3, 6, 30, 70) for e in (-1, 0, 1)}), x_max)
    assert _admissible_counts(patterns, xs) == admissible_counts_by_windows(patterns, xs)


def test_pattern_counts_below_2_are_zero():
    weights = np.ones(4, dtype=np.uint8)
    assert _pattern_counts(weights, [-1, 0, 1, 2, 3, 4]).tolist() == [0, 0, 0, 1, 2, 2]


@pytest.mark.parametrize("x_max", [10**4, 10**6])
def test_moebius_count_guard(x_max, monkeypatch):
    # a Moebius table that drops the d = 5 term changes every count by about
    # x/25, so the recounted window (at 0, and inside the range) disagrees;
    # at n = 6 a term d = 2 or 3 would add nothing, since the tables hold
    # only at squarefree classes
    mobius = experiments._mobius

    def without_5(limit):
        mu = mobius(limit)
        mu[5:6] = 0
        return mu

    monkeypatch.setattr(experiments, "_mobius", without_5)
    with pytest.raises(ConsistencyError, match="window recount"):
        alpha_density(6, x_max, [x_max // 100, x_max // 10, x_max])


def test_pg_free_trivial_class_counts_everything():
    cp = pg_free_counts(64, 6, 10**4, [10**2, 10**3, 10**4])
    assert cp.counts == (10**2, 10**3, 10**4)


def test_pfree_inclusion_exclusion_cross_check():
    # P_4 restricted to primes <= 50 is {13, 37}
    primes = [13, 37]
    cp = pfree_counts_for_primes(primes, 10**5, [10**3, 10**4, 10**5], "restricted")
    for x, count in zip(cp.xs, cp.counts):
        assert count == pfree_count_inclusion_exclusion(primes, x)
    assert pfree_count_inclusion_exclusion([], 50) == 50


def test_pfree_counts_accept_primes_in_any_order():
    xs = [10**3, 10**4, 10**5]
    ascending = pfree_counts_for_primes(np.array([13, 37, 61]), 10**5, xs, "P")
    assert pfree_counts_for_primes(np.array([61, 13, 37]), 10**5, xs, "P") == ascending
    assert pfree_counts_for_primes([37, 61, 13], 10**5, xs, "P") == ascending


def test_logpower_fit_recovers_synthetic_exponent():
    xs = (10**7, 10**8, 10**9, 10**10)
    counts = tuple(round(x / math.log(x) ** (1 / 6)) for x in xs)
    fit = logpower_fit(Checkpoints(xs=xs, counts=counts, label="synthetic"))
    assert abs(fit.exponent - 1 / 6) < 1e-6
    assert fit.constant == pytest.approx(1.0, abs=1e-6)
    assert fit.window == (10**7, 10**10)


def test_logpower_fit_degenerate_window():
    with pytest.raises(ValueError):
        logpower_fit(Checkpoints(xs=(100, 200, 400), counts=(10, 20, 30), label="narrow"))


def test_chunked_reciprocal_sum_equals_one_shot_fsum():
    primes = prime_array(4_500_000).astype("uint32")  # 315,948 primes: 20 chunks
    assert len(primes) > 10 * _FSUM_CHUNK
    for hi in (1, _FSUM_CHUNK - 1, _FSUM_CHUNK, 3 * _FSUM_CHUNK + 17, len(primes)):
        assert _reciprocal_fsum(primes[:hi]) == math.fsum(1.0 / primes[:hi]), hi
    assert _reciprocal_fsum(primes[:0]) == 0.0


def test_mertens_sums_nondecreasing():
    rep = mertens_sum(4, 6, 10**5, [10**3, 10**4, 10**5])
    assert all(b >= a for a, b in zip(rep.sums, rep.sums[1:]))
    assert rep.slope > 0


def test_exceptional_scan_small():
    rep = exceptional_scan(4, 2000, [100, 500, 2000])
    gs = {row.g for row in rep.rows}
    assert gs and all(g >= 2 for g in gs)
    for row in rep.rows:
        assert all(f <= t for f, t in zip(row.pg_free, row.totals))
        assert row.totals == tuple(sorted(row.totals))
    # index-1 parameters never appear
    assert all(g >= 2 for g, _, _ in rep.members)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.members = ()


def _sampled_radicands(n, x_max):
    """The radicands the exceptional scan saturates, by listing the signed
    2 <= |m| <= x_max, positives first, drawing from the list with repeats
    skipped and keeping the squarefree ones, 16 at most."""
    signed = [*range(2, x_max + 1), *range(-2, -x_max - 1, -1)]
    rng = random.Random(f"{n}:{x_max}")
    drawn, kept = set(), []
    while len(kept) < 16 and len(drawn) < len(signed):
        m = signed[rng.randrange(len(signed))]
        if m not in drawn:
            drawn.add(m)
            if all(m % (d * d) for d in range(2, math.isqrt(abs(m)) + 1)):
                kept.append(m)
    return kept


def _record_saturations(monkeypatch):
    sampled = []
    saturated_index = experiments._saturated_index

    def recording(n, p, m):
        sampled.append((m, p))
        return saturated_index(n, p, m)

    monkeypatch.setattr(experiments, "_saturated_index", recording)
    return sampled


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("window", [None, 37, 1000])
def test_exceptional_scan_samples_the_whole_range_draws(n, window, monkeypatch):
    x_max = 3000
    expected = _sampled_radicands(n, x_max)
    assert len(expected) == 16
    if window:
        monkeypatch.setattr(arith, "_WINDOW", window)
    sampled = _record_saturations(monkeypatch)
    exceptional_scan(n, x_max, [100, 1000, x_max])
    # each radicand is saturated at every prime dividing n
    assert sampled == [(m, p) for m in expected for p in arith.prime_divisors(n)]


@pytest.mark.parametrize("n", [4, 6])
def test_exceptional_scan_samples_every_radicand_of_a_tiny_range(n, monkeypatch):
    sampled = _record_saturations(monkeypatch)
    for x_max in range(4, 14):  # 2 to 16 signed radicands
        radicands = [m for m in range(-x_max, x_max + 1) if abs(m) >= 2 and is_squarefree(m)]
        assert len(radicands) <= 16
        sampled.clear()
        exceptional_scan(n, x_max, [2, 3, x_max])
        ms = [m for m, _ in sampled]
        assert sorted(set(ms)) == radicands, x_max
        # each saturated once at every prime dividing n, in the reference order
        expected = _sampled_radicands(n, x_max)
        assert sampled == [(m, p) for m in expected for p in arith.prime_divisors(n)]


def test_exceptional_scan_sample_guard(monkeypatch):
    import eosieve.purefield as purefield

    # g_2 of the classes 1 and 5 mod 8 swapped: still consistent with the
    # congruence criterion, and every class counts as confirmed already, so
    # only the sampled saturations can catch it
    monkeypatch.setattr(purefield, "_local_index_table", lambda n, p: (0, 4, 1, 1, 0, 8, 1, 1))
    monkeypatch.setattr(purefield, "_class_index", lambda n, p, r: (0, 4, 1, 1, 0, 8, 1, 1)[r])
    with pytest.raises(ConsistencyError, match="p=2 for n=4.*saturation of m = "):
        exceptional_scan(4, 2000, [100, 500, 2000])


def test_exceptional_scan_sample_guard_at_each_prime(monkeypatch):
    import eosieve.purefield as purefield

    # at n = 6 the p = 3 entries of the classes 1 and 2 mod 9 swapped, the
    # p = 2 table intact, and every class counted as confirmed: only the
    # sample's saturation at p = 3 can catch it
    table = purefield._local_index_table

    def swapped(n, p, r=None):
        t = table(n, p)
        if (n, p) == (6, 3):
            t = (t[0], t[2], t[1], *t[3:])
        return t if r is None else t[r]

    assert table(6, 3)[1:3] == (9, 1)
    monkeypatch.setattr(purefield, "_local_index_table", swapped)
    monkeypatch.setattr(purefield, "_class_index", swapped)
    with pytest.raises(ConsistencyError, match="p=3 for n=6.*saturation of m = "):
        exceptional_scan(6, 2000, [100, 500, 2000])


def test_exceptional_scan_confirms_classes_before_scanning(monkeypatch):
    import eosieve.purefield as purefield

    formula = purefield._closed_form
    purefield._class_index.cache_clear()
    # g_2 of the classes 1 and 5 mod 8 swapped at n = 4 in the closed form
    monkeypatch.setattr(
        purefield,
        "_closed_form",
        lambda n, p, r: formula(n, p, 6 - r if (n, p) == (4, 2) and r in (1, 5) else r),
    )
    purefield._local_index_table.cache_clear()
    try:
        with pytest.raises(ConsistencyError, match="saturation of m = "):
            exceptional_scan(4, 2000, [100, 500, 2000])
    finally:
        purefield._local_index_table.cache_clear()


@pytest.mark.parametrize("n", [4, 6])
def test_exceptional_members_match_certificates(n):
    rep = exceptional_scan(n, 3000, [100, 1000, 3000])
    rng = random.Random(99)
    sample = rng.sample(list(rep.members), min(100, len(rep.members)))
    for g, m, free in sample:
        cert = obstruction_certificate(n, m)
        if free:
            assert cert is None, (g, m)
        else:
            assert cert is not None and cert.g == g, (g, m)


def test_exceptional_scan_saturates_once_per_class_plus_the_sample(monkeypatch):
    import eosieve.purefield as purefield

    purefield._class_index.cache_clear()
    calls = []
    saturate = purefield.p_saturate

    def counting(order, p):
        calls.append(order.poly)
        return saturate(order, p)

    monkeypatch.setattr(purefield, "p_saturate", counting)
    exceptional_scan(13, 300, [50, 100, 300])
    classes = 13**2 - 1  # residues mod 13^2 that hold a squarefree radicand
    assert purefield._class_index.cache_info().currsize == classes
    assert len(calls) <= classes + 16
    calls.clear()
    exceptional_scan(13, 300, [50, 100, 300])  # every class is confirmed already
    assert len(calls) <= 16


def _naive_strike(lo, hi, moduli):
    mask = np.ones(hi - lo, dtype=bool)
    for d in moduli:
        for k in range(max(d, -(-lo // d) * d), hi, d):
            mask[k - lo] = False
    return mask


@pytest.mark.parametrize("kind", ["primes", "squares"])
def test_strike_matches_naive_marking(kind, monkeypatch):
    window = 512
    monkeypatch.setattr(arith, "_WINDOW", window)
    rng = random.Random(kind)
    primes = prime_array(20000).tolist()
    both_paths = 0
    for _ in range(80):
        if kind == "primes":  # dense: most primes, up past the window
            moduli = {q for q in primes[:600] if rng.random() < 0.7}
        else:  # sparse: a few prime squares
            moduli = {q * q for q in rng.sample(primes[:40], rng.randrange(1, 20))}
        moduli |= set(rng.sample([window - 1, window, window + 1, 2 * window], 2))
        moduli = sorted(moduli)
        # windows whose first or last entry is a multiple of one modulus
        d, j = rng.choice(moduli[len(moduli) // 2 :]), rng.randrange(1, 6)
        lo = rng.choice([0, 1, rng.randrange(2, 6000), j * d])
        hi = rng.choice([lo + rng.randrange(1, 3 * window), max(lo, j * d) + 1])
        below = [d for d in moduli if d < window]
        split = sum(experiments._SLICE_COST * i * d < hi for i, d in enumerate(below))
        both_paths += 0 < split < len(moduli)
        want = _naive_strike(lo, hi, moduli)
        for dtype in (np.int64, np.uint32):
            mask = np.ones(hi - lo, dtype=bool)
            _strike(mask, lo, np.array(moduli, dtype=dtype))
            assert mask.tolist() == want.tolist(), (lo, hi, moduli, dtype)
    assert both_paths >= 40
