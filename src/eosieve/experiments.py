"""Desk-scale density and sieve experiments.

Counts are exact: squarefree status and the index g(m) are read off
residue tables and quadratic sieves, P-freeness is decided by marking
multiples of the obstruction primes, and the only floating point enters in
the final density ratios and fits.  The pattern of g(m) = g, the criterion
(g = 1) included, is purefield._index_pattern, periodic in |m| with period
L = n rad(n), guarded there and by a seeded sample of radicands, drawn
from the integers of the range and kept when squarefree, checked against
saturation at every p | n in every exceptional scan.

alpha-density only counts, and counts without enumerating: the squarefree
k <= X at which the pattern holds come from a Moebius sum over d <= sqrt(X)
in O(sqrt(X L)) steps (_pattern_counts), checked against one seeded window
recounted by sieving.  The scans that test each radicand run window by
window (arith._WINDOW integers at a time): the squarefree mask strikes
prime squares inside the window, the index mask is the window's slice of
the pattern, P-freeness strikes the multiples of the obstruction primes
inside the window, and the per-window counts at the checkpoints are added
up; the exceptional scan does so once per index value g, holding one P_g at
a time.  Memory does not grow with the range beyond the obstruction primes
themselves.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from . import arith
from .arith import _tiled_windows, _windows, is_squarefree, prime_array, prime_divisors
from .errors import ConsistencyError
from .obstruction import _pg_table
from .purefield import _index_pattern, _index_values, _saturated_index

__all__ = [
    "AlphaDensityReport",
    "Checkpoints",
    "ExceptionalRow",
    "ExceptionalScanReport",
    "FitResult",
    "MertensReport",
    "alpha_density",
    "alpha_density_target",
    "exceptional_scan",
    "logpower_fit",
    "mertens_sum",
    "pfree_counts_for_primes",
    "pg_free_counts",
]


@dataclass(frozen=True)
class Checkpoints:
    """Cumulative counts at an ascending ladder of thresholds."""

    xs: tuple[int, ...]
    counts: tuple[int, ...]
    label: str

    def __post_init__(self):
        if len(self.xs) != len(self.counts) or len(self.xs) < 3:
            raise ValueError("need at least 3 matching checkpoints")
        if any(b <= a for a, b in zip(self.xs, self.xs[1:])):
            raise ValueError("thresholds must be strictly ascending")
        if any(b < a for a, b in zip(self.counts, self.counts[1:])):
            raise ValueError("cumulative counts must be nondecreasing")
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be nonnegative")


@dataclass(frozen=True)
class FitResult:
    exponent: float
    constant: float
    rms_residual: float
    window: tuple[int, int]


@dataclass(frozen=True)
class AlphaDensityReport:
    n: int
    checkpoints: Checkpoints
    densities: tuple[float, ...]
    target: float


@dataclass(frozen=True)
class MertensReport:
    g: int
    N: int
    xs: tuple[int, ...]
    sums: tuple[float, ...]
    slope: float
    intercept: float


@dataclass(frozen=True)
class ExceptionalRow:
    g: int
    totals: tuple[int, ...]
    pg_free: tuple[int, ...]

    @property
    def ratios(self) -> tuple[float, ...]:
        return tuple(
            (f / t) if t else float("nan") for f, t in zip(self.pg_free, self.totals)
        )


@dataclass(frozen=True)
class ExceptionalScanReport:
    n: int
    xs: tuple[int, ...]
    rows: tuple[ExceptionalRow, ...]
    x_max: int

    @functools.cached_property
    def members(self) -> tuple[tuple[int, int, bool], ...]:
        """(g, signed m, is P_g-free) for every radicand of index g > 1, by g,
        then |m|, then m.  Built on first read by a second pass over the
        scan's windows; the counts in rows never need it."""
        members = []
        for row in self.rows:
            for lo, (pos, neg), free in _index_windows(self.n, self.x_max, row.g):
                ms = np.concatenate([-lo - np.flatnonzero(neg), lo + np.flatnonzero(pos)])
                ms = ms[np.lexsort((ms, np.abs(ms)))]
                flags = free[np.abs(ms) - lo].tolist()
                members.extend((row.g, m, f) for m, f in zip(ms.tolist(), flags))
        return tuple(members)

    def row(self, g: int) -> ExceptionalRow:
        for r in self.rows:
            if r.g == g:
                return r
        raise KeyError(f"no index value g={g} observed in the scan")


def _validate_checkpoints(xs, x_max: int) -> tuple[int, ...]:
    xs = tuple(int(x) for x in xs)
    if len(xs) < 3:
        raise ValueError("need at least 3 checkpoints")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("checkpoints must be strictly ascending")
    if xs[0] < 2 or xs[-1] > x_max:
        raise ValueError("checkpoints must lie in [2, x_max]")
    return xs


def _count_upto(sorted_ints: np.ndarray, keys) -> np.ndarray:
    """How many entries of the ascending integer array are <= each key.

    The keys are clamped into the array's dtype, which changes no count: a
    key of a wider dtype would make numpy convert the whole array per call.
    """
    info = np.iinfo(sorted_ints.dtype)
    keys = np.clip(keys, info.min, info.max).astype(sorted_ints.dtype)
    return np.searchsorted(sorted_ints, keys, side="right")


# Cost of one slice in _strike relative to one multiplier step.  Slicing the
# first i moduli leaves hi // d_i multiplier steps, and the total
# i * _SLICE_COST + hi / d_i is least about where i * d_i = hi / _SLICE_COST,
# so the split follows the density of the moduli and grows with hi (for P_4
# at N = 6: 1,500 of the 49,270 moduli below 2^22 are sliced in the first
# window, 20,505 in the window ending at 10^9).  Striking P_4 up to 3 * 10^8
# takes within 20% of the same time for any value from 0.03 to 1.
_SLICE_COST = 0.03


def _strike(mask: np.ndarray, lo: int, moduli: np.ndarray) -> None:
    """Clear mask[k - lo] at every positive multiple k of the ascending moduli
    inside the window lo <= k < hi = lo + len(mask).

    The first moduli are struck with one slice each, up to the split set by
    _SLICE_COST (never at or past arith._WINDOW).  The rest are struck
    together, one multiplier j at a time: j * d lies in the window exactly
    when d lies in [lo/j, hi/j), a slice of the ascending moduli, and every
    j from 1 to (hi - 1) // d_split gets its bounds from one searchsorted.
    """
    hi = lo + len(mask)
    below = moduli[: _count_upto(moduli, [arith._WINDOW - 1])[0]].astype(np.int64)
    split = int(np.count_nonzero(_SLICE_COST * np.arange(len(below)) * below < hi))
    small = below[:split]
    starts = np.maximum(-(-lo // small), 1) * small
    for k, d in zip((starts - lo).tolist(), small.tolist()):
        mask[k::d] = False
    large = moduli[split:]
    if not len(large):
        return
    js = np.arange(1, (hi - 1) // int(large[0]) + 1)
    firsts = _count_upto(large, max(lo - 1, 0) // js)
    lasts = _count_upto(large, (hi - 1) // js)
    for j, a, b in zip(js.tolist(), firsts.tolist(), lasts.tolist()):
        if a < b:
            mask[j * large[a:b].astype(np.int64) - lo] = False


def _squarefree_window(lo: int, hi: int) -> np.ndarray:
    """mask[k - lo] says |m| = k is admissible (k >= 2 and squarefree), lo <= k < hi."""
    mask = np.ones(hi - lo, dtype=bool)
    mask[: max(0, 2 - lo)] = False
    ps = prime_array(math.isqrt(hi - 1))
    _strike(mask, lo, ps * ps)
    return mask


def _pfree_window(primes: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """free[k - lo] says k >= 1 has no divisor among the ascending primes, lo <= k < hi."""
    free = np.ones(hi - lo, dtype=bool)
    free[: max(0, 1 - lo)] = False
    _strike(free, lo, primes[: _count_upto(primes, [hi - 1])[0]])
    return free


def _radicand_windows(patterns: np.ndarray, x_max: int):
    """Per window of 0 <= k <= x_max: lo, hi and, for each row of the periodic
    patterns (one period of 0 <= k <= x_max, as from _index_pattern), the mask of
    the squarefree k >= 2 at which it holds."""
    for lo, hi, tiles in _tiled_windows(patterns, 0, x_max + 1):
        sf = _squarefree_window(lo, hi)
        masks = [sf & tile for tile in tiles[1:]]
        sf &= tiles[0]  # the first mask is sf itself
        yield lo, hi, [sf, *masks]
        del sf, masks  # not held while the next window is built


def _window_counts(mask: np.ndarray, lo: int, xs: tuple[int, ...]) -> np.ndarray:
    """For each checkpoint x, the set entries of the window mask at k <= x."""
    hi = lo + len(mask)
    a, b = np.searchsorted(xs, [lo, hi])
    counts = np.zeros(len(xs), dtype=np.int64)
    counts[a:b] = [np.count_nonzero(mask[: x + 1 - lo]) for x in xs[a:b]]
    counts[b:] = np.count_nonzero(mask)
    return counts


def _mobius(limit: int) -> np.ndarray:
    """mu(d) for 0 <= d <= limit as int8 (mu(0) = 0), sieved over prime_array.

    A prime p <= sqrt(limit) flips its multiples and clears those of p^2 with
    two slices; the multiples k * p of the larger primes have k < sqrt(limit)
    and are flipped one k at a time, all such p at once.
    """
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    ps = prime_array(limit)
    root = math.isqrt(limit)
    for p in ps[ps <= root].tolist():
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    large = ps[ps > root]
    ks = np.arange(1, root + 1)
    for k, count in zip(ks.tolist(), _count_upto(large, limit // ks).tolist()):
        mu[k * large[:count]] *= -1
    return mu


# Leftover terms per block in _pattern_counts: each of the block's few int64
# temporaries takes half the bytes of one arith._WINDOW of bools
_GATHER_BLOCK = 1 << 18


def _pattern_counts(weights: np.ndarray, xs) -> np.ndarray:
    """For each x in xs, the sum of weights[k % L] over the squarefree
    2 <= k <= x (0 for x < 2), with L = len(weights).

    By Moebius inversion over the squares d^2 <= x, the sum over squarefree
    1 <= k <= x is sum_d mu(d) sum_{1 <= j <= x/d^2} weights[d^2 j mod L].
    With g = gcd(d^2, L) and P = L/g, j -> d^2 j mod L has period P and one
    period meets each multiple of g once, so the floor(J/P) full periods add
    weights[::g].sum() each.  The J mod P leftover terms, sum_d min(P, x/d^2)
    <= about 2 sqrt(x L) of them, are gathered for all d at once in blocks of
    _GATHER_BLOCK and read off a running prefix sum: the cost is O(sqrt(x L))
    and no table of size L x L is built.  A leftover index d^2 j mod L is
    formed from a residue and a j below L, which int64 holds for L < 3 * 10^9.
    """
    xs = np.maximum(np.asarray(xs, dtype=np.int64), 0)
    period = len(weights)
    mu = _mobius(math.isqrt(int(xs.max())))
    ds = np.flatnonzero(mu)
    steps = ds * ds % period
    g = np.gcd(steps, period)
    per_period = {v: int(weights[::v].sum()) for v in set(g.tolist())}
    full, rest = np.divmod(xs // (ds * ds)[:, None], (period // g)[:, None])
    totals = full * np.array([per_period[v] for v in g.tolist()], dtype=np.int64)[:, None]
    # the leftover terms j = 1, 2, ... of each d, laid end to end, d after d
    lengths = rest.max(axis=1)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    total = int(lengths.sum())
    queries = np.concatenate([starts, (starts[:, None] + rest).ravel()])
    prefix = np.zeros(len(queries), dtype=np.int64)  # weights gathered before each query
    done = 0
    for lo in range(0, total, _GATHER_BLOCK):
        hi = min(lo + _GATHER_BLOCK, total)
        first, last = np.searchsorted(ends, lo, side="right"), np.searchsorted(starts, hi)
        taken = np.minimum(ends[first:last], hi) - np.maximum(starts[first:last], lo)
        js = np.arange(lo, hi) - np.repeat(starts[first:last] - 1, taken)
        run = np.cumsum(weights[np.repeat(steps[first:last], taken) * js % period])
        inside = (lo <= queries) & (queries < hi)
        prefix[inside] = done + np.concatenate(([0], run))[queries[inside] - lo]
        done += int(run[-1])
    prefix[queries == total] = done
    totals += prefix[len(ds) :].reshape(rest.shape) - prefix[: len(ds), None]
    sums = (mu[ds].astype(np.int64)[:, None] * totals).sum(axis=0)
    return sums - int(weights[1 % period]) * (xs >= 1)  # k = 1 is not admissible


def _admissible_counts(patterns, xs: tuple[int, ...]) -> tuple[int, ...]:
    """Checkpoint counts of the squarefree k >= 2 at which a pattern holds,
    summed over the rows of the patterns (one per sign of m), by
    _pattern_counts over the row sums.

    Guard: one seeded window of min(2^16, x + 1) consecutive k, x the last
    checkpoint, is recounted with _squarefree_window and the tiled patterns;
    a count that differs from the difference of two formula counts raises
    ConsistencyError.
    """
    period = patterns.shape[1]
    x = xs[-1]
    size = min(1 << 16, x + 1)
    lo = random.Random(f"{period}:{x}").randrange(x + 2 - size)
    weights = patterns.sum(axis=0, dtype=np.uint8)
    counts = _pattern_counts(weights, (*xs, lo - 1, lo + size - 1))
    window = _squarefree_window(lo, lo + size)
    recount = int(weights[(lo + np.flatnonzero(window)) % period].sum())
    if recount != counts[-1] - counts[-2]:
        raise ConsistencyError(
            f"squarefree pattern counts give {counts[-1] - counts[-2]} on "
            f"[{lo}, {lo + size}) (period {period}); the window recount gives {recount}"
        )
    return tuple(counts[:-2].tolist())


def alpha_density_target(n: int) -> float:
    """(6 / pi^2) * prod over p | n of p / (p + 1)."""
    t = 6.0 / math.pi**2
    for p in prime_divisors(n):
        t *= p / (p + 1)
    return t


def alpha_density(n: int, x_max: int, checkpoints) -> AlphaDensityReport:
    """Two-sided density of radicands whose power order is maximal.

    Counts m with |m| <= X, squarefree (hence irreducible at these degrees)
    and of index 1, which is the congruence criterion at every p | n, by the
    Moebius sum of _admissible_counts in O(sqrt(X L)) steps for the period
    L = n rad(n) of the criterion, listing no radicand; densities are
    counts / (2X).
    """
    if n < 2:
        raise ValueError("degree must be >= 2")
    xs = _validate_checkpoints(checkpoints, x_max)
    counts = _admissible_counts(_index_pattern(n, 1, x_max), xs)
    cp = Checkpoints(xs=xs, counts=counts, label=f"alpha-monogenic n={n}")
    densities = tuple(c / (2 * x) for c, x in zip(counts, xs))
    return AlphaDensityReport(n=n, checkpoints=cp, densities=densities, target=alpha_density_target(n))


def pfree_counts_for_primes(primes, x_max: int, checkpoints, label: str) -> Checkpoints:
    """Counts of 1 <= m <= X untouched by the given primes, by multiple-marking."""
    xs = _validate_checkpoints(checkpoints, x_max)
    if not isinstance(primes, np.ndarray):
        primes = np.array(list(primes), dtype=np.int64)
    if np.any(primes[1:] < primes[:-1]):  # an ascending P_g table needs no sorted copy
        primes = np.sort(primes)
    counts = np.zeros(len(xs), dtype=np.int64)
    for lo, hi in _windows(0, xs[-1] + 1):
        counts += _window_counts(_pfree_window(primes, lo, hi), lo, xs)
    return Checkpoints(xs=xs, counts=tuple(counts.tolist()), label=label)


def pg_free_counts(g: int, N: int, x_max: int, checkpoints) -> Checkpoints:
    """Counts of 1 <= m <= X with no prime factor in P_g.

    Freeness is decided by marking, window by window, the multiples of every
    obstruction prime up to x_max, not by factoring individual integers.
    """
    xs = _validate_checkpoints(checkpoints, x_max)  # before enumerating P_g up to x_max
    return pfree_counts_for_primes(_pg_table(g, N, x_max)[1], x_max, xs, f"P_{g}-free (N={N})")


def logpower_fit(cp: Checkpoints) -> FitResult:
    """Least-squares fit of log(count/X) = log(kappa) - delta * log log X."""
    xs = np.array(cp.xs, dtype=float)
    counts = np.array(cp.counts, dtype=float)
    if len(xs) < 3 or xs[-1] < 100 * xs[0]:
        raise ValueError("fit window must have >= 3 checkpoints spanning >= 2 decades")
    if np.any(counts <= 0):
        raise ValueError("fit requires positive counts at every checkpoint")
    u = np.log(np.log(xs))
    y = np.log(counts / xs)
    slope, intercept = np.polyfit(u, y, 1)
    resid = y - (slope * u + intercept)
    return FitResult(
        exponent=float(-slope),
        constant=float(math.exp(intercept)),
        rms_residual=float(np.sqrt(np.mean(resid**2))),
        window=(cp.xs[0], cp.xs[-1]),
    )


# Entries per chunk fed to math.fsum by _reciprocal_fsum: a chunk's list of
# Python floats takes about 32 bytes an entry
_FSUM_CHUNK = 1 << 14


def _reciprocal_fsum(values: np.ndarray) -> float:
    """math.fsum of 1/v over an integer array, fed in _FSUM_CHUNK chunks.

    fsum rounds the exact sum once, over any iterable, so the result is that
    of one call over the whole array, without a float64 copy of it.  float64
    division of v < 2^53 rounds exactly as Python's 1.0 / v.
    """
    chunks = range(0, len(values), _FSUM_CHUNK)
    return math.fsum(
        itertools.chain.from_iterable(
            (1.0 / values[i : i + _FSUM_CHUNK]).tolist() for i in chunks
        )
    )


def mertens_sum(g: int, N: int, x_max: int, checkpoints) -> MertensReport:
    """Partial sums of 1/q over q in P_g, with the slope against log log X.

    Each partial sum is accumulated with math.fsum, which rounds the exact
    sum to the nearest double.
    """
    xs = _validate_checkpoints(checkpoints, x_max)
    pg = _pg_table(g, N, x_max)[1]
    sums = [_reciprocal_fsum(pg[:hi]) for hi in _count_upto(pg, xs)]
    u = np.log(np.log(np.array(xs, dtype=float)))
    slope, intercept = np.polyfit(u, np.array(sums), 1)
    return MertensReport(
        g=g, N=N, xs=xs, sums=tuple(sums), slope=float(slope), intercept=float(intercept)
    )


def _scan_sample_check(n: int, x_max: int) -> None:
    """Seeded cross-check of the local index tables against direct saturation.

    Draws i = rng.randrange(2 * (x_max - 1)) with random.Random(f"{n}:{x_max}"),
    which is m = i + 2 for i < x_max - 1 and m = -(i - x_max + 3) otherwise,
    so 2 <= |m| <= x_max; skips repeats and keeps each squarefree m, until 16
    are kept or every m has been drawn: a uniform sample without replacement
    of the radicands of both signs, found without ranking them.  Each kept m
    is checked at every prime p | n against its table entry
    (_saturated_index, since the index of Z[alpha] in its p-saturation is
    the p-part of g(m)); raises ConsistencyError when the pattern the scan
    tiles for the product g does not hold at |m|.
    """
    rng = random.Random(f"{n}:{x_max}")
    size = 2 * (x_max - 1)
    drawn: set[int] = set()
    checked = 0
    while checked < 16 and len(drawn) < size:
        i = rng.randrange(size)
        if i in drawn:
            continue
        drawn.add(i)
        m = i + 2 if i < x_max - 1 else -(i - x_max + 3)
        if not is_squarefree(m):
            continue
        checked += 1
        g = math.prod(_saturated_index(n, p, m) for p in prime_divisors(n))
        pos, neg = _index_pattern(n, g, x_max)
        pattern = neg if m < 0 else pos
        if not pattern[abs(m) % len(pattern)]:
            raise ConsistencyError(
                f"local index tables exclude n={n}, m={m} from index {g}; saturation gives {g}"
            )


def _index_windows(n: int, x_max: int, g: int):
    """Per window of 0 <= k <= x_max: lo, the masks of the k at which m = k
    and m = -k are radicands (squarefree, k >= 2) of index g, and the P_g-free
    mask.  P_g is empty at N = n(n-1)/2 < 2 (n = 2), where every radicand is
    P_g-free."""
    N = n * (n - 1) // 2
    pg = _pg_table(g, N, x_max)[1] if N >= 2 else np.empty(0, dtype=np.uint32)
    for lo, hi, radicands in _radicand_windows(_index_pattern(n, g, x_max), x_max):
        yield lo, radicands, _pfree_window(pg, lo, hi)


def exceptional_scan(n: int, x_max: int, checkpoints) -> ExceptionalScanReport:
    """Per-index table of P_g-free radicands against all radicands of that index.

    Scans squarefree m with 2 <= |m| <= x_max over both signs.  The index
    values are the products of local index table entries over p | n
    (purefield._index_values), known before the scan, and each g > 1 is
    folded over the windows in turn (_index_windows).  Three guards raise
    ConsistencyError: each table must agree with the congruence criterion at
    every residue, every residue class is confirmed by saturating one member
    before the scan (once per process), and each of 16 seeded radicands per
    scan is saturated at every p | n against its table entry, with the
    pattern of the product holding at it.
    A radicand of index g is P_g-free when no multiple-marking pass over the
    primes of P_g up to x_max touches |m|.
    """
    if n < 2:
        raise ValueError("degree must be >= 2")
    xs = _validate_checkpoints(checkpoints, x_max)
    values = _index_values(n)
    _scan_sample_check(n, x_max)
    ends = (*xs, x_max)  # the count at x_max says whether g occurs at all
    rows = []
    for g in values:
        totals = pg_free = 0
        for lo, radicands, free in _index_windows(n, x_max, g):
            totals += sum(_window_counts(s, lo, ends) for s in radicands)
            pg_free += sum(_window_counts(s & free, lo, ends) for s in radicands)
            del radicands, free  # not held while the next window is built
        if totals[-1]:
            totals, pg_free = (tuple(c[:-1].tolist()) for c in (totals, pg_free))
            rows.append(ExceptionalRow(g=g, totals=totals, pg_free=pg_free))
    return ExceptionalScanReport(n=n, xs=xs, rows=tuple(rows), x_max=x_max)
