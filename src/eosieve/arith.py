"""Exact integer and modular arithmetic primitives.

Everything is computed with plain Python integers: trial division against a
cached prime table, deterministic Miller-Rabin for cofactors that outlive the
trial bound or that a walk proves prime early, and the usual modular
helpers.  All functions are pure; the prime table is grown monotonically
and never mutated in place, and the list of the primes below 2^16 drawn
from it is built once, so both are safe to share across threads and
processes.

Primes come from one segmented sieve (Bays and Hudson, BIT 1977):
_progression_mask marks the primes of a progression a mod M inside a
window of its terms, striking with base primes up to the square root of the
window's top taken from the prime table, one cache-sized block of the window
at a time, and _progression_primes lists them.  The table grows in doubling
steps, window by window over the odd progression; range scans sieve their
own progressions (1 mod 2N for the obstruction primes) window by window and
never hold more than one window of a range.  A scan that only counts primes
(the thin family) reads the masks and lists nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import FactorizationError

__all__ = [
    "Factorization",
    "euler_phi",
    "factorize",
    "integer_nth_root",
    "is_nth_power_residue",
    "is_probable_prime",
    "is_squarefree",
    "mod_pow",
    "perfect_power_decompose",
    "pow_mod",
    "prime_array",
    "prime_divisors",
    "prime_sieve",
    "squarefree_kernel",
    "vp",
]

# Trial division never walks past this bound; beyond it, a cofactor must
# pass is_probable_prime (directly or as a prime square or cube) or we refuse.
_TRIAL_LIMIT = 10**6

# The range layer works in windows of this many consecutive terms (of a
# progression, or of the integers), so its memory does not grow with the range.
_WINDOW = 1 << 22

# A window is struck block by block, each of this many terms (1 MiB of
# bools), so that the block stays in a core's L2 cache while every base
# prime strikes it; a 4 MiB window does not.
_SIEVE_BLOCK = 1 << 20

_prime_cache = np.empty(0, dtype=np.int64)
_prime_cache_limit = 1

# Trial division walks the primes below _SMALL as Python ints, from this list
# (built once, on the first walk), and the larger ones on the prime table.
_SMALL = 1 << 16
_small_primes: list[int] = []

# The walk over the small primes runs in chunks of _FIRST_CHUNK primes,
# doubling up to _CHUNK_CAP; the end of a chunk is where it may stop early.
_FIRST_CHUNK = 128
_CHUNK_CAP = 1024

# psi_13 of Sorenson and Webster: is_probable_prime is a proof below it.
_PSI_13 = 3317044064679887385961981


def _windows(start: int, stop: int):
    """Consecutive half-open windows [lo, hi) of at most _WINDOW covering [start, stop)."""
    for lo in range(start, stop, _WINDOW):
        yield lo, min(lo + _WINDOW, stop)


def _tiled_windows(pattern: np.ndarray, start: int, stop: int):
    """Per window [lo, hi) of _windows(start, stop): lo, hi and the window's
    slice of the pattern (last axis, from index 0) repeated along [0, stop).
    The pattern is tiled once to a window plus a period."""
    period = pattern.shape[-1]
    ext = np.tile(pattern, -(-min(_WINDOW, stop - start) // period) + 1)
    for lo, hi in _windows(start, stop):
        yield lo, hi, ext[..., lo % period : lo % period + hi - lo]


def _progression_mask(a: int, M: int, k0: int, k1: int) -> np.ndarray:
    """mask[k - k0] says a + M*k is prime, for k0 <= k < k1.

    Requires 0 <= a < M and gcd(a, M) = 1.  Each base prime p <= sqrt(top)
    not dividing M strikes the terms divisible by p from p^2 on, so a base
    prime that lies in the progression is kept; base primes dividing M
    divide no term and strike nothing.  The term 1 is not prime.

    The window is struck in blocks of _SIEVE_BLOCK terms.  Before each
    block, one numpy step rebases every prime's first strike in the window
    to its first strike at or after the block's start; a strike past the
    block's end is an empty slice.
    """
    if k1 <= k0:
        return np.zeros(0, dtype=bool)
    is_prime = np.ones(k1 - k0, dtype=bool)
    if k0 == 0 and a < 2:
        is_prime[0] = False
    ps = prime_array(math.isqrt(a + M * (k1 - 1)))
    ps = ps[M % ps != 0]
    # a + M*k = 0 mod p  <=>  k = -a / M mod p; start at p^2 or at k0
    roots = (-a % ps) * pow_mod(M % ps, ps - 2, ps).astype(np.int64) % ps
    first = np.maximum(k0, -((a - ps * ps) // M))
    first += (roots - first) % ps
    first -= k0
    steps = ps.tolist()
    for b0 in range(0, k1 - k0, _SIEVE_BLOCK):
        block = is_prime[b0 : b0 + _SIEVE_BLOCK]
        # a strike before the block moves on to its next multiple of p
        starts = np.maximum(first - b0, (first - b0) % ps)
        for k, p in zip(starts.tolist(), steps):
            block[k::p] = False
    return is_prime


def _progression_primes(a: int, M: int, lo: int, hi: int):
    """The primes q = a mod M with lo <= q < hi, ascending, one int64 array
    per window of at most _WINDOW terms of the progression."""
    k0 = max(0, -((a - lo) // M))
    k1 = max(k0, -((a - hi) // M))
    for w0, w1 in _windows(k0, k1):
        yield a + M * (w0 + np.flatnonzero(_progression_mask(a, M, w0, w1)))


def _ensure_primes(limit: int) -> None:
    """Grow the prime table to cover limit, at least doubling it.

    The new primes come window by window from the odd progression, after
    2 on a cold start; its base primes are read from the table itself,
    grown first when sqrt(limit) exceeds it, so a cold start recurses down
    through square roots.
    """
    global _prime_cache, _prime_cache_limit
    if limit <= _prime_cache_limit:
        return
    limit = max(limit, 2 * _prime_cache_limit)
    lo = _prime_cache_limit + 1
    two = [np.array([2], dtype=np.int64)] if lo <= 2 else []
    primes = np.concatenate([_prime_cache, *two, *_progression_primes(1, 2, lo, limit + 1)])
    primes.setflags(write=False)
    _prime_cache = primes
    _prime_cache_limit = limit


def prime_array(limit: int) -> np.ndarray:
    """Primes in [2, limit] as a read-only ascending int64 array."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    _ensure_primes(limit)
    hi = np.searchsorted(_prime_cache, limit, side="right")
    return _prime_cache[:hi]


def _g_mod(g: int, qs: np.ndarray) -> np.ndarray:
    """g >= 0 mod each q of a uint64 array of q < 2^32, by Horner's rule over
    the 31-bit limbs of g."""
    g_mod = np.zeros_like(qs)
    for shift in range(31 * ((g.bit_length() - 1) // 31), -1, -31):
        limb = np.uint64((g >> shift) & ((1 << 31) - 1))
        g_mod = ((g_mod << np.uint64(31)) + limb) % qs
    return g_mod


def prime_sieve(limit: int) -> list[int]:
    """All primes in [2, limit], ascending.  ``limit < 2`` gives []."""
    return [int(p) for p in prime_array(limit)]


@dataclass(frozen=True)
class Factorization:
    """A signed prime factorization: sign * prod(p**e) == value."""

    value: int
    factors: tuple[tuple[int, int], ...]
    sign: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        prev = 1
        n = 1
        for p, e in self.factors:
            if p <= prev:
                raise ValueError("primes must be strictly increasing")
            if e < 1:
                raise ValueError("exponents must be positive")
            prev = p
            n *= p**e
        if self.sign * n != self.value:
            raise ValueError("factors do not recompose to value")

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin to the 13 prime bases up to 41.

    Exact for n < psi_13 = 3317044064679887385961981, about 3.317e24: no
    composite below it is a strong pseudoprime to all of these bases
    (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _trial_walk(n: int, factors: list[tuple[int, int]]) -> tuple[int, bool]:
    """Divide out of n >= 1, into factors, each prime p <= _TRIAL_LIMIT with
    p^2 <= the cofactor left; return the cofactor and whether the walk
    proved it prime.

    The primes below _SMALL are walked one by one, in chunks of
    _FIRST_CHUNK primes doubling up to _CHUNK_CAP; the larger ones one
    window of the prime table at a time, its top doubling, by one numpy
    remainder per window (_g_mod), so the table grows only as far as the
    walk reaches.  At the end of a chunk or window reaching p, a cofactor
    not tested before, below psi_13 and above 16 p^2 (the rest of the walk
    costs more than the test) takes one is_probable_prime, which is a proof
    there: a pass ends the walk.
    """
    global _small_primes
    if not _small_primes:
        _small_primes = prime_array(_SMALL).tolist()
    tested = 0
    i, size = 0, _FIRST_CHUNK
    while i < len(_small_primes):
        for p in _small_primes[i : i + size]:
            if p * p > n:
                return n, False
            if n % p == 0:
                e = vp(n, p)
                factors.append((p, e))
                n //= p**e
        i += size
        size = min(2 * size, _CHUNK_CAP)
        if n != tested and 16 * p * p < n < _PSI_13:
            tested = n
            if is_probable_prime(n):
                return n, True
    lo = _SMALL
    while lo < min(math.isqrt(n), _TRIAL_LIMIT):
        hi = min(2 * lo, math.isqrt(n), _TRIAL_LIMIT)
        ps = prime_array(hi)
        ps = ps[np.searchsorted(ps, lo, side="right") :]
        for p in ps[_g_mod(n, ps.view(np.uint64)) == 0].tolist():
            e = vp(n, p)
            factors.append((p, e))
            n //= p**e
        lo = hi
        if n != tested and 16 * hi * hi < n < _PSI_13:
            tested = n
            if is_probable_prime(n):
                return n, True
    return n, False


@lru_cache(maxsize=256, typed=True)
def factorize(x: int) -> Factorization:
    """Prime factorization of a nonzero integer by trial division.

    The walk (_trial_walk) divides by the primes up to min(sqrt(n),
    _TRIAL_LIMIT), n the cofactor left, and stops early once a cofactor
    below psi_13 (about 3.3e24), far enough above the walk's reach, passes
    is_probable_prime, which is a proof below psi_13.  Above psi_13, and
    while the cofactor is composite, the walk goes to the end.  A cofactor
    that outlives it is accepted as a prime (or as a prime square or cube)
    when it is below _TRIAL_LIMIT^2, where the walk proves it, or when it
    passes is_probable_prime.  Above psi_13 the cofactor is accepted on the
    13-base Miller-Rabin test alone: a probable prime, not a proven one
    (``invariants 4 10^30+57`` factors its radicand so).  Any other
    cofactor raises FactorizationError.  Results are cached per argument
    type (a Factorization is frozen); a refusal is raised again on every
    call, since lru_cache does not cache exceptions.
    """
    if x == 0:
        raise ValueError("0 has no prime factorization")
    sign = 1 if x > 0 else -1
    factors: list[tuple[int, int]] = []
    n, proven = _trial_walk(abs(x), factors)
    if n > 1:
        if proven or n <= _TRIAL_LIMIT**2 or is_probable_prime(n):
            factors.append((n, 1))
        else:
            for k in (2, 3):
                r = integer_nth_root(n, k)
                if r**k == n and is_probable_prime(r):
                    factors.append((r, k))
                    break
            else:
                raise FactorizationError(f"cofactor {n} exceeds desk-scale factorization")
    return Factorization(value=x, factors=tuple(factors), sign=sign)


def is_squarefree(x: int) -> bool:
    """True iff no prime square divides x.  Requires |x| > 1."""
    if abs(x) <= 1:
        raise ValueError("is_squarefree requires |x| > 1")
    return all(e == 1 for _, e in factorize(x).factors)


def vp(x: int, p: int) -> int:
    """The p-adic valuation of a nonzero integer."""
    if x == 0:
        raise ValueError("v_p(0) is undefined")
    if p < 2:
        raise ValueError("p must be a prime >= 2")
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def mod_pow(base: int, exp: int, modulus: int) -> int:
    """base**exp reduced into [0, modulus)."""
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    if exp < 0:
        raise ValueError("exponent must be nonnegative")
    return pow(base % modulus, exp, modulus)


def pow_mod(base, exp, modulus) -> np.ndarray:
    """Elementwise base**exp mod modulus over broadcast uint64 arrays (at least 1-d).

    The array counterpart of mod_pow: one left-to-right pass over the k-bit
    digits of the exponents, from the top digit of the largest one; each
    digit costs one multiply and k squarings, each followed by %.  Every
    modulus must lie in [1, 2^32), so that a residue is below 2^32 and the
    square of one fits in uint64.  A scalar base b < 2^32 multiplies by the
    unreduced power b^d, read from a table of 2^k entries, with k the largest
    value <= 4 for which b^(2^k - 1) < 2^32: a residue times b^d then stays
    below 2^64 too (b = 4 gets 4-bit digits, b = 8 gets 3-bit ones).  Any
    other base takes single bits, multiplying by base % modulus where the
    bit is set.
    """
    b = int(base) if np.ndim(base) == 0 else 1 << 32  # an array base takes single bits
    base, exp, modulus = np.broadcast_arrays(
        *(np.array(a, dtype=np.uint64, ndmin=1, copy=None) for a in (base, exp, modulus))
    )
    if modulus.size and (modulus.min() < 1 or modulus.max() >= 1 << 32):
        raise ValueError("pow_mod requires every modulus in [1, 2^32)")
    k = next((j for j in (4, 3, 2) if b ** ((1 << j) - 1) < 1 << 32), 1)
    table = np.array([b**d for d in range(1 << k)], dtype=np.uint64) if b < 1 << 32 else None
    factor = base % modulus if table is None else None
    mask = np.uint64((1 << k) - 1)
    acc = np.ones_like(modulus) % modulus
    bits = int(exp.max()).bit_length() if exp.size else 0
    for shift in range(k * ((bits - 1) // k), -1, -k):
        digit = (exp >> np.uint64(shift)) & mask
        if table is not None:
            np.multiply(acc, table[digit], out=acc)
            np.remainder(acc, modulus, out=acc)
        else:
            bit = digit.astype(bool)
            np.multiply(acc, factor, out=acc, where=bit)
            np.remainder(acc, modulus, out=acc, where=bit)
        for _ in range(k if shift else 0):
            np.multiply(acc, acc, out=acc)
            np.remainder(acc, modulus, out=acc)
    return acc


def is_nth_power_residue(g: int, N: int, q: int) -> bool:
    """Whether g is an N-th power in the unit group mod the prime q.

    Requires q ≡ 1 (mod N) and gcd(g, q) = 1, in which case the Euler-style
    test g**((q-1)/N) ≡ 1 decides membership in the index-N power subgroup.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    if q < 3 or (q - 1) % N != 0:
        raise ValueError(f"is_nth_power_residue requires q ≡ 1 (mod {N}), got q={q}")
    if not is_probable_prime(q):
        raise ValueError(f"is_nth_power_residue requires a prime q, got q={q}")
    if g % q == 0:
        raise ValueError("g must be a unit mod q")
    return pow(g % q, (q - 1) // N, q) == 1


def perfect_power_decompose(g: int) -> tuple[int, int]:
    """Write g >= 2 as h**d with d maximal (h not a proper power)."""
    if g < 2:
        raise ValueError("perfect_power_decompose requires g >= 2")
    factors = factorize(g).factors
    d = math.gcd(*(e for _, e in factors))
    return math.prod(p ** (e // d) for p, e in factors), d


def integer_nth_root(x: int, k: int) -> int:
    """Floor of the k-th root of x >= 0."""
    if x < 0 or k < 1:
        raise ValueError("requires x >= 0 and k >= 1")
    if k == 1 or x < 2:
        return x
    if k == 2:
        return math.isqrt(x)
    # Integer Newton iteration from 2^ceil(bits/k), which is above the root;
    # the iterates decrease strictly until they reach the floor of the root.
    r = 1 << -(-x.bit_length() // k)
    while True:
        s = ((k - 1) * r + x // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def squarefree_kernel(x: int) -> int:
    """Product of the primes dividing x to an odd power (x > 0)."""
    if x < 1:
        raise ValueError("requires x >= 1")
    return math.prod(p for p, e in factorize(x).factors if e % 2)


def prime_divisors(n: int) -> list[int]:
    """Distinct primes dividing n (|n| > 1), ascending."""
    return list(factorize(n).primes)


def euler_phi(n: int) -> int:
    """Euler's totient."""
    if n < 1:
        raise ValueError("requires n >= 1")
    phi = n
    for p in factorize(n).primes:
        phi -= phi // p
    return phi
