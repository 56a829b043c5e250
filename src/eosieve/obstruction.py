"""Obstruction machinery at Eisenstein primes.

For an index value g >= 2 and N = n(n-1)/2, the obstruction prime set

    P_g = { q prime : q not dividing 2Ng, q = 1 mod 2N, g not an N-th power mod q }

certifies, at any member q dividing the radicand, that no orientation and no
global sign make the index form represent that sign over the q-adic
integers.  This module builds the Kummer data of g, enumerates P_g,
estimates its density, emits one-prime certificates, and empirically checks
the single-coset structure of index-form values on local generators.

P_g up to a limit is enumerated once per process and key: _pg_table keeps
the last (g, N, limit) it built, the candidate count and the members as one
read-only uint32 array, and every P_g consumer (enumerate_Pg, estimate_delta,
the range experiments and the pset command) reads it.  One entry is kept, so
the cache holds at most one P_g (34 MB at limit = 10^9) and a scan over many
g replaces it as it goes; refused arguments are not cached and raise on
every call.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .arith import (
    _progression_primes,
    euler_phi,
    is_nth_power_residue,
    is_probable_prime,
    perfect_power_decompose,
    prime_divisors,
    squarefree_kernel,
    is_squarefree,
    pow_mod,
)
from .errors import AmbiguousSnapError, ConsistencyError
from .orders import _bareiss_det, _poly_mul, _reduce_mod_poly
from .purefield import binomial_irreducible, pure_index, pure_poly

__all__ = [
    "CosetCheckReport",
    "KummerData",
    "ObstructionCertificate",
    "obstruction_certificate",
    "enumerate_Pg",
    "estimate_delta",
    "in_Pg",
    "kummer_data",
    "local_coset_check",
]


@dataclass(frozen=True)
class KummerData:
    """Shape of the Kummer class of g inside Q(zeta_2N, g^(1/N))."""

    g: int
    N: int
    h: int
    d: int
    b: int
    nontrivial: bool
    l_over_k: int | None = None
    delta: Fraction | None = None

    def __post_init__(self):
        if self.h**self.d != self.g:
            raise ValueError("h^d must equal g")
        if self.b != self.N // math.gcd(self.N, self.d):
            raise ValueError("b must equal N / gcd(N, d)")
        if self.b == 1 and self.nontrivial:
            raise ValueError("b = 1 forces a trivial Kummer class")
        if self.l_over_k is not None:
            if self.N % self.l_over_k != 0:
                raise ValueError("l_over_k must divide N")
            if (self.l_over_k >= 2) != self.nontrivial:
                raise ValueError("l_over_k >= 2 exactly when the class is nontrivial")
            if self.delta != Fraction(self.l_over_k - 1, self.l_over_k * euler_phi(2 * self.N)):
                raise ValueError("delta must equal (1 - 1/l_over_k) / phi(2N)")


@dataclass(frozen=True)
class ObstructionCertificate:
    """A one-prime witness of a fixed-sign local obstruction at q | m."""

    n: int
    m: int
    g: int
    q: int
    witness: int

    @property
    def N(self) -> int:
        return self.n * (self.n - 1) // 2

    def __post_init__(self):
        N = self.N
        if self.m % self.q != 0:
            raise ValueError("certificate prime must divide the radicand")
        if self.q % (2 * N) != 1:
            raise ValueError("certificate prime must be 1 mod 2N")
        if (2 * N * self.g) % self.q == 0:
            raise ValueError("certificate prime must not divide 2Ng")
        if self.witness != pow(self.g % self.q, (self.q - 1) // N, self.q):
            raise ValueError("witness does not match g^((q-1)/N) mod q")
        if self.witness == 1:
            raise ValueError("witness must differ from 1")

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "g": self.g,
            "q": self.q,
            "witness": self.witness,
            "N": self.N,
        }


@dataclass(frozen=True)
class CosetCheckReport:
    n: int
    m: int
    q: int
    trials: int
    failures: int
    base_class: int
    seed: int


def kummer_data(g: int, N: int) -> KummerData:
    """Kummer invariants of g relative to exponent N.

    Writes g = h^d with h not a proper power and sets b = N/gcd(N, d), the
    degree of g^(1/N) over Q.  The class is trivial exactly when the radical
    field Q(g^(1/N)) sits inside Q(zeta_2N): impossible for b > 2 (a real
    field that would have to be normal), automatic for b = 1, and decided
    for b = 2 by whether the discriminant of the quadratic subfield divides
    2N.
    """
    if g < 2 or N < 2:
        raise ValueError("requires g >= 2 and N >= 2")
    h, d = perfect_power_decompose(g)
    d0 = math.gcd(N, d)
    b = N // d0
    if b == 1:
        nontrivial = False
    elif b > 2:
        nontrivial = True
    else:
        kern = squarefree_kernel(h)
        disc = kern if kern % 4 == 1 else 4 * kern
        nontrivial = (2 * N) % disc != 0
    return KummerData(g=g, N=N, h=h, d=d, b=b, nontrivial=nontrivial)


def in_Pg(q: int, g: int, N: int) -> bool:
    """Membership of the prime q in the obstruction set P_g."""
    if g < 2 or N < 2:
        raise ValueError("requires g >= 2 and N >= 2")
    if (2 * N * g) % q == 0 or q % (2 * N) != 1:
        return False
    return not is_nth_power_residue(g, N, q)


def _pg_window(g: int, N: int, qs: np.ndarray, rng: random.Random) -> tuple[int, np.ndarray]:
    """The candidate count and the P_g members among the primes qs = 1 mod 2N.

    g is reduced mod each q by Horner's rule over its 31-bit limbs, which
    finds the q dividing g.  The residue test is one pow_mod pass over the
    window, on g itself when g < 2^32 (the same residues, and pow_mod then
    multiplies by unreduced powers g^d < 2^32) and on the reduced g
    otherwise; 16 candidates drawn with rng (all, if fewer) are recomputed
    with Python's pow, and a mismatch raises ConsistencyError.
    """
    qs = qs.astype(np.uint64)
    g_mod = np.zeros_like(qs)
    for shift in range(31 * ((g.bit_length() - 1) // 31), -1, -31):
        limb = np.uint64((g >> shift) & ((1 << 31) - 1))
        g_mod = ((g_mod << np.uint64(31)) + limb) % qs
    kept = g_mod != 0  # q > 2N, so q | 2Ng exactly when q | g
    qs = qs[kept]
    # g < 2^32 is passed as it is; dropping g_mod then keeps one window-sized
    # array fewer alive through the pass
    base = g if g < 1 << 32 else g_mod[kept]
    del g_mod, kept
    residues = pow_mod(base, (qs - np.uint64(1)) // np.uint64(N), qs)
    for i in rng.sample(range(len(qs)), min(16, len(qs))):
        q = int(qs[i])
        if int(residues[i]) != pow(g % q, (q - 1) // N, q):
            raise ConsistencyError(f"pow_mod gives {residues[i]} for g={g}, N={N}, q={q}")
    return len(qs), qs[residues != 1].astype(np.int64)


@functools.lru_cache(maxsize=1, typed=True)
def _pg_table(g: int, N: int, limit: int) -> tuple[int, np.ndarray]:
    """The candidate count and P_g up to limit, as one ascending read-only
    uint32 array.

    Candidates are the primes q = 1 mod 2N not dividing 2Ng, sieved one
    window of the progression at a time (none when 2N >= limit); a candidate
    is in P_g when g^((q-1)/N) != 1 mod q.  The arguments are checked before
    any sieving.  Members lie below 2^32, and half the bytes of int64 keep
    P_g to 34 MB at limit = 10^9; only the uint32 copy of each window is kept
    while the windows are folded.  The array is shared by every caller with
    the same key, hence read-only.
    """
    if g < 2 or N < 2:
        raise ValueError("requires g >= 2 and N >= 2")
    if limit >= 1 << 32:
        raise ValueError("limit must be below 2^32")
    rng = random.Random(f"{g}:{N}:{limit}")
    prime_windows = _progression_primes(1, 2 * N, 2 * N + 1, limit + 1)
    found = (_pg_window(g, N, qs, rng) for qs in prime_windows)
    windows = [(count, pg.astype(np.uint32)) for count, pg in found]
    members = np.concatenate([np.empty(0, dtype=np.uint32), *(pg for _, pg in windows)])
    members.setflags(write=False)
    return sum(count for count, _ in windows), members


def enumerate_Pg(g: int, N: int, limit: int) -> list[int]:
    """All primes q <= limit with in_Pg(q, g, N), ascending."""
    return _pg_table(g, N, limit)[1].tolist()


def estimate_delta(g: int, N: int, prime_budget: int) -> KummerData:
    """Empirical Chebotarev estimate of the density of P_g.

    Among primes q = 1 mod 2N up to the budget (q not dividing 2Ng), the
    fraction with g an N-th power residue estimates 1/[L:K]; that fraction
    is snapped to the nearest 1/e over divisors e of N.  Snaps with the two
    nearest candidates closer than twice the sampling standard error are
    rejected as ambiguous.
    """
    if prime_budget < 10**5:
        raise ValueError("prime_budget must be at least 10^5")
    kd = kummer_data(g, N)
    if not kd.nontrivial:
        raise ValueError(f"Kummer class of g={g} at N={N} is trivial; delta is not defined")
    count, members = _pg_table(g, N, prime_budget)
    hits = count - len(members)
    if count == 0:
        raise ValueError("no usable primes under the budget")
    phi_hat = hits / count
    divisors = [e for e in range(1, N + 1) if N % e == 0]
    ranked = sorted(divisors, key=lambda e: abs(1 / e - phi_hat))
    best, second = ranked[0], ranked[1]
    se = math.sqrt(max(phi_hat * (1 - phi_hat), 1.0 / count) / count)
    gap = abs(1 / second - phi_hat) - abs(1 / best - phi_hat)
    if gap < 2 * se:
        raise AmbiguousSnapError(phi_hat, (best, second))
    if best == 1:
        raise ConsistencyError(
            f"nontrivial Kummer class snapped to [L:K] = 1 (phi_hat = {phi_hat:.6f})"
        )
    delta = Fraction(best - 1, best * euler_phi(2 * N))
    return replace(kd, l_over_k=best, delta=delta)


def obstruction_certificate(n: int, m: int) -> ObstructionCertificate | None:
    """One-prime fixed-sign obstruction certificate, if any prime q | m gives one.

    Returns the certificate at the smallest qualifying prime divisor of m,
    or None when the power order is already maximal or no divisor of m lies
    in P_g.
    """
    return _certificate(n, m, pure_index(n, m).g)


def _certificate(n: int, m: int, g: int) -> ObstructionCertificate | None:
    """obstruction_certificate for a caller that already holds g = g(m)."""
    N = n * (n - 1) // 2
    # at N = 1 every unit mod q is a first power, so P_g is empty
    if g == 1 or N < 2:
        return None
    for q in prime_divisors(m):
        if in_Pg(q, g, N):
            return ObstructionCertificate(
                n=n, m=m, g=g, q=q, witness=pow(g % q, (q - 1) // N, q)
            )
    return None


# Trials per batched block of local_coset_check: bounds its arrays at
# _COSET_BLOCK * n^2 uint64 entries each, whatever the trial count.
_COSET_BLOCK = 512
# Trials per call recomputed on the scalar path as a cross-check.
_COSET_SPOT_CHECKS = 8


def _scalar_det(b: list[int], poly, q: int) -> int:
    """det mod q of the power matrix (rows 1, beta, ..., beta^(n-1)) of beta = b,
    as the integer determinant mod q: no code shared with _gf_dets."""
    n = len(b)
    # rows 1, beta, ..., beta^(n-1); beta itself needs no reduction
    rows = [[1] + [0] * (n - 1), b]
    cur = b
    for _ in range(n - 2):
        cur = [x % q for x in _reduce_mod_poly(_poly_mul(cur, b), poly)]
        rows.append(cur)
    return _bareiss_det(rows) % q


def _power_matrices(bs: np.ndarray, q: int) -> np.ndarray:
    """The power matrices (rows 1, beta, ..., beta^(n-1)) mod q of the rows of a
    (trials, n) uint64 array, for a prime q < 2^32 dividing the radicand.

    Since q divides the radicand, the ring mod q is F_q[x]/(x^n) and powers
    are truncated products; each product of two residues fits in uint64 and
    is reduced before it is summed.
    """
    trials, n = bs.shape
    qq = np.uint64(q)
    mats = np.zeros((trials, n, n), dtype=np.uint64)
    mats[:, 0, 0] = 1
    mats[:, 1] = bs
    for k in range(2, n):
        prev = mats[:, k - 1]
        for i in range(n):
            mats[:, k, i:] += prev[:, i : i + 1] * bs[:, : n - i] % qq
        mats[:, k] %= qq
    return mats


def _gf_dets(mats: np.ndarray, q: int) -> np.ndarray:
    """Determinants mod a prime q < 2^32 of a (trials, n, n) uint64 stack of
    reduced matrices: Gaussian elimination, run on every matrix at once.

    Each matrix takes its own pivot (the first nonzero entry at or below the
    diagonal).  The elimination is fraction-free: rows below the pivot are
    scaled by it before the pivot row is subtracted, so det = sign *
    prod(pivot_c) / prod(pivot_c^(n-1-c)), whose divisor is inverted once by
    Fermat with pow_mod (a zero pivot makes both 0).  The input is overwritten.
    """
    trials, n, _ = mats.shape
    qq = np.uint64(q)
    det = np.ones(trials, dtype=np.uint64)  # product of the pivots so far
    scale = det.copy()  # prod(pivot_c^(n-1-c)) as the product of the dets before each column
    flips = np.zeros(trials, dtype=bool)
    every = np.arange(trials)
    for c in range(n):
        pivot = c + (mats[:, c:, c] != 0).argmax(axis=1)  # c itself when the column is zero
        swap = pivot != c
        if swap.any():
            rows_c = mats[every, c].copy()
            mats[every, c] = mats[every, pivot]
            mats[every, pivot] = rows_c
            flips ^= swap
        scale = scale * det % qq
        det = det * mats[:, c, c] % qq
        below = mats[:, c + 1 :, c + 1 :]
        below *= mats[:, c, c, None, None]  # below q^2, so one more residue fits
        below += qq - mats[:, c + 1 :, c, None] * mats[:, c, None, c + 1 :] % qq
        below %= qq
    det = det * pow_mod(scale, q - 2, q) % qq
    return np.where(flips, (qq - det) % qq, det)


def _coset_draws(rng: random.Random, n: int, q: int, count: int, uniformizer_only: bool):
    """count vectors b, each [rng.randrange(q) for _ in range(n)] with b[1]
    then redrawn as rng.randrange(1, q) when uniformizer_only.

    The draws inline random.Random._randbelow: getrandbits(k) for k the bit
    length of the bound, redrawn while it is not below the bound, so they
    consume the generator exactly as randrange does.
    """
    getrandbits = rng.getrandbits
    k, k1 = q.bit_length(), (q - 1).bit_length()
    bs = []
    for _ in range(count):
        b = []
        for _ in range(n):
            r = getrandbits(k)
            while r >= q:
                r = getrandbits(k)
            b.append(r)
        if uniformizer_only:
            r = getrandbits(k1)
            while r >= q - 1:
                r = getrandbits(k1)
            b[1] = 1 + r
        bs.append(b)
    return bs


def local_coset_check(
    n: int,
    m: int,
    q: int,
    trials: int,
    seed: int,
    uniformizer_only: bool = True,
) -> CosetCheckReport:
    """Empirical check that index-form values on local generators fill one coset.

    Works in Z[x]/(x^n - m) with coefficients mod q, for a prime q | m.  Random
    generators b_0 + b_1 a + ... + b_{n-1} a^(n-1) are drawn with b_1 a unit
    mod q (the linear coefficient controls the valuation of beta - b_0, so
    this is exactly the local-generator condition); each determinant of the
    power matrix must land in the same N-th power class as that of a itself.
    Setting uniformizer_only=False admits b_1 = 0 and serves as the negative
    control.  Randomness comes from random.Random(seed), the stdlib Mersenne
    Twister, so runs are reproducible bit for bit.

    For q < 2^32 the trials run in blocks of _COSET_BLOCK through one numpy
    pass each (_power_matrices, _gf_dets), and _COSET_SPOT_CHECKS seeded
    trials are recomputed on the scalar path; larger q take the scalar path
    (_scalar_det) for every trial.  On both paths every determinant must
    equal b_1^N mod q (the power matrix is triangular in the x-adic
    filtration of F_q[x]/(x^n)); either guard raises ConsistencyError.
    Under it a determinant misses the class of 1 exactly when b_1 = 0 mod q,
    so those trials are the failures.
    """
    N = n * (n - 1) // 2
    if abs(m) <= 1 or not is_squarefree(m):
        raise ValueError("m must be squarefree with |m| > 1")
    if not is_probable_prime(q):
        raise ValueError("q must be prime")
    if m % q != 0:
        raise ValueError("q must divide m")
    if N % q == 0:
        raise ValueError("q must not divide N = n(n-1)/2")
    if not binomial_irreducible(n, m):
        raise ValueError(f"x^{n} - ({m}) is reducible over Q")
    if trials < 1:
        raise ValueError("trials must be positive")
    poly = pure_poly(n, m)
    rng = random.Random(seed)
    # the scalar path takes no spot checks: they would recompute the same value
    checks = min(_COSET_SPOT_CHECKS, trials) if q < 1 << 32 else 0
    spot = set(random.Random(f"{n}:{m}:{q}:{trials}:{seed}").sample(range(trials), checks))
    failures = 0
    for start in range(0, trials, _COSET_BLOCK):
        bs = _coset_draws(rng, n, q, min(_COSET_BLOCK, trials - start), uniformizer_only)
        if q >= 1 << 32:
            dets = [_scalar_det(b, poly, q) for b in bs]
            bad = [i for i, b in enumerate(bs) if dets[i] != pow(b[1], N, q)]
        else:
            block = np.array(bs, dtype=np.uint64)
            dets = _gf_dets(_power_matrices(block, q), q)
            bad = np.flatnonzero(dets != pow_mod(block[:, 1], N, q))
        if len(bad):
            raise ConsistencyError(
                f"determinant {dets[bad[0]]} != b_1^N mod {q} for n={n}, m={m}, b={bs[bad[0]]}"
            )
        for i in spot.intersection(range(start, start + len(bs))):
            if _scalar_det(bs[i - start], poly, q) != int(dets[i - start]):
                raise ConsistencyError(
                    f"batched and scalar determinants differ mod {q} for n={n}, m={m}, "
                    f"b={bs[i - start]}"
                )
        failures += sum(b[1] == 0 for b in bs)
    # base_class is the class of a's own power matrix: its rows are the power
    # basis, so its determinant is 1
    return CosetCheckReport(
        n=n, m=m, q=q, trials=trials, failures=failures, base_class=1, seed=seed
    )

