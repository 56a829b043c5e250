"""Scaled Eisenstein families, the trinomial family x^n + tx + t, its
fixed-index twist, and the thin Wieferich-avoiding prime family.

The trinomial discriminant has the closed form t^(n-1) (C0 + C1 t) with
C0 = (-1)^(n(n-1)/2) n^n and C1 = (-1)^((n-1)(n-2)/2) (n-1)^(n-1); every
admissible parameter t (squarefree t L(t), gcd(t, n(n-1)) = 1) makes the
power order maximal, and rescaling the generator by c multiplies its index
by exactly c^(n(n-1)/2).

thin_member_density counts the thin family on prime masks: one strike pass
per window of the odd progression, the g = 1 pattern of
purefield._index_pattern laid over it, and no list of primes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import (
    _SIEVE_BLOCK,
    _progression_mask,
    _tiled_windows,
    factorize,
    is_probable_prime,
    is_squarefree,
    prime_array,
    prime_divisors,
)
from .errors import ConsistencyError, FactorizationError
from .obstruction import kummer_data
from .orders import (
    EquationOrder,
    MonicPolynomial,
    equation_order_index,
    index_form_value,
    poly_disc_resultant,
)
from .purefield import _index_pattern, alpha_monogenic, pure_poly

__all__ = [
    "EulerProductBracket",
    "ScaledFamily",
    "ScaledScanReport",
    "ThinFamilyReport",
    "TrinomialData",
    "eisenstein_at",
    "euler_product_S",
    "in_T_hsf",
    "in_Tn",
    "rho_ell2",
    "scaled_family_scan",
    "squarefree_value_count",
    "thin_Pn_member",
    "thin_family_check",
    "thin_member_density",
    "trinomial_data",
    "trinomial_monogenic_check",
    "trinomial_poly",
    "twist_index_check",
    "twist_poly",
]


@dataclass(frozen=True)
class ScaledFamily:
    """The family x^n + t h(x) for a fixed h with nonzero constant term."""

    n: int
    h_coeffs: tuple[int, ...]  # c_0 .. c_{n-1}

    def __post_init__(self):
        if self.n < 4:
            raise ValueError("scaled families require degree >= 4")
        if len(self.h_coeffs) != self.n:
            raise ValueError("h must be given by exactly n coefficients c_0..c_{n-1}")
        if self.h_coeffs[0] == 0:
            raise ValueError("constant coefficient c_0 must be nonzero")

    def poly_at(self, t: int) -> MonicPolynomial:
        return MonicPolynomial(tuple(t * c for c in self.h_coeffs))


@dataclass(frozen=True)
class TrinomialData:
    n: int
    t: int
    C0: int
    C1: int
    disc: int

    def verify_against_resultant(self) -> None:
        got = poly_disc_resultant(trinomial_poly(self.n, self.t))
        if got != self.disc:
            raise ConsistencyError(
                f"trinomial disc mismatch at n={self.n}, t={self.t}: "
                f"closed form {self.disc}, resultant {got}"
            )


@dataclass(frozen=True)
class ThinFamilyReport:
    q: int
    alpha_monogenic_of_q: bool
    distinguished_index: int


@dataclass(frozen=True)
class EulerProductBracket:
    value: float
    lower: float
    upper: float
    cutoff: int


@dataclass(frozen=True)
class ScaledScanReport:
    n: int
    h_coeffs: tuple[int, ...]
    t_range: tuple[int, int]
    index_values: tuple[tuple[int, int], ...]  # (g, multiplicity) ascending in g
    kummer_nontrivial: tuple[tuple[int, bool], ...]  # per observed g >= 2
    unresolved: tuple[int, ...]  # t whose disc resisted factorization
    out_of_bound: tuple[tuple[int, int], ...]  # (t, skipped prime) when a bound is set


def eisenstein_at(poly: MonicPolynomial, q: int) -> bool:
    """The prime q divides every low coefficient and q^2 not the constant."""
    if not is_probable_prime(q):
        raise ValueError("q must be a prime >= 2")
    c = poly.coeffs
    return all(x % q == 0 for x in c) and c[0] % (q * q) != 0


def in_T_hsf(family: ScaledFamily, t: int) -> bool:
    """|t| > 1, t squarefree, and gcd(t, c_0) = 1."""
    if abs(t) <= 1:
        return False
    return is_squarefree(t) and math.gcd(t, family.h_coeffs[0]) == 1


def trinomial_poly(n: int, t: int) -> MonicPolynomial:
    """x^n + t x + t."""
    return MonicPolynomial((t, t) + (0,) * (n - 2))


def _trinomial_constants(n: int) -> tuple[int, int]:
    c0 = (-1) ** (n * (n - 1) // 2) * n**n
    c1 = (-1) ** ((n - 1) * (n - 2) // 2) * (n - 1) ** (n - 1)
    return c0, c1


def trinomial_data(n: int, t: int) -> TrinomialData:
    if n < 2 or t == 0:
        raise ValueError("requires n >= 2 and t != 0")
    c0, c1 = _trinomial_constants(n)
    return TrinomialData(n=n, t=t, C0=c0, C1=c1, disc=t ** (n - 1) * (c0 + c1 * t))


def in_Tn(n: int, t: int) -> bool:
    """|t| > 1, gcd(t, n(n-1)) = 1, and t L_n(t) squarefree."""
    if n < 4:
        raise ValueError("requires n >= 4")
    if abs(t) <= 1 or math.gcd(t, n * (n - 1)) != 1:
        return False
    c0, c1 = _trinomial_constants(n)
    value = t * (c0 + c1 * t)
    if abs(value) <= 1:
        return False
    return is_squarefree(value)


def trinomial_monogenic_check(n: int, t: int) -> bool:
    """Whether the power order of x^n + tx + t is maximal, for t in T_n.

    Saturates at every prime whose square divides the discriminant and
    reports g == 1.
    """
    if not in_Tn(n, t):
        raise ValueError(f"t = {t} is not an admissible trinomial parameter for n = {n}")
    data = trinomial_data(n, t)
    candidates = sorted(
        {p for p, e in factorize(data.disc).factors if e >= 2}
    )
    g, _ = equation_order_index(trinomial_poly(n, t), candidates)
    return g == 1


def twist_poly(n: int, c: int, t: int) -> MonicPolynomial:
    """x^n + c^(n-1) t x + c^n t, the minimal polynomial of c * alpha_t."""
    return MonicPolynomial((c**n * t, c ** (n - 1) * t) + (0,) * (n - 2))


def _scaled_generator_index(poly: MonicPolynomial, c: int) -> int:
    """Index of Z[c theta] in Z[theta]: |I(c theta)|, the power order's index form."""
    beta = (0, c) + (0,) * (poly.degree - 2)
    return abs(index_form_value(EquationOrder.power_order(poly), beta))


def twist_index_check(n: int, c: int, t: int) -> int:
    """Index of Z[c alpha_t] in the maximal order Z[alpha_t]; equals c^(n(n-1)/2)."""
    if c < 2:
        raise ValueError("c must be >= 2")
    if math.gcd(t, c) != 1:
        raise ValueError("requires gcd(t, c) = 1")
    if not trinomial_monogenic_check(n, t):
        raise ConsistencyError(
            f"power order of x^{n} + {t}x + {t} is unexpectedly not maximal"
        )
    return _scaled_generator_index(trinomial_poly(n, t), c)


def _rho_closed_form(n: int, ell: int) -> int:
    if n % ell == 0:
        return ell
    return 1 if (n - 1) % ell == 0 else 2


def rho_ell2(n: int, ell: int) -> int:
    """#{a mod ell^2 : ell^2 | a L_n(a)}, brute force checked against closed form.

    The closed form is ell when ell | n, 1 when ell | n-1, and 2 otherwise.
    """
    if n < 4:
        raise ValueError("requires n >= 4")
    if not is_probable_prime(ell):
        raise ValueError("ell must be a prime >= 2")
    if ell > 1000:
        # int64 products a * (c0 + c1 a) stay exact only up to here
        raise ValueError("brute-force rho is limited to ell <= 1000")
    c0, c1 = _trinomial_constants(n)
    ell2 = ell * ell
    a = np.arange(ell2, dtype=np.int64)
    values = (a * ((c0 % ell2) + (c1 % ell2) * a)) % ell2
    brute = int(np.count_nonzero(values == 0))
    closed = _rho_closed_form(n, ell)
    if brute != closed:
        raise ConsistencyError(
            f"rho(ell^2) mismatch at n={n}, ell={ell}: brute {brute}, closed form {closed}"
        )
    return brute


def euler_product_S(n: int, cutoff: int, brute_verify_bound: int = 100) -> EulerProductBracket:
    """Partial Euler product prod(1 - rho(ell^2)/ell^2) with a tail bracket.

    Primes up to `brute_verify_bound` go through the brute-force rho check;
    beyond that the closed form is used directly.  The reported bracket
    bounds the full product: the tail factors lie between exp(-2.1/cutoff)
    and 1 since rho <= 2 for ell beyond n.
    """
    if cutoff < 10**3:
        raise ValueError("cutoff must be at least 10^3")
    log_value = 0.0
    for ell in prime_array(cutoff).tolist():
        rho = rho_ell2(n, ell) if ell <= brute_verify_bound else _rho_closed_form(n, ell)
        log_value += math.log1p(-rho / ell**2)
    value = math.exp(log_value)
    lower = value * math.exp(-2.1 / cutoff)
    return EulerProductBracket(value=value, lower=lower, upper=value, cutoff=cutoff)


def squarefree_value_count(n: int, t_max: int) -> int:
    """#{1 <= t <= t_max : t L_n(t) squarefree}, by an exact quadratic sieve.

    For each prime ell, the classes of t mod ell^2 with ell^2 | t L_n(t)
    are marked directly: t = 0 mod ell when ell | n, t = 0 mod ell^2 when
    ell | n-1, and otherwise the two roots t = 0 and t = -C0/C1 mod ell^2.
    Primes beyond sqrt(max |t L(t)|) cannot contribute.
    """
    if n < 4 or t_max < 1:
        raise ValueError("requires n >= 4 and t_max >= 1")
    c0, c1 = _trinomial_constants(n)
    max_val = max(abs(t * (c0 + c1 * t)) for t in (1, t_max))
    ok = np.ones(t_max + 1, dtype=bool)
    ok[0] = False
    for ell in prime_array(math.isqrt(max_val)).tolist():
        ell2 = ell * ell
        if n % ell == 0:
            ok[ell::ell] = False
        elif (n - 1) % ell == 0:
            if ell2 <= t_max:
                ok[ell2::ell2] = False
        else:
            if ell2 <= t_max:
                ok[ell2::ell2] = False
            root = (-c0 * pow(c1, -1, ell2)) % ell2
            if root <= t_max:
                ok[root::ell2] = False
            # L(t) = 0 never happens for integer t (C1 does not divide C0)
    return int(np.count_nonzero(ok))


def thin_Pn_member(n: int, c: int, q: int) -> bool:
    """q is a prime, avoids c n and is Wieferich-free at every prime p | n."""
    if n < 4 or c < 2:
        raise ValueError("requires n >= 4 and c >= 2")
    if q < 2 or (c * n) % q == 0:
        return False
    return all(pow(q, p - 1, p * p) != 1 for p in prime_divisors(n)) and is_probable_prime(q)


def thin_family_check(n: int, c: int, q: int) -> ThinFamilyReport:
    """Distinguished-generator report for a thin-family prime q.

    The radicand q must be a power-order-maximal parameter and the scaled
    generator c * q^(1/n) must have index exactly c^(n(n-1)/2); local
    unobstructedness follows from maximality and is not retested.
    """
    if not thin_Pn_member(n, c, q):
        raise ValueError(f"q = {q} is not a member of the thin family (n={n}, c={c})")
    return ThinFamilyReport(
        q=q,
        alpha_monogenic_of_q=alpha_monogenic(n, q),
        distinguished_index=_scaled_generator_index(pure_poly(n, q), c),
    )


def thin_member_density(n: int, c: int, limit: int) -> tuple[int, int, float]:
    """(members, primes, ratio) among primes up to limit.

    Counted on the prime masks of the odd progression q = 1 + 2k, one strike
    pass per window and no listing: a window's primes are its set entries,
    and its members those at which the g = 1 pattern, tiled over k with
    period n rad(n), also holds.  q = 2 and the member primes up to
    c * n, the only ones that can divide it, are tested against c * n
    directly.
    """
    if n < 4 or c < 2 or c * n >= 2**63 or limit < 2:  # c * n is reduced in int64
        raise ValueError("requires n >= 4, c >= 2, c * n < 2^63 and limit >= 2")
    # for q not dividing p, q^(p-1) != 1 mod p^2 exactly when the local index
    # of x^n - q at p is 1: the g = 1 pattern over one whole period n rad(n) <= n^2
    pattern = _index_pattern(n, 1, n * n)[0]
    period = len(pattern)
    cn = c * n
    primes = 1  # q = 2, a member when it passes the pattern and avoids c * n
    members = int(cn % 2 == 1 and pattern[2 % period])
    k1 = (limit + 1) // 2  # the odd q = 1 + 2k <= limit have 1 <= k < k1
    for k0, hi, tile in _tiled_windows(pattern[(1 + 2 * np.arange(period)) % period], 1, k1):
        mask = _progression_mask(1, 2, k0, hi)
        primes += int(np.count_nonzero(mask))
        mask &= tile
        members += int(np.count_nonzero(mask))
        # the members q <= c * n, the only ones that can divide it, listed
        # one sieve block at a time
        head = mask[: max(0, (cn + 1) // 2 - k0)]
        for b0 in range(0, len(head), _SIEVE_BLOCK):
            small = 1 + 2 * (k0 + b0 + np.flatnonzero(head[b0 : b0 + _SIEVE_BLOCK]))
            members -= int(np.count_nonzero(cn % small == 0))
        del mask, head  # not held while the next window is sieved
    return members, primes, members / primes


def scaled_family_scan(
    family: ScaledFamily,
    t_lo: int,
    t_hi: int,
    candidate_bound: int | None = None,
) -> ScaledScanReport:
    """Empirical check of the finite-index and Kummer hypotheses on a window.

    For each admissible t in [t_lo, t_hi], the index g(t) is computed by
    saturating at every prime whose square divides disc(f_t); when a
    candidate_bound is given, larger candidates are skipped and reported
    instead of silently ignored.  Parameters whose discriminant resists
    desk-scale factorization are reported as unresolved.
    """
    if t_lo > t_hi:
        raise ValueError("empty parameter window")
    counts: dict[int, int] = {}
    unresolved: list[int] = []
    out_of_bound: list[tuple[int, int]] = []
    for t in range(t_lo, t_hi + 1):
        if not in_T_hsf(family, t):
            continue
        poly = family.poly_at(t)
        disc = poly_disc_resultant(poly)
        if disc == 0:
            unresolved.append(t)
            continue
        try:
            fac = factorize(disc)
        except FactorizationError:
            unresolved.append(t)
            continue
        candidates = []
        skipped = False
        for p, e in fac.factors:
            if e < 2:
                continue
            if candidate_bound is not None and p > candidate_bound:
                out_of_bound.append((t, p))
                skipped = True
            else:
                candidates.append(p)
        if skipped:
            continue
        g, _ = equation_order_index(poly, candidates)
        counts[g] = counts.get(g, 0) + 1
    observed = tuple(sorted(counts.items()))
    nontriv = tuple(
        (g, kummer_data(g, family.n * (family.n - 1) // 2).nontrivial)
        for g, _ in observed
        if g >= 2
    )
    return ScaledScanReport(
        n=family.n,
        h_coeffs=family.h_coeffs,
        t_range=(t_lo, t_hi),
        index_values=observed,
        kummer_nontrivial=nontriv,
        unresolved=tuple(unresolved),
        out_of_bound=tuple(out_of_bound),
    )
