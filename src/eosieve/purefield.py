"""Pure-field specializations for K = Q(m^(1/n)) with squarefree m.

Covers binomial irreducibility, the congruence criterion for the power order
Z[alpha] to be maximal, the closed-form power-order discriminant, the
exact index g(m) = [O_K : Z[alpha]] computed by saturation at the primes
dividing n, and the local index tables g_p[m mod p^e] that range scans
gather instead of saturating each radicand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .arith import integer_nth_root, is_squarefree, prime_divisors, vp
from .errors import ConsistencyError
from .orders import EquationOrder, MonicPolynomial, equation_order_index

__all__ = [
    "PureFieldInvariants",
    "PureFieldParams",
    "alpha_monogenic",
    "binomial_irreducible",
    "pure_index",
    "pure_maximal_order",
    "pure_poly",
    "pure_power_disc",
]


@dataclass(frozen=True)
class PureFieldParams:
    """Degree n and radicand m defining Q(m^(1/n))."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("degree must be >= 2")
        if abs(self.m) <= 1:
            raise ValueError("radicand must satisfy |m| > 1")

    @property
    def N(self) -> int:
        """Homogeneity degree n(n-1)/2 of the index form."""
        return self.n * (self.n - 1) // 2


@dataclass(frozen=True)
class PureFieldInvariants:
    params: PureFieldParams
    irreducible: bool
    alpha_monogenic: bool
    g: int
    power_disc: int

    def __post_init__(self):
        n, m, g = self.params.n, self.params.m, self.g
        if self.alpha_monogenic != (g == 1):
            raise ConsistencyError(
                f"criterion and saturation disagree for n={n}, m={m}: "
                f"alpha_monogenic={self.alpha_monogenic} but g={g}"
            )
        if n**n % (g * g) != 0:
            raise ConsistencyError(f"g^2 = {g * g} does not divide n^n for n={n}, m={m}")
        if math.gcd(g, m) != 1:
            raise ConsistencyError(f"gcd(g, m) != 1 for n={n}, m={m}, g={g}")


def pure_poly(n: int, m: int) -> MonicPolynomial:
    """x^n - m."""
    return MonicPolynomial((-m,) + (0,) * (n - 1))


def _is_signed_kth_power(m: int, k: int) -> bool:
    if k % 2 == 0 and m < 0:
        return False
    a = abs(m)
    r = integer_nth_root(a, k)
    return r**k == a


def binomial_irreducible(n: int, m: int) -> bool:
    """Classical criterion for x^n - m to be irreducible over Q.

    m must not be a p-th power for any prime p dividing n, and when 4 | n
    additionally m != -4 k^4.
    """
    if n < 2 or abs(m) <= 1:
        raise ValueError("requires n >= 2 and |m| > 1")
    for p in prime_divisors(n):
        if _is_signed_kth_power(m, p):
            return False
    if n % 4 == 0 and m < 0 and m % 4 == 0 and _is_signed_kth_power(-m // 4, 4):
        return False
    return True


def _criterion_holds(m: int, p: int) -> bool:
    """m^p is not congruent to m mod p^2, i.e. v_p(m^p - m) < 2."""
    p2 = p * p
    return (pow(m, p, p2) - m) % p2 != 0


def alpha_monogenic(n: int, m: int) -> bool:
    """Whether the power order of x^n - m is the full ring of integers.

    True iff m is squarefree and v_p(m^p - m) = 1 for every prime p | n,
    equivalently m^p is not congruent to m mod p^2 (the valuation is at
    least 1 by Fermat).
    """
    if not binomial_irreducible(n, m):
        raise ValueError(f"x^{n} - ({m}) is reducible over Q")
    if not is_squarefree(m):
        return False
    return all(_criterion_holds(m, p) for p in prime_divisors(n))


def pure_power_disc(n: int, m: int) -> int:
    """disc(x^n - m) in closed form: (-1)^((n-1)(n-2)/2) n^n m^(n-1).

    The sign matches both the resultant and the trace-form computations
    (for n = 2 this is 4m, the discriminant of x^2 - m).
    """
    return (-1) ** ((n - 1) * (n - 2) // 2) * n**n * m ** (n - 1)


def pure_maximal_order(n: int, m: int) -> tuple[int, EquationOrder]:
    """Index g(m) and the maximal order, saturating at the primes dividing n.

    Only primes p | n can divide g(m), so these candidates suffice.
    """
    if not binomial_irreducible(n, m):
        raise ValueError(f"x^{n} - ({m}) is reducible over Q")
    if not is_squarefree(m):
        raise ValueError(f"m = {m} is not squarefree")
    return equation_order_index(pure_poly(n, m), prime_divisors(n))


def pure_index(n: int, m: int) -> PureFieldInvariants:
    """Full invariant bundle for the pure field parameters (n, m)."""
    g, _ = pure_maximal_order(n, m)
    return PureFieldInvariants(
        params=PureFieldParams(n, m),
        irreducible=True,
        alpha_monogenic=alpha_monogenic(n, m),
        g=g,
        power_disc=pure_power_disc(n, m),
    )


def _smallest_squarefree_member(r: int, modulus: int) -> int:
    """The squarefree m = r mod modulus with |m| >= 2 that is least in (|m|, m)."""
    t = 2
    while True:
        for m in (-t, t):
            if (m - r) % modulus == 0 and is_squarefree(m):
                return m
        t += 1


def _saturated_residue_table(n: int, p: int, e: int) -> tuple[int, ...]:
    """p-part of g at the smallest squarefree member of each residue mod p^e.

    Residues divisible by p^2 hold no squarefree radicand and get 0.
    """
    modulus = p**e
    return tuple(
        0
        if r % (p * p) == 0
        else equation_order_index(pure_poly(n, _smallest_squarefree_member(r, modulus)), [p])[0]
        for r in range(modulus)
    )


@lru_cache(maxsize=None)
def _local_index_table(n: int, p: int, e: int | None = None) -> tuple[int, ...]:
    """Local index g_p(m), the p-part of g(m), as a table over m mod p^e.

    The local index at p | n depends on m only through
    min(v_p(m^(p-1) - 1) - 1, v_p(n)) and on whether p | m
    (Jakhar-Khanduja-Sangwan, "On the discriminant of pure number fields"),
    so e = v_p(n) + 1, the default, determines it.  Each entry saturates one
    representative at p.  Two guards raise ConsistencyError: the table mod
    p^(e+1) must reduce exactly to the table mod p^e, and every entry must
    agree with the congruence criterion (index 1 at a unit residue iff the
    criterion holds there, index 1 at every residue with p || m, where
    x^n - m is Eisenstein at p).
    """
    if e is None:
        e = vp(n, p) + 1
    table = _saturated_residue_table(n, p, e)
    finer = _saturated_residue_table(n, p, e + 1)
    for r, g in enumerate(finer):
        coarse = table[r % len(table)]
        if g != coarse:
            raise ConsistencyError(
                f"local index at p={p} for n={n} is not constant mod {p}^{e}: "
                f"residue {r} mod {p}^{e + 1} has {g}, its class has {coarse}"
            )
    for r, g in enumerate(table):
        if r % (p * p) == 0:
            ok = g == 0
        elif r % p == 0 or _criterion_holds(r, p):
            ok = g == 1
        else:
            ok = g > 1
        if not ok:
            raise ConsistencyError(
                f"local index {g} at p={p} for n={n}, m = {r} mod {p}^{e} "
                f"contradicts the congruence criterion"
            )
    return table
