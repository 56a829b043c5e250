"""Pure-field specializations for K = Q(m^(1/n)) with squarefree m.

Covers binomial irreducibility, the congruence criterion for the power order
Z[alpha] to be maximal, the closed-form power-order discriminant, and the
exact index g(m) = [O_K : Z[alpha]] as a product of local indices g_p at
the primes p | n.  Each g_p is read from a table over m mod p^(v_p(n)+1)
built from the Jakhar-Khanduja-Sangwan closed form; point queries read it
and range scans its boolean form "g_p(m) = p^(v_p(g))" (_index_tables).
Two guards raise ConsistencyError: every table entry must agree with the
congruence criterion, and every residue class is confirmed, the first time
a process reads it, by saturating its smallest squarefree member.
pure_maximal_order still saturates, since it returns the maximal order
itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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


def _check_radicand(n: int, m: int) -> None:
    """The preconditions of pure_index and pure_maximal_order, in their order."""
    if not binomial_irreducible(n, m):
        raise ValueError(f"x^{n} - ({m}) is reducible over Q")
    if not is_squarefree(m):
        raise ValueError(f"m = {m} is not squarefree")


def pure_maximal_order(n: int, m: int) -> tuple[int, EquationOrder]:
    """Index g(m) and the maximal order, saturating at the primes dividing n.

    Only primes p | n can divide g(m), so these candidates suffice.
    """
    _check_radicand(n, m)
    return equation_order_index(pure_poly(n, m), prime_divisors(n))


def pure_index(n: int, m: int) -> PureFieldInvariants:
    """Full invariant bundle for the pure field parameters (n, m).

    g is the product of the closed-form local indices at the primes p | n
    (_local_index); no order is saturated beyond the once-per-class
    confirmations.
    """
    _check_radicand(n, m)
    return PureFieldInvariants(
        params=PureFieldParams(n, m),
        irreducible=True,
        alpha_monogenic=alpha_monogenic(n, m),
        g=math.prod(_local_index(n, p, m) for p in prime_divisors(n)),
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


def _closed_form(n: int, p: int, r: int) -> int:
    """g_p(m) for squarefree m = r mod p^(s+1), s = v_p(n), in closed form.

    g_p = 1 when p | m; otherwise g_p = p^(sum_{j=1..k} n/p^j) with
    k = min(v_p(m^(p-1) - 1) - 1, s) (Jakhar-Khanduja-Sangwan, "On the
    discriminant of pure number fields").  Residues divisible by p^2 hold
    no squarefree radicand and get 0.
    """
    s = vp(n, p)
    modulus = p ** (s + 1)
    if r % (p * p) == 0:
        return 0
    if r % p == 0:
        return 1
    unit = (pow(r, p - 1, modulus) - 1) % modulus  # v_p(m^(p-1) - 1), capped at s + 1
    k = min((vp(unit, p) if unit else s + 1) - 1, s)
    return p ** sum(n // p**j for j in range(1, k + 1))


@lru_cache(maxsize=None)
def _local_index_table(n: int, p: int) -> tuple[int, ...]:
    """Local index g_p(m), the p-part of g(m), as a table over m mod p^(v_p(n)+1).

    Entries come from the closed form (_closed_form).  Every entry must agree
    with the congruence criterion (index 1 at a unit residue iff the
    criterion holds there, index 1 at every residue with p || m, where
    x^n - m is Eisenstein at p), or ConsistencyError is raised.
    """
    modulus = p ** (vp(n, p) + 1)
    table = tuple(_closed_form(n, p, r) for r in range(modulus))
    for r, g in enumerate(table):
        if r % (p * p) == 0:
            ok = g == 0
        elif r % p == 0 or _criterion_holds(r, p):
            ok = g == 1
        else:
            ok = g > 1
        if not ok:
            raise ConsistencyError(
                f"local index {g} at p={p} for n={n}, m = {r} mod {modulus} "
                f"contradicts the congruence criterion"
            )
    return table


def _index_tables(n: int, g: int) -> list[np.ndarray]:
    """Per prime p | n, ascending, the boolean table of "g_p(m) = p^(v_p(g))"
    over m mod p^(v_p(n)+1), compared in Python ints with _local_index_table.
    Squarefree m has g(m) = g where all hold; g = 1 is the criterion."""
    tables = []
    for p in prime_divisors(n):
        local = p ** vp(g, p)
        tables.append(np.array([t == local for t in _local_index_table(n, p)], dtype=bool))
    return tables


# residue classes (n, p, m mod p^(v_p(n)+1)) whose table entry this process
# has confirmed by saturation
_confirmed: set[tuple[int, int, int]] = set()


def _local_index(n: int, p: int, m: int) -> int:
    """g_p(m) for squarefree m, read from _local_index_table(n, p).

    The first time a process reads a residue class, its entry is confirmed
    once by saturating the class's smallest squarefree member at p; a
    mismatch raises ConsistencyError.
    """
    table = _local_index_table(n, p)
    r = m % len(table)
    if (n, p, r) not in _confirmed:
        member = _smallest_squarefree_member(r, len(table))
        g = equation_order_index(pure_poly(n, member), [p])[0]
        if g != table[r]:
            raise ConsistencyError(
                f"closed-form local index {table[r]} at p={p} for n={n}, "
                f"m = {r} mod {len(table)}; saturation of m = {member} gives {g}"
            )
        _confirmed.add((n, p, r))
    return table[r]
