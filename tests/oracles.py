"""Reference counts and indices that the library is tested against."""

import functools
import itertools
import math

import numpy as np

from eosieve.arith import integer_nth_root, is_probable_prime, prime_sieve, vp
from eosieve.errors import FactorizationError, NotClosedError
from eosieve.experiments import _radicand_windows, _window_counts
from eosieve.families import thin_Pn_member
from eosieve.orders import (
    EquationOrder,
    _poly_mul,
    _reduce_mod_poly,
    multiplication_table,
    order_index,
    p_saturate,
)


def count_squarefree_not_1_mod_4(x_max: int) -> int:
    """#{m : 2 <= |m| <= x_max, m squarefree, m != 1 mod 4}, both signs, by
    striking every square d^2 >= 4 from one array over [0, x_max]."""
    k = np.arange(x_max + 1)
    squarefree = k >= 2
    for d in range(2, math.isqrt(x_max) + 1):
        squarefree[d * d :: d * d] = False
    # m = k is 1 mod 4 at k = 1 mod 4, and m = -k at k = 3 mod 4
    return int(np.count_nonzero(squarefree & (k % 4 != 1))) + int(
        np.count_nonzero(squarefree & (k % 4 != 3))
    )


@functools.lru_cache(maxsize=1)
def _primes_to_a_million() -> list[int]:
    return prime_sieve(10**6)


def factorize_by_full_walk(x: int) -> tuple[tuple[int, int], ...]:
    """The factors of x != 0 by the full trial walk, with no early stop:
    division by each prime p <= 10^6 while p^2 <= the cofactor left, then
    the cofactor rule of arith.factorize (a prime below 10^12 or on the
    Miller-Rabin test, else a prime square or cube, else FactorizationError)."""
    n = abs(x)
    factors = []
    for p in _primes_to_a_million():
        if p * p > n:
            break
        if n % p == 0:
            e = vp(n, p)
            factors.append((p, e))
            n //= p**e
    if n > 1:
        if n <= 10**12 or is_probable_prime(n):
            factors.append((n, 1))
        else:
            for k in (2, 3):
                r = integer_nth_root(n, k)
                if r**k == n and is_probable_prime(r):
                    factors.append((r, k))
                    break
            else:
                raise FactorizationError(f"cofactor {n} exceeds desk-scale factorization")
    return tuple(factors)


def admissible_counts_by_windows(patterns, xs) -> tuple[int, ...]:
    """The checkpoint counts of experiments._admissible_counts, summed from
    the sieved windows of experiments._radicand_windows."""
    total = np.zeros(len(xs), dtype=np.int64)
    for lo, _, masks in _radicand_windows(patterns, xs[-1]):
        total += sum(_window_counts(s, lo, xs) for s in masks)
    return tuple(total.tolist())


def thin_counts_by_listing(n: int, c: int, limit: int) -> tuple[int, int]:
    """(members, primes) of the thin family up to limit, testing each listed
    prime with thin_Pn_member."""
    primes = prime_sieve(limit)
    return sum(thin_Pn_member(n, c, q) for q in primes), len(primes)


def scaled_generator_index_by_lattice(poly, c: int) -> int:
    """[Z[theta] : Z[c theta]] as a lattice index: the Hermite basis of the
    suborder spanned by c^i theta^i, solved for in the power order."""
    n = poly.degree
    rows = [[c**i if j == i else 0 for j in range(n)] for i in range(n)]
    return order_index(EquationOrder.from_basis(poly, rows), EquationOrder.power_order(poly))


def pfree_count_inclusion_exclusion(primes, x: int) -> int:
    """#{1 <= m <= x : no p in primes divides m} by inclusion-exclusion."""
    primes = list(primes)
    total = 0
    for mask in range(1 << len(primes)):
        d = 1
        bits = 0
        for i, p in enumerate(primes):
            if mask >> i & 1:
                d *= p
                bits += 1
        if d <= x:
            total += (-1) ** bits * (x // d)
    return total


def charpoly_is_integral(rows, p: int) -> bool:
    """Whether the characteristic polynomial of A/p is integral, for the
    integer matrix A given by its rows.

    Its coefficients are c_k / p^k, where x^n + c_1 x^(n-1) + ... + c_n is
    the characteristic polynomial of A, so it is integral exactly when p^k
    divides every c_k.  Faddeev-LeVerrier gives the c_k in integers:
    M_1 = A, c_k = -tr(M_k) / k (an exact division), and
    M_(k+1) = A (M_k + c_k I).  The first c_k that fails returns False.
    """
    n = len(rows)
    ak = [row[:] for row in rows]
    pk = 1
    for step in range(1, n + 1):
        c = -sum(ak[i][i] for i in range(n)) // step
        pk *= p
        if c % pk:
            return False
        if step == n:
            break
        for i in range(n):
            ak[i][i] += c
        ak = [
            [sum(rows[i][t] * ak[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return True


def p_saturate_enumeration(order: EquationOrder, p: int, enumeration_limit: int = 1 << 24):
    """Brute-force saturation round, iterated until stable (test oracle).

    One round scans every element (a_0 e_0 + ... + a_{n-1} e_{n-1})/p with
    a_i in [0, p) and adjoins those whose characteristic polynomial is
    integral, then the ring they generate.  Raises ValueError when p is not
    prime or p^n exceeds the limit.
    """
    if not is_probable_prime(p):
        raise ValueError(f"p must be a prime, got {p}")
    n = order.degree
    if p**n > enumeration_limit:
        raise ValueError(f"candidate space {p}^{n} exceeds enumeration limit {enumeration_limit}")
    while True:
        table = multiplication_table(order)
        integral = []
        for a in itertools.product(range(p), repeat=n):
            if not any(a):
                continue
            mx = [
                [sum(a[i] * table[i][j][k] for i in range(n)) for k in range(n)]
                for j in range(n)
            ]
            if charpoly_is_integral(mx, p):
                integral.append(list(a))
        if not integral:
            return order
        scaled = [[p * x for x in row] for row in order.basis_numerators]
        new_rows = scaled + [
            [sum(a[i] * order.basis_numerators[i][j] for i in range(n)) for j in range(n)]
            for a in integral
        ]
        order = ring_generated(order.poly, new_rows, p * order.denominator)


def ring_generated(poly, rows, denominator: int) -> EquationOrder:
    """The order generated by the lattice of rows / denominator, which holds 1.

    Integral elements span a lattice that need not be closed under
    multiplication; the products of its basis elements are adjoined until
    it is.  Every product is integral, so this stops inside the maximal
    order.
    """
    while True:
        order = EquationOrder.from_basis(poly, rows, denominator)
        try:
            multiplication_table(order)
            return order
        except NotClosedError:
            pass
        basis, den = order.basis_numerators, order.denominator
        products = itertools.combinations_with_replacement(basis, 2)
        rows = [[x * den for x in row] for row in basis]
        rows += [_reduce_mod_poly(_poly_mul(u, v), poly) for u, v in products]
        denominator = den * den


def equation_order_index_sequential(poly, candidate_primes) -> tuple[int, EquationOrder]:
    """The saturation of Z[theta] at the candidates, each from the order the
    one before returned, and its lattice index over Z[theta] (order_index)."""
    power = EquationOrder.power_order(poly)
    order = power
    for p in sorted(set(int(q) for q in candidate_primes)):
        order = p_saturate(order, p)
    return order_index(power, order), order
