"""Reference counts and indices that the library is tested against."""

import math

import numpy as np

from eosieve.arith import prime_sieve
from eosieve.experiments import _radicand_windows, _window_counts
from eosieve.families import thin_Pn_member
from eosieve.orders import EquationOrder, order_index


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
