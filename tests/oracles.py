"""Reference counts that the range experiments are tested against."""

import numpy as np

from eosieve.experiments import _admissible_counts, _periodic


def count_squarefree_not_1_mod_4(x_max: int) -> int:
    """#{m : 2 <= |m| <= x_max, m squarefree, m != 1 mod 4}, both signs."""
    not_1_mod_4 = np.array([True, False, True, True])
    return _admissible_counts(_periodic([not_1_mod_4], x_max), (x_max,))[0]


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
