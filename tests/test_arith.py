import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eosieve.arith import (
    Factorization,
    euler_phi,
    factorize,
    integer_nth_root,
    is_nth_power_residue,
    is_probable_prime,
    is_squarefree,
    mod_pow,
    perfect_power_decompose,
    pow_mod,
    prime_divisors,
    prime_sieve,
    squarefree_kernel,
    vp,
)
from eosieve.errors import FactorizationError


def test_prime_sieve_small():
    assert prime_sieve(10) == [2, 3, 5, 7]
    assert prime_sieve(2) == [2]
    assert prime_sieve(1) == []


def test_prime_sieve_cross_check():
    # independent quadratic sieve
    limit = 100
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for a in range(2, limit + 1):
        for b in range(2 * a, limit + 1, a):
            flags[b] = False
    expected = [k for k in range(limit + 1) if flags[k]]
    got = prime_sieve(limit)
    assert got == expected
    assert len(got) == 25 and got[-1] == 97


def test_factorize_examples():
    f = factorize(12)
    assert f.factors == ((2, 2), (3, 1)) and f.sign == 1
    f = factorize(-13)
    assert f.factors == ((13, 1),) and f.sign == -1
    f = factorize(562432)
    assert f.factors == ((2, 8), (13, 3)) and f.sign == 1
    assert factorize(1).factors == ()
    assert factorize(-1).sign == -1
    with pytest.raises(ValueError):
        factorize(0)


@given(st.integers(min_value=2, max_value=10**6))
@settings(max_examples=300, deadline=None)
def test_factorize_round_trip(x):
    for v in (x, -x):
        f = factorize(v)
        acc = f.sign
        for p, e in f.factors:
            acc *= p**e
        assert acc == v


def test_factorization_invariants_enforced():
    with pytest.raises(ValueError):
        Factorization(value=12, factors=((3, 1), (2, 2)), sign=1)
    with pytest.raises(ValueError):
        Factorization(value=12, factors=((2, 2), (3, 1)), sign=-1)


def test_is_squarefree():
    assert is_squarefree(13)
    assert not is_squarefree(12)
    assert is_squarefree(-15)
    with pytest.raises(ValueError):
        is_squarefree(1)
    with pytest.raises(ValueError):
        is_squarefree(0)


def test_vp():
    assert vp(48, 2) == 4
    assert vp(13, 2) == 0
    assert vp(73**2 - 73, 2) == 3
    with pytest.raises(ValueError):
        vp(0, 2)


def test_mod_pow():
    assert mod_pow(4, 2, 13) == 3
    assert mod_pow(5, 0, 7) == 1
    assert mod_pow(2, 10, 1024) == 0
    with pytest.raises(ValueError):
        mod_pow(2, 3, 1)
    with pytest.raises(ValueError):
        mod_pow(2, -1, 7)


@given(
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=2, max_value=1000),
)
@settings(max_examples=300, deadline=None)
def test_mod_pow_matches_naive(base, exp, modulus):
    naive = 1 % modulus
    for _ in range(exp):
        naive = naive * base % modulus
    assert mod_pow(base, exp, modulus) == naive % modulus


def test_pow_mod_matches_pow_below_2_32():
    rng = random.Random(5)
    size = 2000
    base = [rng.randrange(2**64) for _ in range(size)]
    exp = [rng.randrange(2**64) for _ in range(size)]
    modulus = [rng.randrange(2**32 - 2**20, 2**32) for _ in range(size)]
    got = pow_mod(np.array(base, dtype=np.uint64), np.array(exp, dtype=np.uint64), modulus)
    assert got.tolist() == [pow(b, e, m) for b, e, m in zip(base, exp, modulus)]
    # a scalar exponent and modulus broadcast; exponent 0 and modulus 1
    assert pow_mod([2, 3, 4], 0, 1).tolist() == [0, 0, 0]
    assert pow_mod([2, 3, 4], [0, 5, 2], 7).tolist() == [1, 5, 2]


# Scalar bases on either side of each digit width: b^15, b^7 and b^3 below
# 2^32 give 4-, 3- and 2-bit digits; from 1626 on a base takes single bits,
# and from 2^32 on it is reduced mod each modulus first.
EDGE_BASES = [0, 1, 2, 4, 5, 23, 24, 1625, 1626, 2**31, 2**32 - 1, 2**32 + 5, 2**64 - 1]
EDGE_EXPONENTS = [0, 1, 2, 15, 16, 17, 2**32 - 1, 2**63, 2**64 - 1]
EDGE_MODULI = [1, 2, 3, 1625, 1626, 65537, 2**31 - 1, 2**32 - 5, 2**32 - 1]


@pytest.mark.parametrize("base", EDGE_BASES)
def test_pow_mod_scalar_base_matches_pow(base):
    rng = random.Random(base)
    exp = [rng.randrange(2**64) for _ in range(300)]
    modulus = [rng.randrange(1, 2**32) for _ in range(300)]
    got = pow_mod(base, np.array(exp, dtype=np.uint64), modulus)
    assert got.tolist() == [pow(base, e, m) for e, m in zip(exp, modulus)]
    # broadcast against a scalar exponent and modulus, and against a column
    # of exponents and a row of moduli
    assert pow_mod(base, 2**64 - 1, 2**32 - 5).tolist() == [pow(base, 2**64 - 1, 2**32 - 5)]
    grid = pow_mod(base, np.array(EDGE_EXPONENTS, dtype=np.uint64)[:, None], EDGE_MODULI)
    assert grid.tolist() == [[pow(base, e, m) for m in EDGE_MODULI] for e in EDGE_EXPONENTS]


def test_pow_mod_array_bases_at_the_edges():
    base = np.array(EDGE_BASES, dtype=np.uint64)[:, None]
    exp = np.array(EDGE_EXPONENTS, dtype=np.uint64)[:, None, None]
    got = pow_mod(base, exp, EDGE_MODULI)
    assert got.shape == (len(EDGE_EXPONENTS), len(EDGE_BASES), len(EDGE_MODULI))
    assert got.tolist() == [
        [[pow(b, e, m) for m in EDGE_MODULI] for b in EDGE_BASES] for e in EDGE_EXPONENTS
    ]


def test_pow_mod_exponent_0_modulus_1_and_empty_arrays():
    assert pow_mod(4, [0, 0], [1, 7]).tolist() == [0, 1]
    assert pow_mod([0, 2**64 - 1], 0, [5, 2**32 - 1]).tolist() == [1, 1]
    assert pow_mod(2**64 - 1, [2**64 - 1, 3], 1).tolist() == [0, 0]
    for base in (4, 2**40, []):
        got = pow_mod(base, np.array([], dtype=np.uint64), np.array([], dtype=np.uint64))
        assert got.dtype == np.uint64 and got.tolist() == []
    assert pow_mod([], 3, 7).tolist() == []


@given(
    st.one_of(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=1),
    ),
    st.lists(
        st.tuples(
            st.one_of(st.integers(0, 40), st.integers(0, 2**64 - 1)),
            st.one_of(st.integers(1, 40), st.integers(1, 2**32 - 1)),
        ),
        max_size=20,
    ),
)
@settings(max_examples=300, deadline=None)
def test_pow_mod_matches_pow(base, cases):
    exp = np.array([e for e, _ in cases], dtype=np.uint64)
    modulus = np.array([m for _, m in cases], dtype=np.uint64)
    b = base if isinstance(base, int) else base[0]
    assert pow_mod(base, exp, modulus).tolist() == [pow(b, e, m) for e, m in cases]


def test_pow_mod_refuses_a_modulus_of_2_32():
    with pytest.raises(ValueError):
        pow_mod([2], [3], [2**32])
    with pytest.raises(ValueError):
        pow_mod([2], [3], [0])


def test_nth_power_residue_examples():
    assert not is_nth_power_residue(4, 6, 13)
    assert is_nth_power_residue(-1, 6, 13)
    assert is_nth_power_residue(1, 6, 13)
    with pytest.raises(ValueError):
        is_nth_power_residue(2, 6, 11)  # 11 is not 1 mod 6
    with pytest.raises(ValueError):
        is_nth_power_residue(13, 6, 13)  # not a unit


@pytest.mark.parametrize("N", [6, 10, 15])
def test_nth_power_residue_brute_force(N):
    for q in prime_sieve(2000):
        if (q - 1) % N != 0:
            continue
        powers = {pow(a, N, q) for a in range(1, q)}
        for g in range(1, min(q, 60)):
            assert is_nth_power_residue(g, N, q) == (g % q in powers)


def test_perfect_power_decompose():
    assert perfect_power_decompose(4) == (2, 2)
    assert perfect_power_decompose(12) == (12, 1)
    assert perfect_power_decompose(64) == (2, 6)
    assert perfect_power_decompose(2**6 * 3**6) == (6, 6)
    with pytest.raises(ValueError):
        perfect_power_decompose(1)


@given(st.integers(min_value=2, max_value=10**5))
@settings(max_examples=200, deadline=None)
def test_perfect_power_matches_factorization(g):
    h, d = perfect_power_decompose(g)
    assert h**d == g
    from math import gcd

    exps = [e for _, e in factorize(g).factors]
    acc = 0
    for e in exps:
        acc = gcd(acc, e)
    assert d == acc


def test_integer_nth_root():
    assert integer_nth_root(0, 3) == 0
    assert integer_nth_root(63, 3) == 3
    assert integer_nth_root(64, 3) == 4
    assert integer_nth_root(10**18, 2) == 10**9
    big = (3**41) ** 7
    assert integer_nth_root(big, 7) == 3**41
    assert integer_nth_root(10**60, 2) == 10**30


@given(st.integers(min_value=0, max_value=10**200), st.integers(min_value=1, max_value=40))
@settings(max_examples=500, deadline=200)
def test_integer_nth_root_brackets_the_root(x, k):
    r = integer_nth_root(x, k)
    assert r**k <= x < (r + 1) ** k


def test_factorize_refuses_semiprime_of_31_digit_primes_promptly():
    p = 10**30 + 57
    q = 3 * 10**30 + 91
    start = time.perf_counter()
    with pytest.raises(FactorizationError):
        factorize(p * q)
    assert time.perf_counter() - start < 5.0


def test_strong_pseudoprime_to_twelve_bases_is_rejected():
    # psi_12 of Sorenson-Webster: passes Miller-Rabin to every prime base up to 37
    psi_12 = 318665857834031151167461
    assert psi_12 == 399165290221 * 798330580441
    assert not is_probable_prime(psi_12)
    with pytest.raises(FactorizationError):
        factorize(psi_12)


def test_squarefree_kernel_and_phi():
    assert squarefree_kernel(8) == 2
    assert squarefree_kernel(12) == 3
    assert squarefree_kernel(1) == 1
    assert euler_phi(12) == 4
    assert euler_phi(1) == 1
    assert euler_phi(30) == 8


def _trial_division(x: int) -> tuple[tuple[int, int], ...]:
    """Factors of x >= 1 by division by every integer d with d^2 <= x."""
    factors = []
    d = 2
    while d * d <= x:
        e = 0
        while x % d == 0:
            x //= d
            e += 1
        if e:
            factors.append((d, e))
        d += 1
    if x > 1:
        factors.append((x, 1))
    return tuple(factors)


@pytest.fixture
def cold_prime_tables(monkeypatch):
    """An empty prime cache and trial-division list, restored after the test."""
    import eosieve.arith as arith

    monkeypatch.setattr(arith, "_prime_cache", np.empty(0, dtype=np.int64))
    monkeypatch.setattr(arith, "_prime_cache_limit", 1)
    monkeypatch.setattr(arith, "_trial", (1, []))
    arith.factorize.cache_clear()
    return arith


def test_factorize_matches_trial_division_before_and_after_the_cache_grows(cold_prime_tables):
    rng = random.Random(5)
    small = prime_sieve(3000)
    middle = [p for p in prime_sieve(10**6) if p > 1 << 16]
    large = [1000003, 1000033, 2147483647, 4294967291, 10**12 + 39]
    for phase in ("cold", "grown"):
        if phase == "grown":
            cold_prime_tables.prime_array(3 * 10**7)
            assert cold_prime_tables._prime_cache_limit >= 3 * 10**7
        for _ in range(100):
            # below 10^12 a missed divisor would pass for a prime cofactor;
            # the first one needs the trial list beyond its first 2^16
            p, q = sorted(rng.sample(middle, 2))
            assert factorize(p * q).factors == ((p, 1), (q, 1)), (phase, p, q)
        for _ in range(150):
            x = rng.randrange(2, 10**8)
            assert factorize(x).factors == _trial_division(x), (phase, x)
        for _ in range(150):
            # a known factorization: small primes times at most one large prime
            exps = {p: rng.randrange(1, 4) for p in rng.sample(small, rng.randrange(0, 4))}
            if rng.random() < 0.5 or not exps:
                exps[rng.choice(large)] = 1
            x = math.prod(p**e for p, e in exps.items())
            assert factorize(-x).factors == tuple(sorted(exps.items())), (phase, x)


def test_factorize_builds_its_trial_list_a_handful_of_times(cold_prime_tables, monkeypatch):
    calls = []
    prime_array = cold_prime_tables.prime_array

    def counting(limit):
        calls.append(limit)
        return prime_array(limit)

    monkeypatch.setattr(cold_prime_tables, "prime_array", counting)
    rng = random.Random(11)
    refused = 0
    for _ in range(1000):
        try:
            factorize(rng.randrange(2, 10**14) * rng.choice([1, 1000003]))
        except FactorizationError:
            refused += 1
    assert 0 < refused < 1000
    # doubling from 2^16 to the trial bound of 10^6: 2^16, 2^17, 2^18, 2^19, 10^6
    assert len(calls) <= 5, calls


# the cases sit at a fixed stride of 256 trial primes, across the whole list
@pytest.mark.parametrize("phase", ["cold", "warm"])
def test_factorize_at_trial_chunk_boundaries(phase, cold_prime_tables):
    arith = cold_prime_tables
    if phase == "warm":
        factorize(2**89 - 1)  # a prime above the trial bound: the list covers 10^6
        factorize.cache_clear()
    primes = prime_sieve(10**6)
    size = 256
    for k in (1, 2, 50, len(primes) // size - 1):
        last, first = primes[k * size - 1], primes[k * size]
        assert factorize(last * first).factors == ((last, 1), (first, 1)), k
        assert factorize(first * first).factors == ((first, 2),), k
        assert factorize(7 * 10**12 * first**2).factors == (
            (2, 12), (5, 12), (7, 1), (first, 2)
        ), k
        # a prime cofactor q whose p*p > n stop falls inside stride k, alone
        # and beside a prime below the stop
        below, p = primes[k * size + size // 2 - 1 : k * size + size // 2 + 1]
        q = next(x for x in range(p * p - 2, below * below, -2) if is_probable_prime(x))
        assert factorize(2 * q).factors == ((2, 1), (q, 1)), k
        assert factorize(below * q).factors == ((below, 1), (q, 1)), k
        assert factorize(q).factors == ((q, 1),), k
    # grown from the cold table to the whole list of trial primes
    assert arith._trial == (10**6, primes)


def test_factorize_refusal_above_the_trial_bound_is_unchanged():
    p, q = 1000003, 1000033
    with pytest.raises(FactorizationError):
        factorize(p * q)
    with pytest.raises(FactorizationError):
        factorize(2 * 3 * p * q)
    assert factorize(p * p).factors == ((p, 2),)
    assert factorize(-(q**3)).factors == ((q, 3),)
    assert factorize(6 * p**2).factors == ((2, 1), (3, 1), (p, 2))
    with pytest.raises(FactorizationError):
        factorize(p * 4294967291)  # no Pollard rho: a composite cofactor is refused


def test_factorize_refusal_is_raised_on_every_call():
    x = 1000003 * 1000033
    for _ in range(3):
        with pytest.raises(FactorizationError):
            factorize(x)


def test_cached_factorizations_equal_fresh_ones():
    rng = random.Random(17)
    xs = [rng.randrange(2, 10**12) * rng.choice([1, -1]) for _ in range(200)]
    first = [factorize(x) for x in xs]
    again = [factorize(x) for x in xs]
    assert all(a is b for a, b in zip(first, again))
    assert first == [factorize.__wrapped__(x) for x in xs]
    # prime_divisors hands out a fresh list, so a caller may mutate it
    divisors = prime_divisors(2 * 3 * 5)
    divisors.append(7)
    assert prime_divisors(2 * 3 * 5) == [2, 3, 5]
