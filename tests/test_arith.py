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
