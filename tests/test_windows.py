"""Range scans folded over small windows give the default-window results."""

import numpy as np
import pytest

import eosieve.arith as arith
import eosieve.families as families
import eosieve.obstruction as obstruction
from eosieve.arith import _progression_primes, prime_array
from eosieve.experiments import (
    alpha_density,
    exceptional_scan,
    mertens_sum,
    pg_free_counts,
)
from eosieve.families import thin_member_density
from eosieve.obstruction import _pg_table, enumerate_Pg, estimate_delta
from oracles import count_squarefree_not_1_mod_4

X = 6000


def _plain_sieve(limit):
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).tolist()


def _checkpoints(window):
    # the last value of a window, the first of the next and the one after it,
    # at the first window boundary and at the fifth
    return sorted({window - 1, window, window + 1, 5 * window - 1, 5 * window, 5 * window + 1, X})


def _scans(xs):
    exceptional = exceptional_scan(4, 300, [50, 100, 300])
    # n = 6: criterion and index patterns of period 36, so windows of 37 and 64
    # start off a period boundary (lo % 36 != 0)
    exceptional_6 = exceptional_scan(6, 300, [50, 100, 300])
    return {
        "alpha 4": alpha_density(4, X, xs),
        "alpha 6": alpha_density(6, X, xs),
        "not 1 mod 4": count_squarefree_not_1_mod_4(X),
        "P_4-free": pg_free_counts(4, 6, X, xs),
        "P_7-free": pg_free_counts(7, 3, X, xs),
        "mertens": mertens_sum(4, 6, X, xs),
        "delta": estimate_delta(4, 6, 10**5),
        "P_4": enumerate_Pg(4, 6, X),
        "P_2 at N=28": enumerate_Pg(2, 28, 10**5),
        "thin 4": thin_member_density(4, 2, X),
        "thin 6": thin_member_density(6, 5, X),
        # c n = 15 is odd: q = 2 is a member, and 3 and 5 are struck by c n
        "thin 5": thin_member_density(5, 3, X),
        # c n >= X: every member is listed to test whether it divides c n
        "thin 4, c = 10**15 + 1": thin_member_density(4, 10**15 + 1, X),
        "exceptional 4": exceptional,
        # report equality covers the rows; the members are built by their own pass
        "exceptional 4 members": exceptional.members,
        "exceptional 6": exceptional_6,
        "exceptional 6 members": exceptional_6.members,
    }


# 37 is in P_4 (N = 6), so with windows of 37 it starts the window [37, 74)
@pytest.mark.parametrize("window", [37, 64, 1000])
def test_small_windows_give_the_default_window_results(window, monkeypatch):
    xs = _checkpoints(window)
    expected = _scans(xs)
    assert 37 in expected["P_4"]
    monkeypatch.setattr(arith, "_WINDOW", window)
    # a cold prime table, so that it too is grown window by window
    monkeypatch.setattr(arith, "_prime_cache", np.empty(0, dtype=np.int64))
    monkeypatch.setattr(arith, "_prime_cache_limit", 1)
    # and no P_g read from the cache, where the default windows built it
    _pg_table.cache_clear()
    assert prime_array(X).tolist() == _plain_sieve(X)
    assert _scans(xs) == expected


# blocks of 7 split every window of the P_g residue pass and of the thin
# family's listing; blocks of 64 fill windows of 37 and 64 with one block
@pytest.mark.parametrize("block", [7, 64])
@pytest.mark.parametrize("window", [37, 64, 1000])
def test_small_blocks_give_the_default_block_results(block, window, monkeypatch):
    xs = _checkpoints(window)
    expected = _scans(xs)
    monkeypatch.setattr(arith, "_WINDOW", window)
    monkeypatch.setattr(obstruction, "_PG_BLOCK", block)
    monkeypatch.setattr(families, "_SIEVE_BLOCK", block)
    _pg_table.cache_clear()
    assert _scans(xs) == expected


@pytest.mark.parametrize("window", [64, 1000, 1 << 22])
@pytest.mark.parametrize("M", [2, 12, 56, 132])
def test_progression_sieve_matches_the_prime_table(M, window, monkeypatch):
    x = 10**5
    primes = prime_array(x)
    monkeypatch.setattr(arith, "_WINDOW", window)
    # the whole range, a range starting just past 1 + M, and a one-value range
    for lo, hi in ((0, x + 1), (M + 2, x // 3), (M + 1, M + 2)):
        got = np.concatenate([np.empty(0, dtype=np.int64), *_progression_primes(M, lo, hi)])
        want = primes[(primes % M == 1) & (primes >= lo) & (primes < hi)]
        assert got.tolist() == want.tolist(), (M, lo, hi)


def _first_strike_on_a_block_edge(M, block):
    """(lo, hi): a range whose first window has, at term index `block`, the
    first multiple of a base prime p > block, the first prime that divides
    no M; every strike of p before it lies before the window."""
    p = next(q for q in prime_array(10 * block).tolist() if q > block and M % q)
    k = -pow(M, -1, p) % p  # 1 + M*k = 0 mod p  <=>  k = this mod p
    while k < block or 1 + M * k < p * p:
        k += p
    lo = 1 + M * (k - block)
    return lo, lo + M * 4 * block


@pytest.mark.parametrize("block", [37, 64, 1000])
@pytest.mark.parametrize("M", [2, 12, 56, 132])
def test_blocked_strike_matches_the_prime_table(M, block, monkeypatch):
    x = 10**5
    monkeypatch.setattr(arith, "_SIEVE_BLOCK", block)
    edge = _first_strike_on_a_block_edge(M, block)
    primes = prime_array(max(x, edge[1]))
    # the whole range in one window of many blocks, and in windows of a few
    # blocks that do not end on a block edge; a range from lo > 0; a prime
    # first striking exactly where the window's second block begins
    for window, (lo, hi) in (
        (1 << 22, (0, x + 1)),
        (5 * block + 3, (0, x + 1)),
        (1 << 22, (M + 2, x // 3)),
        (1 << 22, edge),
    ):
        monkeypatch.setattr(arith, "_WINDOW", window)
        got = np.concatenate([np.empty(0, dtype=np.int64), *_progression_primes(M, lo, hi)])
        want = primes[(primes % M == 1) & (primes >= lo) & (primes < hi)]
        assert got.tolist() == want.tolist(), (M, block, window, lo, hi)
