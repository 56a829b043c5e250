import math
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

import eosieve.purefield as purefield
from eosieve.arith import is_squarefree, prime_divisors, vp
from eosieve.errors import ConsistencyError
from eosieve.orders import equation_order_index, poly_disc_resultant
from eosieve.purefield import (
    PureFieldInvariants,
    PureFieldParams,
    _local_index_table,
    alpha_monogenic,
    binomial_irreducible,
    pure_index,
    pure_maximal_order,
    pure_poly,
    pure_power_disc,
)

WORKERS = min(4, os.cpu_count() or 1)


def _saturation_indices(args) -> list[tuple[int, int]]:
    """(m, g) by direct saturation at the primes dividing n; top-level for the pool."""
    n, values = args
    return [(m, equation_order_index(pure_poly(n, m), prime_divisors(n))[0]) for m in values]


def test_params_basics():
    p = PureFieldParams(4, 13)
    assert p.N == 6
    with pytest.raises(ValueError):
        PureFieldParams(1, 5)
    with pytest.raises(ValueError):
        PureFieldParams(4, 1)


def test_binomial_irreducible_examples():
    assert binomial_irreducible(4, 13)
    assert not binomial_irreducible(4, 16)
    assert not binomial_irreducible(4, -4)  # x^4 + 4 = (x^2-2x+2)(x^2+2x+2)
    assert not binomial_irreducible(6, -8)
    assert not binomial_irreducible(2, 9)
    assert binomial_irreducible(8, -64 * 4)  # -256 = -4*(2)^4 reducible? no: k^4=64 has no integer k
    assert not binomial_irreducible(4, -64)  # -4 * 2^4
    assert not binomial_irreducible(9, -8)  # (-2)^3


def test_alpha_monogenic_examples():
    assert alpha_monogenic(4, 2)
    assert not alpha_monogenic(4, 73)
    assert not alpha_monogenic(4, 13)
    with pytest.raises(ValueError):
        alpha_monogenic(4, 16)


def test_alpha_monogenic_mod4_equivalence():
    for m in range(-300, 300):
        if abs(m) <= 1 or not is_squarefree(m):
            continue
        assert alpha_monogenic(4, m) == (m % 4 != 1), m


def test_pure_power_disc():
    assert pure_power_disc(4, 13) == -562432
    assert abs(pure_power_disc(4, 13)) == 4**4 * 13**3
    assert pure_power_disc(2, 5) == 20
    assert pure_power_disc(4, 13) == poly_disc_resultant(pure_poly(4, 13))
    assert pure_power_disc(5, 7) == poly_disc_resultant(pure_poly(5, 7))


def test_pure_index_examples():
    assert pure_index(4, 13).g == 4
    assert pure_index(4, 2).g == 1
    # both engines agree on g = 5 here; the congruence criterion rules out 1
    # because v_5(7^5 - 7) = 2
    assert vp(7**5 - 7, 5) == 2
    assert pure_index(5, 7).g == 5
    assert pure_index(4, 73).g == 8


def test_pure_index_invariants_enforced():
    with pytest.raises(ConsistencyError):
        PureFieldInvariants(
            params=PureFieldParams(4, 13),
            irreducible=True,
            alpha_monogenic=True,
            g=4,
            power_disc=-562432,
        )
    with pytest.raises(ConsistencyError):
        PureFieldInvariants(
            params=PureFieldParams(4, 13),
            irreducible=True,
            alpha_monogenic=False,
            g=3,  # 9 does not divide 256
            power_disc=-562432,
        )


def test_eisenstein_primes_do_not_divide_g():
    for n, m in [(4, 13), (4, 73), (5, 7), (6, 35), (6, -21)]:
        g = pure_index(n, m).g
        for q in prime_divisors(m):
            assert g % q != 0


def test_g_divisibility_bounds():
    for n, m in [(4, 13), (4, 73), (4, -3), (5, 7), (6, 17), (6, -15), (8, 5)]:
        g = pure_index(n, m).g
        assert (n**n) % (g * g) == 0
        for p in prime_divisors(g) if g > 1 else []:
            assert n % p == 0
            assert 2 * vp(g, p) <= n * vp(n, p)


def test_vp_growth_inequality():
    for n in range(5, 65):
        for p in prime_divisors(n):
            assert vp(n, p) < (n - 1) / 2


@pytest.mark.parametrize("n", [4, 5, 6])
def test_criterion_matches_saturation_to_1e4(n):
    """alpha_monogenic(n, m) iff pure_index(n, m).g == 1 for |m| <= 1e4."""
    limit = 10**4
    values = []
    for k in range(2, limit + 1):
        for m in (k, -k):
            if is_squarefree(m) and binomial_irreducible(n, m):
                values.append(m)
    chunks = [values[i::WORKERS] for i in range(WORKERS)]
    if WORKERS == 1:
        parts = [_saturation_indices((n, values))]
    else:
        with ProcessPoolExecutor(max_workers=WORKERS) as pool:
            parts = list(pool.map(_saturation_indices, [(n, c) for c in chunks]))
    mism = []
    for part in parts:
        for m, g in part:
            if alpha_monogenic(n, m) != (g == 1):
                mism.append((m, g))
    assert not mism, f"criterion/saturation mismatches at n={n}: {mism[:10]}"


@pytest.mark.parametrize("n, limit", [(4, 400), (6, 200), (8, 100), (9, 100), (12, 40)])
def test_local_index_tables_match_saturation(n, limit):
    tables = [_local_index_table(n, p) for p in prime_divisors(n)]
    for k in range(2, limit + 1):
        for m in (k, -k):
            if is_squarefree(m):
                g = math.prod(t[m % len(t)] for t in tables)
                assert g == pure_maximal_order(n, m)[0], (n, m)


def _least_members(r, modulus):
    """The squarefree m = r mod modulus with |m| >= 2 least in absolute value, one per sign."""
    found = []
    for sign in (1, -1):
        m = 2 * sign
        while (m - r) % modulus or not is_squarefree(m):
            m += sign
        found.append(m)
    return found


@pytest.mark.parametrize("n", range(2, 13))
def test_closed_form_matches_saturation_at_every_residue(n):
    for p in prime_divisors(n):
        table = _local_index_table(n, p)
        assert len(table) == p ** (vp(n, p) + 1)
        for r, g in enumerate(table):
            if r % (p * p) == 0:
                assert g == 0
                continue
            for m in _least_members(r, len(table)):
                assert equation_order_index(pure_poly(n, m), [p])[0] == g, (n, p, m)


def test_quartic_local_index_table():
    # g_2 is 8 for m = 1 mod 8, 4 for m = 5 mod 8, 1 otherwise; 0 marks 4 | m
    assert _local_index_table(4, 2) == (0, 8, 1, 1, 0, 4, 1, 1)


@pytest.fixture
def fresh_tables(monkeypatch):
    """No table built and no residue class confirmed, and none left behind."""
    purefield._class_index.cache_clear()
    _local_index_table.cache_clear()
    yield
    purefield._class_index.cache_clear()
    _local_index_table.cache_clear()


def test_class_confirmation_guard(monkeypatch, fresh_tables):
    formula = purefield._closed_form

    def swapped(n, p, r):
        # g_2 of the classes 1 and 5 mod 8 swapped at n = 4
        return formula(n, p, 6 - r if (n, p) == (4, 2) and r in (1, 5) else r)

    monkeypatch.setattr(purefield, "_closed_form", swapped)
    # both entries exceed 1, so the congruence criterion cannot see the swap
    assert _local_index_table(4, 2) == (0, 4, 1, 1, 0, 8, 1, 1)
    assert pure_index(4, 3).g == 1
    with pytest.raises(ConsistencyError, match="saturation of m = -3 gives 4"):
        pure_index(4, 13)  # 13 = 5 mod 8


def test_class_confirmation_is_not_cached_when_it_raises(monkeypatch, fresh_tables):
    formula = purefield._closed_form
    monkeypatch.setattr(
        purefield,
        "_closed_form",
        lambda n, p, r: formula(n, p, 6 - r if (n, p) == (4, 2) and r in (1, 5) else r),
    )
    for _ in range(2):  # the class 5 mod 8 is saturated again on the second read
        with pytest.raises(ConsistencyError, match="saturation of m = -3 gives 4"):
            pure_index(4, 13)
    assert purefield._class_index.cache_info().currsize == 0


def test_local_index_table_criterion_guard(monkeypatch, fresh_tables):
    monkeypatch.setattr(purefield, "_closed_form", lambda n, p, r: 1)
    with pytest.raises(ConsistencyError, match="congruence criterion"):
        _local_index_table(4, 2)


def test_pure_index_errors_keep_their_order():
    with pytest.raises(ValueError, match="requires n >= 2"):
        pure_index(4, 1)
    with pytest.raises(ValueError, match="reducible"):
        pure_index(4, 16)  # a square, and not squarefree either
    with pytest.raises(ValueError, match="not squarefree"):
        pure_index(4, 12)


def test_observed_index_values_quartic():
    # attainable indices are materialized empirically, never assumed
    observed = {}
    for m in range(-400, 401):
        if abs(m) <= 1 or not is_squarefree(m):
            continue
        g = pure_index(4, m).g
        observed.setdefault(g, 0)
        observed[g] += 1
    assert set(observed) <= {1, 2, 4, 8, 16}
    assert observed[1] > 0 and observed[4] > 0 and observed[8] > 0
    # every g observed divides 4^2 and squares into 4^4
    for g in observed:
        assert 256 % (g * g) == 0


def test_discriminant_index_identity_everywhere():
    from eosieve.orders import EquationOrder, order_disc

    for n in (4, 5, 6):
        for m in (-19, -6, 7, 15, 33):
            if not (is_squarefree(m) and binomial_irreducible(n, m)):
                continue
            g, maximal = pure_maximal_order(n, m)
            power = EquationOrder.power_order(pure_poly(n, m))
            assert order_disc(power) == g * g * order_disc(maximal)
            assert order_disc(power) == pure_power_disc(n, m)
