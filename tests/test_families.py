import math

import numpy as np
import pytest

from eosieve.arith import is_probable_prime, pow_mod, prime_array, prime_divisors, prime_sieve
from eosieve.families import (
    ScaledFamily,
    eisenstein_at,
    euler_product_S,
    in_T_hsf,
    in_Tn,
    rho_ell2,
    scaled_family_scan,
    squarefree_value_count,
    thin_Pn_member,
    thin_family_check,
    thin_member_density,
    trinomial_data,
    trinomial_monogenic_check,
    trinomial_poly,
    twist_index_check,
    twist_poly,
)
from eosieve.orders import MonicPolynomial, poly_disc_resultant
from eosieve.purefield import _local_index_table, pure_poly
from oracles import scaled_generator_index_by_lattice, thin_counts_by_listing


def test_eisenstein_at_examples():
    assert eisenstein_at(pure_poly(4, 13), 13)
    assert not eisenstein_at(pure_poly(4, 12), 2)
    assert eisenstein_at(MonicPolynomial((5, 5, 0, 0)), 5)
    assert not eisenstein_at(MonicPolynomial((5, 3, 0, 0)), 5)


def test_eisenstein_for_admissible_scaled_parameters():
    family = ScaledFamily(4, (3, -2, 1, 0))
    for t in range(-40, 41):
        if not in_T_hsf(family, t):
            continue
        for q in prime_divisors(t):
            assert eisenstein_at(family.poly_at(t), q), (t, q)


def test_in_T_hsf_examples():
    fam = ScaledFamily(4, (1, 1, 0, 0))
    assert in_T_hsf(fam, 6)
    assert not in_T_hsf(fam, 4)
    assert not in_T_hsf(ScaledFamily(4, (2, 1, 0, 0)), 6)
    assert not in_T_hsf(fam, 1)


def test_trinomial_data_quartic():
    td = trinomial_data(4, 5)
    assert (td.C0, td.C1) == (256, -27)
    assert td.disc == 5**3 * (256 - 27 * 5) == 15125
    td.verify_against_resultant()
    td2 = trinomial_data(2, 7)
    assert td2.disc == 7**2 - 4 * 7
    td2.verify_against_resultant()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_trinomial_disc_matches_resultant_grid(n):
    for t in range(-50, 51):
        if t == 0:
            continue
        trinomial_data(n, t).verify_against_resultant()


def test_in_Tn_examples():
    # 256 - 27*5 = 121 = 11^2, so t = 5 fails the squarefree-value condition
    assert not in_Tn(4, 5)
    assert in_Tn(4, 7)  # 7 * 67 squarefree, gcd(7, 12) = 1
    assert not in_Tn(4, 6)  # gcd(6, 12) > 1
    assert not in_Tn(4, 25)  # 25 not squarefree
    assert in_Tn(4, -5)  # -5 * 391 = -5 * 17 * 23


def test_trinomial_monogenic_members():
    for t in (7, 11, 13, -5, -7, 29):
        if in_Tn(4, t):
            assert trinomial_monogenic_check(4, t), t
    with pytest.raises(ValueError):
        trinomial_monogenic_check(4, 6)


def test_twist_examples():
    assert twist_index_check(4, 2, 7) == 64
    assert twist_index_check(4, 3, 7) == 729
    assert twist_index_check(5, 2, 7) == 2**10
    with pytest.raises(ValueError):
        twist_index_check(4, 2, 6)
    with pytest.raises(ValueError):
        twist_index_check(4, 7, 7)


@pytest.mark.parametrize("n", range(4, 10))
@pytest.mark.parametrize("c", range(2, 6))
def test_scaled_generator_index_matches_the_lattice_oracle(n, c):
    # the index form at c theta against the Hermite-lattice route it replaced
    t = next(t for t in range(2, 10**4) if math.gcd(t, c) == 1 and in_Tn(n, t))
    q = next(q for q in prime_sieve(10**4) if thin_Pn_member(n, c, q))
    twist = twist_index_check(n, c, t)
    thin = thin_family_check(n, c, q).distinguished_index
    assert twist == scaled_generator_index_by_lattice(trinomial_poly(n, t), c)
    assert thin == scaled_generator_index_by_lattice(pure_poly(n, q), c)
    assert twist == thin == c ** (n * (n - 1) // 2)


def test_twist_poly_disc():
    # disc(x^4 + 8tx + 16t) = 2^12 t^3 (256 - 27 t)
    for t in (7, 11, 13, -5, 17):
        poly = twist_poly(4, 2, t)
        assert poly.coeffs == (16 * t, 8 * t, 0, 0)
        assert poly_disc_resultant(poly) == 2**12 * t**3 * (256 - 27 * t)


def test_rho_examples():
    assert rho_ell2(4, 2) == 2
    assert rho_ell2(4, 3) == 1
    assert rho_ell2(4, 5) == 2


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_rho_brute_force_matches_closed_form(n):
    for ell in prime_sieve(100):
        rho = rho_ell2(n, ell)  # raises ConsistencyError on mismatch
        if n % ell == 0:
            assert rho == ell
        elif (n - 1) % ell == 0:
            assert rho == 1
        else:
            assert rho == 2


def test_euler_product_bracket():
    a = euler_product_S(4, 10**4)
    b = euler_product_S(4, 2 * 10**4)
    assert 0 < a.lower <= a.value <= a.upper < 1
    assert a.upper - a.lower < 3e-4
    # doubling the cutoff moves the value by less than the bracket width
    assert abs(b.value - a.value) <= a.upper - a.lower


def test_squarefree_value_density_matches_euler_product():
    S = euler_product_S(4, 10**5)
    count = squarefree_value_count(4, 10**5)
    assert abs(count / 10**5 - S.value) / S.value < 0.01


def test_squarefree_value_count_small_direct():
    from eosieve.arith import is_squarefree

    direct = 0
    for t in range(1, 301):
        v = t * (256 - 27 * t)
        if abs(v) > 1 and is_squarefree(v):
            direct += 1
    assert squarefree_value_count(4, 300) == direct


def test_thin_membership():
    assert thin_Pn_member(4, 2, 3)
    assert not thin_Pn_member(4, 2, 5)
    assert not thin_Pn_member(4, 2, 2)
    # q = 3 mod 4 is exactly the p = 2 condition at n = 4
    for q in prime_sieve(500):
        if q % 2 and q % 8:  # skip 2 and multiples
            assert thin_Pn_member(4, 2, q) == (q % 4 == 3), q


@pytest.mark.parametrize("n, c", [(4, 2), (6, 5), (9, 2), (12, 7)])
def test_thin_membership_is_false_off_the_primes(n, c):
    assert not thin_Pn_member(n, c, 0) and not thin_Pn_member(n, c, 1)
    assert not thin_Pn_member(n, c, -7)
    members = sum(thin_Pn_member(n, c, q) for q in range(0, 1001))
    assert members == thin_member_density(n, c, 1000)[0]
    assert not any(thin_Pn_member(n, c, q) for q in range(2, 1001) if not is_probable_prime(q))


def test_prime_preconditions_reject_composites():
    with pytest.raises(ValueError, match="prime"):
        rho_ell2(4, 9)  # the brute force and the closed form differ at 9
    with pytest.raises(ValueError, match="prime"):
        rho_ell2(4, 15)
    with pytest.raises(ValueError, match="prime"):
        eisenstein_at(MonicPolynomial((6, 6, 0, 0)), 6)
    with pytest.raises(ValueError, match="not a member"):
        thin_family_check(4, 2, 15)


def test_thin_family_check_examples():
    rep = thin_family_check(4, 2, 3)
    assert rep.alpha_monogenic_of_q and rep.distinguished_index == 64
    rep = thin_family_check(4, 2, 7)
    assert rep.alpha_monogenic_of_q and rep.distinguished_index == 64
    rep = thin_family_check(6, 2, 7)
    assert rep.distinguished_index == 2**15
    with pytest.raises(ValueError):
        thin_family_check(4, 2, 5)


@pytest.mark.parametrize("n", [4, 6, 8, 9, 12])
def test_criterion_table_is_the_wieferich_test(n):
    # for q not dividing p: q^(p-1) != 1 mod p^2 exactly when the local index
    # of x^n - q at p is 1
    qs = prime_array(10**5)
    keep = (2 * n) % qs != 0
    for p in prime_divisors(n):
        table = np.array(_local_index_table(n, p)) == 1
        coprime = qs[qs % p != 0]
        wieferich_free = pow_mod(coprime % (p * p), p - 1, p * p) != 1
        assert (table[coprime % len(table)] == wieferich_free).all(), p
        keep &= pow_mod(qs % (p * p), p - 1, p * p) != 1
    assert thin_member_density(n, 2, 10**5)[:2] == (int(keep.sum()), len(qs))


@pytest.mark.parametrize(
    "n, c",
    [
        (4, 2),
        (6, 5),
        (5, 3),  # c n = 15 is odd, so q = 2 is a member; 3 and 5 pass the tables
        (9, 5),  # c n = 45: 3 divides n, 5 divides c
        (7, 3),
        (12, 7),
    ],
)
def test_thin_mask_counts_match_the_listing_oracle(n, c):
    cn = c * n
    for limit in sorted({2, 3, cn - 1, cn, cn + 1, 1000, 10**4}):
        members, primes, ratio = thin_member_density(n, c, limit)
        assert (members, primes) == thin_counts_by_listing(n, c, limit), limit
        assert ratio == members / primes


def test_thin_density_rejects_bad_inputs():
    with pytest.raises(ValueError, match="limit"):
        thin_member_density(4, 2, 1)  # no primes, so no ratio
    with pytest.raises(ValueError, match="2\\^63"):
        thin_member_density(4, 10**20, 100)
    with pytest.raises(ValueError, match="2\\^63"):
        thin_member_density(4, 2**61, 100)
    # the largest c with c * n < 2^63 still counts exactly
    c = (2**63 - 1) // 9
    qs = prime_array(1000).tolist()
    members = sum(thin_Pn_member(9, c, q) for q in qs)
    assert thin_member_density(9, c, 1000) == (members, len(qs), members / len(qs))


def test_thin_density_matches_product():
    _, _, ratio = thin_member_density(4, 2, 10**5)
    expected4 = math.prod(1 - 1 / p for p in prime_divisors(4))
    assert abs(ratio - expected4) < 0.01
    _, _, ratio6 = thin_member_density(6, 2, 10**5)
    expected6 = math.prod(1 - 1 / p for p in prime_divisors(6))
    assert abs(ratio6 - expected6) < 0.02


def test_scaled_family_scan_reports_hypotheses():
    fam = ScaledFamily(4, (1, 1, 0, 0))
    rep = scaled_family_scan(fam, -40, 40)
    assert rep.index_values
    assert dict(rep.index_values).get(1, 0) > 0
    assert all(flag for _, flag in rep.kummer_nontrivial)
    assert rep.unresolved == ()
    # the candidate bound surfaces skipped primes instead of hiding them
    bounded = scaled_family_scan(fam, -40, 40, candidate_bound=3)
    assert bounded.out_of_bound or bounded.index_values == rep.index_values


def test_scaled_family_validation():
    with pytest.raises(ValueError):
        ScaledFamily(4, (0, 1, 0, 0))
    with pytest.raises(ValueError):
        ScaledFamily(4, (1, 1, 0))
    with pytest.raises(ValueError):
        ScaledFamily(3, (1, 1, 0))
