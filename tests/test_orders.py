import itertools
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eosieve import orders
from eosieve.errors import ConsistencyError, ContainmentError, NotClosedError
from eosieve.orders import (
    EquationOrder,
    MonicPolynomial,
    _dedekind_p_maximal,
    _frobenius_matrix,
    _gf_kernel,
    _gf_nullspace,
    _hnf,
    _multiplication_table_cached,
    _poly_mul,
    _reduce_mod_poly,
    _saturation_round,
    equation_order_index,
    index_form_value,
    multiplication_table,
    order_disc,
    order_index,
    p_saturate,
    poly_disc_resultant,
)
from eosieve.purefield import pure_poly, pure_power_disc
from oracles import (
    charpoly_is_integral,
    equation_order_index_sequential,
    p_saturate_enumeration,
    ring_generated,
)

X4_13 = pure_poly(4, 13)
MAX13_ROWS = ((2, 0, 0, 0), (0, 2, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1))


def test_multiplication_table_power_basis_quadratic():
    order = EquationOrder.power_order(pure_poly(2, 5))
    table = multiplication_table(order)
    assert table[1][1] == (5, 0)  # theta^2 = 5
    assert table[0][1] == (0, 1)


def test_multiplication_table_m13_integral_basis():
    order = EquationOrder.from_basis(X4_13, MAX13_ROWS, 2)
    table = multiplication_table(order)
    for i in range(4):
        for j in range(4):
            assert all(isinstance(c, int) for c in table[i][j])


def test_multiplication_table_non_ring():
    rows = ((2, 0), (0, 1))  # {1, theta/2} for x^2 - 5
    order = EquationOrder.from_basis(pure_poly(2, 5), rows, 2)
    with pytest.raises(NotClosedError) as err:
        multiplication_table(order)
    assert err.value.pair == (1, 1)


def test_index_form_identity_and_translation():
    order = EquationOrder.power_order(X4_13)
    assert index_form_value(order, (0, 1, 0, 0)) == 1
    assert index_form_value(order, (7, 1, 0, 0)) == 1


def test_index_form_homogeneity_example():
    order = EquationOrder.power_order(X4_13)
    assert index_form_value(order, (0, 2, 0, 0)) == 2**6


def test_index_form_random_invariances():
    rng = random.Random(12345)
    orders = [
        EquationOrder.power_order(X4_13),
        EquationOrder.from_basis(X4_13, MAX13_ROWS, 2),
        EquationOrder.power_order(pure_poly(5, 7)),
    ]
    for _ in range(1000):
        order = rng.choice(orders)
        n = order.degree
        N = n * (n - 1) // 2
        beta = tuple(rng.randrange(-4, 5) for _ in range(n))
        base = index_form_value(order, beta)
        c = rng.randrange(-10, 11)
        shifted = (beta[0] + c,) + beta[1:]
        assert index_form_value(order, shifted) == base
        u = rng.choice([-3, -2, -1, 2, 3])
        scaled = tuple(u * b for b in beta)
        assert index_form_value(order, scaled) == u**N * base


def test_unit_wedge_generation():
    # powers of beta with |index form value| = 1 must span the order
    order = EquationOrder.power_order(pure_poly(4, 2))
    n = 4
    table = multiplication_table(order)
    for beta in [(5, 1, 0, 0), (-3, -1, 0, 0)]:
        assert abs(index_form_value(order, beta)) == 1
        rows = [[1, 0, 0, 0]]
        cur = rows[0]
        for _ in range(n - 1):
            nxt = [0] * n
            for i, ui in enumerate(cur):
                if ui:
                    for j, vj in enumerate(beta):
                        if vj:
                            for k in range(n):
                                nxt[k] += ui * vj * table[i][j][k]
            rows.append(nxt)
            cur = nxt
        powers_order = EquationOrder.from_basis(order.poly, rows, 1)
        assert powers_order == order
    # and a non-unit value must not span
    assert abs(index_form_value(order, (0, 2, 0, 0))) != 1
    sub = EquationOrder.from_basis(order.poly, [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 4, 0], [0, 0, 0, 8]], 1)
    assert order_index(sub, order) == 64


def test_coordinates_of_basis_elements_are_unit_vectors():
    maximal = EquationOrder.from_basis(X4_13, MAX13_ROWS, 2)
    for i in range(4):
        coords = maximal.coordinates(maximal.basis_element(i))
        assert coords == tuple(int(i == j) for j in range(4))
        assert all(isinstance(c, Fraction) for c in coords)


def test_coordinates_outside_the_order():
    maximal = EquationOrder.from_basis(X4_13, MAX13_ROWS, 2)
    assert maximal.coordinates((Fraction(1, 3), 1, Fraction(1, 4), 0)) == (
        Fraction(1, 12),
        Fraction(1),
        Fraction(1, 2),
        Fraction(0),
    )
    # theta^2 / 2 = e_2 - e_0 / 2 with e_2 = (1 + theta^2) / 2: not in the order
    assert maximal.coordinates((0, 0, Fraction(1, 2), 0)) == (Fraction(-1, 2), 0, 1, 0)
    power = EquationOrder.power_order(X4_13)
    assert power.coordinates((0, 0, Fraction(1, 2), 0)) == (0, 0, Fraction(1, 2), 0)


def test_order_index_examples():
    power = EquationOrder.power_order(X4_13)
    doubled = EquationOrder.from_basis(
        X4_13, [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 4, 0], [0, 0, 0, 8]], 1
    )
    assert order_index(doubled, power) == 64
    assert order_index(power, power) == 1
    maximal = EquationOrder.from_basis(X4_13, MAX13_ROWS, 2)
    assert order_index(power, maximal) == 4
    with pytest.raises(ContainmentError):
        order_index(maximal, power)


@pytest.mark.parametrize("c", [2, 3])
@pytest.mark.parametrize("n", [4, 5])
def test_order_index_diagonal_scaling(c, n):
    poly = pure_poly(n, 7)
    power = EquationOrder.power_order(poly)
    rows = [[c**i if j == i else 0 for j in range(n)] for i in range(n)]
    sub = EquationOrder.from_basis(poly, rows, 1)
    assert order_index(sub, power) == c ** (n * (n - 1) // 2)


def test_order_disc_examples():
    power = EquationOrder.power_order(X4_13)
    assert order_disc(power) == pure_power_disc(4, 13)
    maximal = EquationOrder.from_basis(X4_13, MAX13_ROWS, 2)
    assert order_disc(maximal) == order_disc(power) // 16
    assert order_disc(EquationOrder.power_order(pure_poly(2, 5))) == 20


def test_poly_disc_resultant_examples():
    assert poly_disc_resultant(X4_13) == pure_power_disc(4, 13)
    assert poly_disc_resultant(MonicPolynomial((5, 5, 0, 0))) == 5**3 * (256 - 27 * 5)
    assert poly_disc_resultant(MonicPolynomial((1, 1))) == -3


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_disc_three_way_agreement(n):
    # trace form == closed form == resultant, for pure polynomials
    for m in (-15, -7, -2, 3, 10, 21):
        poly = pure_poly(n, m)
        closed = pure_power_disc(n, m)
        assert poly_disc_resultant(poly) == closed
        assert order_disc(EquationOrder.power_order(poly)) == closed


def test_p_saturate_examples():
    power = EquationOrder.power_order(X4_13)
    sat = p_saturate(power, 2)
    assert sat == EquationOrder.from_basis(X4_13, MAX13_ROWS, 2)
    assert order_index(power, sat) == 4
    power2 = EquationOrder.power_order(pure_poly(4, 2))
    assert p_saturate(power2, 2) == power2
    assert p_saturate(power, 13) == power  # Eisenstein prime: already maximal there


def test_p_saturate_idempotent():
    for n, m, p in [(4, 13, 2), (4, 73, 2), (5, 7, 5), (6, 19, 3)]:
        power = EquationOrder.power_order(pure_poly(n, m))
        once = p_saturate(power, p)
        assert p_saturate(once, p) == once


def test_saturation_matches_enumeration_oracle():
    # brute-force candidate enumeration, the algorithm of record for small p
    cases = [(2, m, p) for m in (-11, -7, 5, 13, 17, 21, 33) for p in (2, 3)]
    cases += [(3, m, p) for m in (-10, -7, 6, 10, 17, 19, 26) for p in (2, 3)]
    cases += [(4, m, p) for m in (-15, -7, -3, 5, 13, 17, 33, 73) for p in (2, 3)]
    cases += [(4, 3, 5), (5, 7, 5), (5, -5, 3), (6, 17, 2), (6, 17, 3)]
    cases += [(8, 21, 2), (8, -7, 2)]  # x^(2^3): the cube of the Frobenius matrix
    for n, m, p in cases:
        poly = pure_poly(n, m)
        power = EquationOrder.power_order(poly)
        assert p_saturate(power, p) == p_saturate_enumeration(power, p), (n, m, p)


def _charpoly_of_fractions(rows):
    # the oracle's earlier check: Faddeev-LeVerrier run in Fractions on A/p
    n = len(rows)
    ak = [row[:] for row in rows]
    coeffs = []
    for step in range(1, n + 1):
        c = -sum(ak[i][i] for i in range(n)) / step
        coeffs.append(c)
        for i in range(n):
            ak[i][i] += c
        ak = [[sum(rows[i][t] * ak[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    return coeffs


@pytest.mark.parametrize("p", [2, 3, 5])
def test_integer_charpoly_check_matches_fractions(p):
    rng = random.Random(p)
    verdicts = Counter()
    for _ in range(400):
        n = rng.randint(1, 6)
        # p*B plus a part mod p: none, any, or strictly upper triangular
        # (nilpotent mod p, so c_k = 0 mod p but not always mod p^k)
        kind = rng.randrange(3)
        a = [[p * rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        for i, j in itertools.product(range(n), repeat=2):
            if kind == 1 or (kind == 2 and j > i):
                a[i][j] += rng.randrange(p)
        want = all(
            c.denominator == 1
            for c in _charpoly_of_fractions([[Fraction(x, p) for x in row] for row in a])
        )
        assert charpoly_is_integral(a, p) == want, (a, p)
        verdicts[kind, want] += 1
    assert verdicts[2, True] and verdicts[2, False] and verdicts[1, False]


def test_saturation_matches_enumeration_on_trinomials():
    from eosieve.families import trinomial_poly

    for n, t, p in [(4, 3, 3), (4, 3, 5), (4, 5, 5), (4, -10, 2), (5, -5, 3)]:
        poly = trinomial_poly(n, t)
        power = EquationOrder.power_order(poly)
        assert p_saturate(power, p) == p_saturate_enumeration(power, p), (n, t, p)


def test_enumeration_oracle_closes_its_lattice_under_multiplication():
    # at p = 2 the power order and its integral elements of denominator 2
    # span a lattice that is not a ring (the square of its basis element e_2
    # falls outside it); the oracle continues from the ring they generate
    poly = MonicPolynomial((-8, 0, -4, -8, 0, -2))  # x^6 - 2x^5 - 8x^3 - 4x^2 - 8
    power = EquationOrder.power_order(poly)
    oracle = p_saturate_enumeration(power, 2, enumeration_limit=2**16)
    assert p_saturate(power, 2) == oracle
    assert order_index(power, oracle) == 64
    multiplication_table(oracle)  # a ring


def test_enumeration_resource_limit():
    power = EquationOrder.power_order(pure_poly(4, 13))
    with pytest.raises(ValueError, match="exceeds enumeration limit"):
        p_saturate_enumeration(power, 499, enumeration_limit=2**24)


def test_equation_order_index_examples():
    g, maximal = equation_order_index(X4_13, [2])
    assert g == 4
    assert order_disc(maximal) == pure_power_disc(4, 13) // 16
    g, _ = equation_order_index(pure_poly(4, 2), [2])
    assert g == 1
    g, _ = equation_order_index(pure_poly(4, 73), [2])
    assert g == 8  # fixed by the enumeration oracle and the discriminant identity


@pytest.mark.parametrize("p", [4, 6, 9])
def test_saturation_rejects_a_composite_p(p):
    power = EquationOrder.power_order(X4_13)
    with pytest.raises(ValueError, match="prime"):
        p_saturate(power, p)
    with pytest.raises(ValueError, match="prime"):
        p_saturate_enumeration(power, p)
    with pytest.raises(ValueError, match="prime"):
        equation_order_index(X4_13, [p])


def test_equation_order_index_rejects_a_composite_candidate():
    with pytest.raises(ValueError, match="prime"):
        equation_order_index(X4_13, [2, 4])


def _square_disc_primes(poly):
    from eosieve.arith import factorize

    return [p for p, e in factorize(poly_disc_resultant(poly)).factors if e > 1]


def test_equation_order_index_is_the_pivot_index_of_the_saturated_order():
    from eosieve.arith import prime_divisors
    from eosieve.families import ScaledFamily, in_T_hsf, trinomial_poly

    cases = [(pure_poly(n, m), prime_divisors(n)) for n in range(4, 14) for m in (2, -3, 10, 17)]
    cases += [(trinomial_poly(n, t), None) for n in (4, 5, 6) for t in range(2, 14)]
    family = ScaledFamily(4, (3, -2, 1, 0))
    cases += [(family.poly_at(t), None) for t in range(2, 40) if in_T_hsf(family, t)]
    for poly, primes in cases:
        g, maximal = equation_order_index(poly, primes or _square_disc_primes(poly))
        assert g == order_index(EquationOrder.power_order(poly), maximal), poly


# 4 p^4 < 2^62 at the first prime (int64 arrays), not at the others (Python
# integers); at 2^31 - 1 int64 arrays would overflow
@pytest.mark.parametrize("p", [27397, 40009, 2**31 - 1])
def test_saturation_at_primes_on_both_sides_of_the_int64_bound(p):
    # theta / p is a root of x^4 - 5, which is p-maximal for p > 5
    g, _ = equation_order_index(MonicPolynomial((-5 * p**4, 0, 0, 0)), [p])
    assert g == p**6


def test_discriminant_index_identity_grid():
    for n, m in [(4, 13), (4, 73), (4, -3), (5, 7), (5, 11), (6, 17), (6, -15)]:
        from eosieve.arith import prime_divisors

        poly = pure_poly(n, m)
        power = EquationOrder.power_order(poly)
        g, maximal = equation_order_index(poly, prime_divisors(n))
        assert order_disc(power) == g * g * order_disc(maximal)


def test_sympy_round_two_cross_check():
    sympy = pytest.importorskip("sympy")
    from sympy.abc import x as sx
    from sympy.polys.numberfields.basis import round_two

    from eosieve.arith import prime_divisors

    for n, m in [(4, 13), (4, 73), (4, -3), (5, 7), (6, 17), (8, 5)]:
        g, maximal = equation_order_index(pure_poly(n, m), prime_divisors(n))
        try:
            _, d_field = round_two(sympy.Poly(sx**n - m))
        except Exception:
            continue  # round_two crashes on some inputs; skip those
        assert order_disc(maximal) == d_field, (n, m)


def test_from_basis_canonicalization():
    # generating sets that span the same lattice give equal orders
    a = EquationOrder.from_basis(X4_13, MAX13_ROWS, 2)
    shuffled = (MAX13_ROWS[3], MAX13_ROWS[1], MAX13_ROWS[0], MAX13_ROWS[2])
    b = EquationOrder.from_basis(X4_13, shuffled, 2)
    mixed = tuple(
        tuple(x + y for x, y in zip(MAX13_ROWS[i], MAX13_ROWS[0])) for i in range(4)
    )
    c = EquationOrder.from_basis(X4_13, MAX13_ROWS + mixed, 2)
    assert a == b == c
    assert a.basis_numerators[0] == (2, 0, 0, 0)


def test_from_basis_rejects_bad_lattices():
    with pytest.raises(ValueError):
        EquationOrder.from_basis(X4_13, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0)), 1)
    with pytest.raises(ValueError):
        # does not contain 1 primitively
        EquationOrder.from_basis(X4_13, ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), 4)


@st.composite
def _generating_rows(draw):
    """Full-rank rows over a denominator d that hold d*e_0 primitively, plus
    redundant integer combinations of them, shuffled."""
    n = draw(st.integers(min_value=2, max_value=6))
    d = draw(st.integers(min_value=1, max_value=12))
    entry = st.integers(min_value=-30, max_value=30)
    base = [[d] + [0] * (n - 1)]
    for i in range(1, n):
        lower = [draw(entry) for _ in range(i)]
        pivot = draw(st.integers(min_value=1, max_value=12))
        base.append(lower + [pivot] + [0] * (n - i - 1))
    coeff = st.lists(st.integers(min_value=-4, max_value=4), min_size=n, max_size=n)
    extra = [
        [sum(c * row[j] for c, row in zip(cs, base)) for j in range(n)]
        for cs in draw(st.lists(coeff, max_size=2 * n))
    ]
    return n, d, draw(st.permutations(base + extra))


@given(_generating_rows())
@settings(max_examples=200, deadline=None)
def test_from_basis_takes_the_hermite_form_itself(case):
    # the saturation round hands from_basis its generating rows unreduced
    n, d, rows = case
    poly = pure_poly(n, 2)
    assert EquationOrder.from_basis(poly, rows, d) == EquationOrder.from_basis(
        poly, _hnf(rows, n), d
    )


def _round_says_maximal(poly: MonicPolynomial, p: int) -> bool:
    power = EquationOrder.power_order(poly)
    return _saturation_round(power, p) == power


@st.composite
def _monic_at_prime(draw):
    """A separable monic f of degree 2..8 and p in {2, .., 13}; each low
    coefficient is scaled by a random power of p, so f often reduces to a
    power of x or to repeated factors mod p."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    n = draw(st.integers(2, 8))
    coeffs = [
        draw(st.integers(-3 * p, 3 * p)) * p ** draw(st.integers(0, 2)) for _ in range(n)
    ]
    poly = MonicPolynomial(tuple(coeffs))
    assume(poly_disc_resultant(poly) != 0)
    return poly, p


@given(_monic_at_prime())
@settings(max_examples=300, deadline=None)
def test_dedekind_verdict_matches_a_saturation_round(case):
    poly, p = case
    assert _dedekind_p_maximal(poly, p) == _round_says_maximal(poly, p)


def test_dedekind_verdict_matches_enumeration_below_2_16():
    rng = random.Random(9)
    verdicts = []
    # (p, n) with p^n <= 2^16 whose candidates the oracle scans in about a second
    grid = [(2, range(2, 7)), (3, range(2, 6)), (5, (2, 3)), (7, (2, 3)), (11, (2,)), (13, (2,))]
    for p, degrees in grid:
        for n in degrees:
            assert p**n <= 2**16
            for _ in range(3):
                coeffs = tuple(rng.randrange(-p, p) * p ** rng.randrange(3) for _ in range(n))
                poly = MonicPolynomial(coeffs)
                if poly_disc_resultant(poly) == 0:
                    continue
                power = EquationOrder.power_order(poly)
                oracle = p_saturate_enumeration(power, p, enumeration_limit=2**16)
                verdicts.append(_dedekind_p_maximal(poly, p))
                assert verdicts[-1] == (oracle == power), (coeffs, p)
                assert p_saturate(power, p) == oracle, (coeffs, p)
    assert len(verdicts) >= 30 and 5 <= verdicts.count(False) <= len(verdicts) - 5


def test_dedekind_on_a_p_th_power_residue():
    # x^4 - m = (x - m)^4 mod 2: f' vanishes mod 2, so the radical is a 4th root
    for m in range(16, 32):
        poly = pure_poly(4, m)
        verdict = _dedekind_p_maximal(poly, 2)
        assert verdict == _round_says_maximal(poly, 2), m
        # 2-maximal when m = 2 mod 4 (Eisenstein) or m = 3 mod 4 (m^2 != m mod 4)
        assert verdict == (m % 4 in (2, 3)), m


def test_dedekind_with_repeated_factors_of_unequal_multiplicity():
    # f = (x - 1)^2 (x + 1)^3 x (x^2 + 1) + 3 c(x) at p = 3 and
    # f = (x + 1)^3 (x^2 + x + 1)^2 + 2 c(x) at p = 2, for random c
    bases = {
        3: [[-1, 1], [-1, 1], [1, 1], [1, 1], [1, 1], [0, 1], [1, 0, 1]],
        2: [[1, 1], [1, 1], [1, 1], [1, 1, 1], [1, 1, 1]],
    }
    rng = random.Random(4)
    for p, factors in bases.items():
        base = [1]
        for phi in factors:
            base = _poly_mul(base, phi)
        for _ in range(25):
            c = [rng.randrange(-p * p, p * p) for _ in range(len(base) - 1)]
            coeffs = tuple(b + p * ci for b, ci in zip(base, c))
            poly = MonicPolynomial(coeffs)
            if poly_disc_resultant(poly) == 0:
                continue
            assert _dedekind_p_maximal(poly, p) == _round_says_maximal(poly, p), (coeffs, p)


def test_dedekind_accepts_eisenstein_polynomials():
    rng = random.Random(2)
    for p in (2, 3, 5, 7, 11, 13):
        for n in (2, 3, 5, 8):
            coeffs = [p * rng.randrange(-5, 6) for _ in range(n)]
            coeffs[0] = p * rng.choice([c for c in range(-5, 6) if c % p])
            poly = MonicPolynomial(tuple(coeffs))
            assert _dedekind_p_maximal(poly, p), (coeffs, p)
            assert p_saturate(EquationOrder.power_order(poly), p).is_power_order()


@pytest.mark.parametrize("p", [2, 3])
def test_dedekind_on_degree_twelve_pure_polynomials(p):
    for m in (2, 3, 5, 6, 7, 10, 13, 17, 19, 26, 35, -5, -7):
        poly = pure_poly(12, m)
        assert _dedekind_p_maximal(poly, p) == _round_says_maximal(poly, p), (m, p)


def test_wrong_maximal_verdict_is_caught(monkeypatch):
    monkeypatch.setattr(orders, "_dedekind_p_maximal", lambda poly, p: True)
    monkeypatch.setattr(orders, "_confirmed_maximal", Counter())
    with pytest.raises(ConsistencyError):
        p_saturate(EquationOrder.power_order(X4_13), 2)  # Z[x]/(x^4 - 13) is not 2-maximal


def test_wrong_not_maximal_verdict_is_caught(monkeypatch):
    monkeypatch.setattr(orders, "_dedekind_p_maximal", lambda poly, p: False)
    with pytest.raises(ConsistencyError):
        p_saturate(EquationOrder.power_order(X4_13), 13)  # Eisenstein at 13


def test_radical_that_is_not_an_ideal_is_caught(monkeypatch):
    # I = 3Z + theta Z in Z[i] is no ideal: theta * theta = -1 lies outside it
    monkeypatch.setattr(orders, "_gf_nullspace", lambda matrix, p: [[0, 1]])
    power = EquationOrder.power_order(MonicPolynomial((1, 0)))
    with pytest.raises(ConsistencyError, match="expected integral coordinates in ideal basis"):
        _saturation_round(power, 3)


def test_maximal_verdicts_are_confirmed_a_bounded_number_of_times(monkeypatch):
    rounds = []
    real_round = orders._saturation_round

    def counting(order, p):
        rounds.append(p)
        return real_round(order, p)

    monkeypatch.setattr(orders, "_saturation_round", counting)
    monkeypatch.setattr(orders, "_confirmed_maximal", Counter())
    for m in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        power = EquationOrder.power_order(pure_poly(5, m))
        assert p_saturate(power, m) == power
    assert len(rounds) == orders._DEDEKIND_CONFIRMATIONS


# f = x^n + t h(x) = F(x^p), with p dividing f(0) = t h(0) only when p | t
_TOWERED = [
    ((1, 0, 1, 0), 2, range(-40, 41)),
    ((3, 0, 1, 0, 1, 0, 2, 0), 2, range(-15, 16)),
    ((1, 0, 0, 2, 0, 0, 1, 0, 0), 3, range(-20, 21)),
]


@pytest.mark.parametrize("h, p, ts", _TOWERED, ids=["x^4", "x^8", "x^9"])
def test_tower_matches_plain_saturation_on_polynomials_that_are_not_pure(h, p, ts, monkeypatch):
    # no plain confirmation inside the call: this test makes every one
    monkeypatch.setattr(orders, "_TOWER_CONFIRMATIONS", 0)
    towered = 0
    for t in ts:
        poly = MonicPolynomial(tuple(t * c for c in h))
        if t == 0 or poly_disc_resultant(poly) == 0:
            continue
        power = EquationOrder.power_order(poly)
        tower = orders._tower_saturation(power, p)
        assert (tower is None) == (t % p == 0), t
        plain = orders._plain_saturation(power, p)
        assert p_saturate(power, p) == plain, t
        towered += tower is not None and plain != power
    assert towered >= 5


def _sum_cases():
    from eosieve.families import trinomial_poly

    polys = [trinomial_poly(n, t) for n in (4, 5, 6) for t in range(-60, 61) if t]
    for h in [(3, -2, 1, 0), (2, 1, 0, 1)] + [h for h, _, _ in _TOWERED]:
        polys += [MonicPolynomial(tuple(t * c for c in h)) for t in range(-30, 31) if t]
    return [poly for poly in polys if poly_disc_resultant(poly)]


def test_equation_order_index_equals_the_sequential_saturation():
    summed = 0
    for poly in _sum_cases():
        primes = _square_disc_primes(poly)
        g, order = equation_order_index(poly, primes)
        assert (g, order) == equation_order_index_sequential(poly, primes), poly
        power = EquationOrder.power_order(poly)
        summed += sum(p_saturate(power, p) != power for p in primes) >= 2
    assert summed >= 40


def _solve_oracle(rows, rhs):
    """Integer c with c . rows = rhs, one coordinate at a time; None when a
    pivot division is not exact."""
    n = len(rows)
    c = [0] * n
    for j in range(n - 1, -1, -1):
        q, r = divmod(rhs[j] - sum(c[i] * rows[i][j] for i in range(j + 1, n)), rows[j][j])
        if r:
            return None
        c[j] = q
    return c


def _table_oracle(order):
    """The multiplication table one basis pair at a time, in Python integers;
    NotClosedError names the first pair (row-major, j >= i) outside the order."""
    n, rows, den = order.degree, order.basis_numerators, order.denominator
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            prod = _reduce_mod_poly(_poly_mul(rows[i], rows[j]), order.poly)
            entry = None
            if not any(x % den for x in prod):
                entry = _solve_oracle(rows, [x // den for x in prod])
            if entry is None:
                raise NotClosedError(i, j)
            table[i][j] = table[j][i] = tuple(entry)
    return tuple(tuple(row) for row in table)


def _assert_table_matches_oracle(order):
    try:
        want = _table_oracle(order)
    except NotClosedError as err:
        with pytest.raises(NotClosedError) as got:
            multiplication_table(order)
        assert got.value.pair == err.pair, order
        return
    assert multiplication_table(order) == want, order


def _rounds(poly, p):
    """Every order the saturation rounds at p pass through, from the power order."""
    reached = [EquationOrder.power_order(poly)]
    while (bigger := _saturation_round(reached[-1], p)) != reached[-1]:
        reached.append(bigger)
    return reached


def test_batched_table_matches_the_oracle_on_saturated_orders():
    from eosieve.arith import prime_divisors
    from eosieve.families import ScaledFamily, in_T_hsf, trinomial_poly

    cases = [
        (pure_poly(n, m), p)
        for n in range(2, 14)
        for p in prime_divisors(n)
        for m in (-3, 10, 1 + p * p, 1 + 3 * p * p)
    ]
    cases += [
        (poly, p)
        for poly in (trinomial_poly(n, t) for n in (4, 5, 6) for t in range(2, 14))
        for p in _square_disc_primes(poly)
    ]
    family = ScaledFamily(4, (3, -2, 1, 0))
    cases += [
        (poly, p)
        for poly in (family.poly_at(t) for t in range(2, 40) if in_T_hsf(family, t))
        for p in _square_disc_primes(poly)
    ]
    enlarged = 0
    for poly, p in cases:
        reached = _rounds(poly, p)
        enlarged += len(reached) - 1
        for order in reached:
            _assert_table_matches_oracle(order)
    assert enlarged >= 90


@pytest.mark.parametrize(
    "poly, p",
    [(MonicPolynomial((-5 * p**4, 0, 0, 0)), p) for p in (27397, 40009, 2**31 - 1)]
    + [(pure_poly(4, 10**30 + 57), 2)],
)
def test_batched_table_matches_the_oracle_on_large_entries(poly, p):
    reached = _rounds(poly, p)
    assert len(reached) > 1
    for order in reached:
        _assert_table_matches_oracle(order)
    if p == 2:  # theta^4 = 10^30 + 57 leaves int64 at the power table
        assert all(_multiplication_table_cached(o).dtype == object for o in reached)


@pytest.mark.parametrize("n, m, p", [(3, 10, 3), (4, 13, 2), (5, 26, 5), (6, 10, 3), (8, 17, 2)])
def test_batched_table_matches_the_oracle_across_the_int64_bound(n, m, p):
    # rings Z + k O for a saturated order O, k doubling until the table leaves int64
    order = p_saturate(EquationOrder.power_order(pure_poly(n, m)), p)
    d = order.denominator
    dtypes, k = [], 1
    while object not in dtypes:
        gens = [[d] + [0] * (n - 1)] + [[k * x for x in row] for row in order.basis_numerators]
        ring = EquationOrder.from_basis(order.poly, gens, d)
        _assert_table_matches_oracle(ring)
        dtypes.append(_multiplication_table_cached(ring).dtype)
        k *= 2
    assert dtypes.count(np.int64) > 1


@given(_generating_rows())
@settings(max_examples=200, deadline=None)
def test_batched_table_matches_the_oracle_on_lattices(case):
    # mostly not rings: NotClosedError must name the oracle's first pair
    n, d, rows = case
    _assert_table_matches_oracle(EquationOrder.from_basis(pure_poly(n, 2), rows, d))


@st.composite
def _integral_generators(draw):
    """1 and a few small integer combinations of the basis of a saturated
    order (x^n - m at p, none of them p-maximal as a power order)."""
    n, m, p = draw(st.sampled_from([(3, 10, 3), (4, 13, 2), (6, 10, 3), (5, 26, 5)]))
    ring = p_saturate(EquationOrder.power_order(pure_poly(n, m)), p)
    rows = ring.basis_numerators
    coeff = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    picks = draw(st.lists(coeff, min_size=n - 1, max_size=n))
    gens = [rows[0]] + [[sum(c * r[j] for c, r in zip(cs, rows)) for j in range(n)] for cs in picks]
    return ring.poly, gens, ring.denominator


@given(_integral_generators())
@settings(max_examples=100, deadline=None)
def test_batched_table_matches_the_oracle_on_generated_rings(case):
    poly, gens, d = case
    try:
        lattice = EquationOrder.from_basis(poly, gens, d)
    except ValueError:  # the picks do not span a full-rank lattice
        assume(False)
    _assert_table_matches_oracle(lattice)
    _assert_table_matches_oracle(ring_generated(poly, gens, d))


def test_table_of_a_basis_outside_hermite_form_does_not_wrap():
    # rows theta^i + 2^10 theta^(i-1) span Z[theta] for x^8 - 3, but below-pivot
    # entries of 2^10 over pivots 1 grow the coordinates like 2^(10 k)
    n, big = 8, 1 << 10
    rows = tuple(tuple(1 if j == i else big if j == i - 1 else 0 for j in range(n)) for i in range(n))
    ring = EquationOrder(pure_poly(n, 3), rows, 1)
    _assert_table_matches_oracle(ring)
    assert max(abs(c) for ti in multiplication_table(ring) for tij in ti for c in tij) > 1 << 63
    # the same rows over 2 (with 1 = 2 e_0 / 2) are not a ring
    halves = EquationOrder(ring.poly, ((2,) + (0,) * (n - 1),) + rows[1:], 2)
    with pytest.raises(NotClosedError):
        multiplication_table(halves)
    _assert_table_matches_oracle(halves)


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_back_substitute_flags_the_inexact_right_hand_side(dtype):
    basis = np.array(MAX13_ROWS, dtype=dtype)
    coords = np.array([[1, 0, 0, 0], [3, -2, 5, 7], [0, 0, 0, 1], [-4, 1, 1, -9]], dtype=dtype)
    rhs = coords @ basis
    rhs[2, 0] += 1  # e_3 + 1: coordinate 0 needs 1 / 2
    got, exact = orders._back_substitute(basis, rhs.reshape(2, 2, 4))
    assert exact.tolist() == [[True, True], [False, True]]
    assert got.reshape(4, 4)[[0, 1, 3]].tolist() == coords[[0, 1, 3]].tolist()


def test_back_substitute_promotes_a_solve_that_reaches_minus_2_to_the_63():
    # the int64 solve wraps 2^63 to -2^63, where a bound built on np.abs reads 0
    basis = np.array([[1, 0, 0], [0, 1, 0], [0, 1, 1]], dtype=np.int64)
    got, exact = orders._back_substitute(basis, np.array([[0, 0, -(2**63)]], dtype=np.int64))
    assert got.dtype == object
    assert got.tolist() == [[0, 2**63, -(2**63)]]
    assert exact.tolist() == [True]


def test_back_substitute_in_int64_matches_python_integers():
    rng = np.random.default_rng(22)
    kept = promoted = 0
    for width in (1, 2, 3, 4, 7, 12, 20, 33, 48, 64, 81):
        for bits in (1, 2, 5, 12, 25, 40):
            top = (1 << bits) - 1
            basis = np.tril(rng.integers(-top, top + 1, (width, width)))
            basis[np.diag_indices(width)] = rng.integers(1, top + 1, width)
            # exact right-hand sides (coordinates in {-1, 0, 1}) and arbitrary ones
            coords = rng.integers(-1, 2, (3, width))
            rhs = np.stack([coords @ basis, rng.integers(-top, top + 1, (3, width))])
            got, exact = orders._back_substitute(basis, rhs)
            want, want_exact = orders._back_substitute(basis.astype(object), rhs.astype(object))
            assert got.tolist() == want.tolist(), (width, bits)
            assert exact.tolist() == want_exact.tolist(), (width, bits)
            assert exact[0].all() and got[0].tolist() == coords.tolist()
            promoted += got.dtype == object
            kept += got.dtype == np.int64
    assert kept > 10 and promoted > 10


def test_saturation_round_at_degree_64_runs_in_int64(monkeypatch):
    # n = 64, p = 2: a bound of p^2 2^n on the solve sent this round to dtype object
    power = EquationOrder.power_order(pure_poly(64, 5))
    solved = []
    back_substitute = orders._back_substitute

    def spy(basis, rhs):
        coords, exact = back_substitute(basis, rhs)
        solved.append({basis.dtype, rhs.dtype, coords.dtype})
        return coords, exact

    class ObjectInts:
        """numpy, as orders sees it, with every int64 array made dtype object"""

        int64 = object

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(orders, "_back_substitute", spy)
    bigger = _saturation_round(power, 2)
    assert bigger != power and solved == [{np.dtype(np.int64)}]
    monkeypatch.setattr(orders, "np", ObjectInts())
    try:
        assert _saturation_round(power, 2) == bigger
    finally:  # drop the object tables cached meanwhile
        _multiplication_table_cached.cache_clear()
    assert solved[1:] == [{np.dtype(object)}]


def _frobenius_oracle(table, p):
    """Rows x^(p^k) mod p, p^k >= n, of every basis element by square-and-multiply
    with exponent p^k, batched over the basis."""
    n = len(table)
    flat_p = table.reshape(n, n * n) % p

    def mul_mod(u, v):
        uv = (u @ flat_p % p).reshape(n, n, n)
        return (v[:, None, :] @ uv)[:, 0, :] % p

    e = p
    while e < n:
        e *= p
    power, frob = np.eye(n, dtype=table.dtype), None
    while e:
        if e & 1:
            frob = power if frob is None else mul_mod(frob, power)
        power = mul_mod(power, power)
        e >>= 1
    return frob


@pytest.mark.parametrize("n, p", [(5, 2), (8, 2), (4, 3), (10, 3)])
def test_frobenius_matrix_matches_square_and_multiply(n, p):
    polys = [MonicPolynomial((-5 * p**e,) + (0,) * (n - 1)) for e in (2, n - 1)]
    if n % p == 0:
        polys.append(pure_poly(n, 1 + p**4))
    checked = 0
    for poly in polys:
        for order in _rounds(poly, p):
            table = _multiplication_table_cached(order) % (p * p)
            for dtype in (np.int64, object):
                want = _frobenius_oracle(table.astype(dtype), p).tolist()
                assert _frobenius_matrix(table.astype(dtype), p).tolist() == want, order
            checked += 1
    assert checked > len(polys)


def _gf2_matrices(ncols, dtype):
    """Matrices over GF(2) with ncols columns: n^2 x n of rank at most 3, a
    random square one, zero, duplicate rows and full rank (the last entry);
    entries are shifted by even numbers, beyond int64 at dtype object."""
    rng = np.random.default_rng(ncols)
    rows = ncols * ncols
    full = np.vstack([np.eye(ncols, dtype=np.int64), rng.integers(0, 2, (3, ncols))])
    matrices = [
        rng.integers(0, 2, (rows, 3)) @ rng.integers(0, 2, (3, ncols)) % 2,
        rng.integers(0, 2, (ncols, ncols)),
        np.zeros((rows, ncols), dtype=np.int64),
        np.repeat(rng.integers(0, 2, (ncols // 2 + 1, ncols)), 3, axis=0),
        full[rng.permutation(len(full))],
    ]
    even = 2 if dtype is np.int64 else 2**64
    return [
        m.astype(dtype) + even * rng.integers(-3, 4, m.shape).astype(dtype) for m in matrices
    ]


def _assert_free_column_basis(matrix, basis, p):
    """basis lies in the kernel of matrix mod p, with entries in [0, p), and
    the vector of free column f is 1 at f, 0 at the other free columns and
    nonzero elsewhere only at (pivot) columns before f."""
    if not basis:
        return
    vectors = np.array(basis, dtype=np.int64)
    assert ((vectors >= 0) & (vectors < p)).all()
    assert not ((matrix % p).astype(np.int64) @ vectors.T % p).any()
    free = [int(np.flatnonzero(v)[-1]) for v in vectors]
    assert vectors[:, free].tolist() == np.eye(len(free), dtype=np.int64).tolist()


@pytest.mark.parametrize("dtype", [np.int64, object])
@pytest.mark.parametrize("ncols", [1, 2, 8, 62, 63, 64, 81])
def test_gf2_nullspace_is_the_free_column_basis(ncols, dtype):
    matrices = _gf2_matrices(ncols, dtype)
    for matrix in matrices:
        basis = _gf_nullspace(matrix, 2)
        assert basis == _gf_kernel(matrix.tolist(), 2)
        _assert_free_column_basis(matrix, basis, 2)
    assert _gf_nullspace(matrices[-1], 2) == []


def _gf_matrices(p, ncols, dtype):
    """(matrix, rank) pairs over GF(p) with ncols columns: zero, rank
    ncols - 1 and rank 2 of shape n^2 x n, duplicate rows, and full rank,
    square and n^2 x n; entries are shifted by multiples of p, beyond int64
    at dtype object."""
    rng = np.random.default_rng(100 * p + ncols)

    def of_rank(rank, rows):
        # A (rows x rank) and B (rank x ncols) each hold an identity block
        a = np.vstack([np.eye(rank, dtype=np.int64), rng.integers(0, p, (rows - rank, rank))])
        b = np.hstack([np.eye(rank, dtype=np.int64), rng.integers(0, p, (rank, ncols - rank))])
        return (a @ b % p)[rng.permutation(rows)][:, rng.permutation(ncols)]

    rows = ncols * ncols
    half = (ncols + 1) // 2
    matrices = [
        (np.zeros((rows, ncols), dtype=np.int64), 0),
        (of_rank(ncols - 1, rows), ncols - 1),
        (of_rank(min(2, ncols), rows), min(2, ncols)),
        (np.repeat(of_rank(half, half), 3, axis=0), half),
        (of_rank(ncols, ncols), ncols),
        (of_rank(ncols, rows), ncols),
    ]
    shift = p if dtype is np.int64 else p * 2**64
    return [
        (m.astype(dtype) + shift * rng.integers(-3, 4, m.shape).astype(dtype), rank)
        for m, rank in matrices
    ]


@pytest.mark.parametrize("dtype", [np.int64, object])
@pytest.mark.parametrize("p", [3, 5, 7, 13])
@pytest.mark.parametrize("ncols", [1, 2, 3, 4, 7, 12])
def test_gf_kernel_is_the_free_column_basis(ncols, p, dtype):
    for matrix, rank in _gf_matrices(p, ncols, dtype):
        basis = _gf_kernel(matrix.tolist(), p)
        assert _gf_nullspace(matrix, p) == basis
        assert len(basis) == ncols - rank
        _assert_free_column_basis(matrix, basis, p)
        if p**ncols > 4096:
            continue
        # every kernel vector, by enumeration of GF(p)^ncols
        space = np.array(list(itertools.product(range(p), repeat=ncols)), dtype=np.int64)
        kernel = space[~((matrix % p).astype(np.int64) @ space.T % p).any(axis=0)]
        span = itertools.product(range(p), repeat=len(basis))
        vectors = np.array(basis, dtype=np.int64).reshape(len(basis), ncols)
        assert {tuple(np.array(c) @ vectors % p) for c in span} == set(map(tuple, kernel.tolist()))
