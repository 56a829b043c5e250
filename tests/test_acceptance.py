"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances are pinned here and nowhere else.
"""

import json
import math
import random
import time
from contextlib import contextmanager

from eosieve.arith import (
    is_nth_power_residue,
    is_squarefree,
    prime_array,
    prime_divisors,
    prime_sieve,
)
from eosieve.cli import main
from eosieve.experiments import (
    Checkpoints,
    alpha_density,
    logpower_fit,
    mertens_sum,
    pg_free_counts,
)
from eosieve.families import (
    euler_product_S,
    in_Tn,
    rho_ell2,
    squarefree_value_count,
    thin_Pn_member,
    thin_family_check,
    thin_member_density,
    trinomial_data,
    trinomial_monogenic_check,
    twist_index_check,
    twist_poly,
)
from eosieve.obstruction import enumerate_Pg, estimate_delta, in_Pg, local_coset_check
from eosieve.orders import (
    EquationOrder,
    index_form_value,
    order_disc,
    p_saturate,
    poly_disc_resultant,
)
from eosieve.purefield import binomial_irreducible, pure_maximal_order, pure_poly
from oracles import count_squarefree_not_1_mod_4


@contextmanager
def criterion(num: int, description: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} FAIL ({time.perf_counter() - t0:6.1f}s): {description}")
        raise
    print(f"ACCEPTANCE {num:2d} PASS ({time.perf_counter() - t0:6.1f}s): {description}")


def _invariants_via_cli(tmp_path, n, m):
    out = tmp_path / f"inv_{n}_{m}.json"
    assert main(["invariants", str(n), str(m), "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_criterion_01_quartic_golden_triple(tmp_path):
    with criterion(1, "quartic golden triple m = 2, 73, 13"):
        inv2 = _invariants_via_cli(tmp_path, 4, 2)
        assert inv2["g"] == 1 and inv2["alpha_monogenic"] is True
        inv73 = _invariants_via_cli(tmp_path, 4, 73)
        assert inv73["alpha_monogenic"] is False
        assert inv73["g"] in (2, 4, 8, 16)
        assert (4**4) % (inv73["g"] ** 2) == 0
        inv13 = _invariants_via_cli(tmp_path, 4, 13)
        assert inv13["g"] == 4
        cert = inv13["certificate"]
        assert cert is not None and cert["q"] == 13 and cert["witness"] == 3


def test_criterion_02_sign_killing_and_residue_tests():
    with criterion(2, "sign-killing to 1e5 and brute-force residue agreement to 2000"):
        for q in prime_sieve(10**5):
            if q % 12 == 1:
                assert pow(q - 1, (q - 1) // 6, q) == 1, q
        for q in prime_sieve(2000):
            if (q - 1) % 6 != 0:
                continue
            powers = {pow(a, 6, q) for a in range(1, q)}
            for g in list(range(1, 30)) + [q - 1]:
                if g % q == 0:
                    continue
                assert is_nth_power_residue(g, 6, q) == (g % q in powers), (g, q)


def test_criterion_03_local_coset_rigidity():
    with criterion(3, "local coset rigidity at (4,13,13), (5,7,7), (6,11,11)"):
        for n, m, q in [(4, 13, 13), (5, 7, 7), (6, 11, 11)]:
            report = local_coset_check(n, m, q, trials=10**4, seed=2024)
            assert report.failures == 0, (n, m, q)
        control = local_coset_check(4, 13, 13, trials=10**4, seed=2024, uniformizer_only=False)
        assert control.failures > 0


def test_criterion_04_alpha_monogenic_density():
    with criterion(4, "alpha-monogenic density at n = 4 (0.5%) and n = 6 (1%)"):
        rep4 = alpha_density(4, 10**6, [10**4, 10**5, 10**6])
        assert abs(rep4.densities[-1] - rep4.target) / rep4.target < 0.005
        rep6 = alpha_density(6, 10**6, [10**4, 10**5, 10**6])
        assert abs(rep6.densities[-1] - rep6.target) / rep6.target < 0.01
        assert rep4.checkpoints.counts[-1] == count_squarefree_not_1_mod_4(10**6)


def test_criterion_05_chebotarev_fraction():
    with criterion(5, "P_4 prime fraction near 1/6 and stable divisor snap"):
        pg = enumerate_Pg(4, 6, 10**6)
        n_primes = len(prime_array(10**6))
        fraction = len(pg) / n_primes
        assert abs(fraction - 1 / 6) / (1 / 6) < 0.03
        half = estimate_delta(4, 6, 5 * 10**5)
        full = estimate_delta(4, 6, 10**6)
        assert half.l_over_k == full.l_over_k == 3


def test_criterion_06_mertens_slope():
    with criterion(6, "Mertens slope within 25% of 1/6 over [1e4, 1e7]"):
        rep = mertens_sum(4, 6, 10**7, [10**4, 10**5, 10**6, 10**7])
        assert abs(rep.slope - 1 / 6) / (1 / 6) < 0.25
        assert all(b >= a for a, b in zip(rep.sums, rep.sums[1:]))


def test_criterion_07_logpower_decay():
    with criterion(7, "P_4-free decay: decreasing ratios, exponent in [0.10, 0.23]"):
        cp = pg_free_counts(4, 6, 10**7, [10**4, 10**5, 10**6, 10**7])
        ratios = [c / x for c, x in zip(cp.counts, cp.xs)]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        fit = logpower_fit(cp)
        assert 0.10 <= fit.exponent <= 0.23
        assert fit.constant > 0
        xs = (10**7, 10**8, 10**9, 10**10)
        synthetic = Checkpoints(
            xs=xs,
            counts=tuple(round(x / math.log(x) ** (1 / 6)) for x in xs),
            label="planted exponent 1/6",
        )
        assert abs(logpower_fit(synthetic).exponent - 1 / 6) < 1e-6


def test_criterion_08_density_zero_trend(exceptional_4_1e5):
    with criterion(8, "exceptional scan: P_4-free ratio strictly decreasing for g = 4"):
        row = exceptional_4_1e5.row(4)
        assert exceptional_4_1e5.xs == (10**3, 10**4, 10**5)
        assert all(b < a for a, b in zip(row.ratios, row.ratios[1:])), row.ratios
        # definition recheck on a random sample of counted members
        rng = random.Random(404)
        free_members = [(g, m) for g, m, free in exceptional_4_1e5.members if free]
        for g, m in rng.sample(free_members, 100):
            assert all(not in_Pg(q, g, 6) for q in prime_divisors(m)), (g, m)


def test_criterion_09_trinomial_family():
    with criterion(9, "trinomial family: disc oracle, rho, monogenicity, Euler product"):
        for n in range(2, 9):
            for t in range(-50, 51):
                if t != 0:
                    trinomial_data(n, t).verify_against_resultant()
        for n in (4, 5, 6, 7, 8):
            for ell in prime_sieve(100):
                rho_ell2(n, ell)  # raises on brute-force/closed-form mismatch
        assert (rho_ell2(4, 2), rho_ell2(4, 3), rho_ell2(4, 5)) == (2, 1, 2)
        members = [t for t in range(-500, 501) if abs(t) > 1 and in_Tn(4, t)]
        assert len(members) > 100
        for t in members:
            assert trinomial_monogenic_check(4, t), t
        bracket = euler_product_S(4, 10**5)
        assert bracket.upper - bracket.lower < 1e-4
        density = squarefree_value_count(4, 10**6) / 10**6
        assert abs(density - bracket.value) / bracket.value < 0.01


def test_criterion_10_fixed_index_twist():
    with criterion(10, "fixed-index twist: ten indices of 64 and the exact twisted disc"):
        found = []
        t = 2
        while len(found) < 10:
            if math.gcd(t, 2) == 1 and in_Tn(4, t):
                found.append(t)
            t += 1
        for t in found:
            assert twist_index_check(4, 2, t) == 64
            assert poly_disc_resultant(twist_poly(4, 2, t)) == 2**12 * t**3 * (256 - 27 * t)


def test_criterion_11_thin_family():
    with criterion(11, "thin family: members to 1e5 all monogenic at index 64, density 1/2"):
        count = 0
        for q in prime_sieve(10**5):
            if not thin_Pn_member(4, 2, q):
                continue
            rep = thin_family_check(4, 2, q)
            assert rep.alpha_monogenic_of_q, q
            assert rep.distinguished_index == 64, q
            count += 1
        assert count > 1000
        _, _, ratio = thin_member_density(4, 2, 10**6)
        assert abs(ratio - 0.5) / 0.5 < 0.02


def test_criterion_12_structural_invariants():
    with criterion(12, "structural invariants: disc identity, index-form laws, idempotence"):
        computed = []
        for n, bound in ((4, 120), (5, 40), (6, 40)):
            for k in range(2, bound + 1):
                for m in (k, -k):
                    if not is_squarefree(m) or not binomial_irreducible(n, m):
                        continue
                    g, maximal = pure_maximal_order(n, m)
                    power = EquationOrder.power_order(pure_poly(n, m))
                    assert order_disc(power) == g * g * order_disc(maximal), (n, m)
                    computed.append((n, maximal))
        rng = random.Random(31337)
        pool = [maximal for _, maximal in computed]
        for _ in range(1000):
            order = rng.choice(pool)
            n = order.degree
            N = n * (n - 1) // 2
            beta = tuple(rng.randrange(-3, 4) for _ in range(n))
            base = index_form_value(order, beta)
            c = rng.randrange(-8, 9)
            assert index_form_value(order, (beta[0] + c,) + beta[1:]) == base
            u = rng.choice([-2, 2, 3])
            assert index_form_value(order, tuple(u * b for b in beta)) == u**N * base
        for n, maximal in computed[::7]:
            for p in prime_divisors(n):
                again = p_saturate(maximal, p)
                assert again == maximal
