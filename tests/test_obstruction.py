import math
import random
from fractions import Fraction

import numpy as np
import pytest

from eosieve.arith import is_nth_power_residue, prime_sieve
from eosieve.errors import AmbiguousSnapError, ConsistencyError
from eosieve.obstruction import (
    _COSET_BLOCK,
    KummerData,
    _coset_draws,
    _gf_dets,
    _pg_capacity,
    _pg_table,
    ObstructionCertificate,
    obstruction_certificate,
    enumerate_Pg,
    estimate_delta,
    in_Pg,
    kummer_data,
    local_coset_check,
    _power_matrices,
)
from eosieve.orders import (
    EquationOrder,
    _bareiss_det,
    _poly_mul,
    _reduce_mod_poly,
    index_form_value,
)
from eosieve.purefield import pure_index, pure_poly


def test_kummer_data_examples():
    kd = kummer_data(4, 6)
    assert (kd.h, kd.d, kd.b, kd.nontrivial) == (2, 2, 3, True)
    kd = kummer_data(8, 6)
    assert (kd.h, kd.d, kd.b, kd.nontrivial) == (2, 3, 2, True)
    kd = kummer_data(64, 6)
    assert (kd.d, kd.b, kd.nontrivial) == (6, 1, False)


def test_kummer_data_quadratic_subfield_cases():
    # N = 6: Q(zeta_12) contains sqrt(3), sqrt(-1), sqrt(-3) but not sqrt(2)
    # g = 27 = 3^3: b = 2, kernel 3, disc(Q(sqrt 3)) = 12 | 12, so trivial
    kd = kummer_data(27, 6)
    assert kd.b == 2 and not kd.nontrivial
    # g = 2^3 = 8 gives sqrt(2), disc 8 does not divide 12
    assert kummer_data(8, 6).nontrivial


def test_kummer_data_validation():
    with pytest.raises(ValueError):
        KummerData(g=4, N=6, h=2, d=3, b=2, nontrivial=True)  # h^d != g
    with pytest.raises(ValueError):
        KummerData(g=64, N=6, h=2, d=6, b=1, nontrivial=True)  # b = 1 forces trivial
    with pytest.raises(ValueError):
        KummerData(
            g=4, N=6, h=2, d=2, b=3, nontrivial=True, l_over_k=3, delta=Fraction(1, 7)
        )


def test_in_Pg_examples():
    assert in_Pg(13, 4, 6)
    assert not in_Pg(11, 4, 6)
    assert in_Pg(37, 4, 6)
    assert not in_Pg(73, 8, 6)  # ord(2) = 9 mod 73, so 8 is a 6th power


@pytest.mark.parametrize("g, N", [(4, 6), (8, 6), (2, 3)])
def test_in_Pg_is_false_off_the_primes(g, N):
    members = set(enumerate_Pg(g, N, 2000))
    for q in range(-5, 2001):
        assert in_Pg(q, g, N) == (q in members), q


def test_in_Pg_brute_force_agreement():
    for g in (2, 3, 4, 8):
        for q in prime_sieve(2000):
            if q % 12 != 1:
                assert not in_Pg(q, g, 6)
                continue
            powers = {pow(a, 6, q) for a in range(1, q)}
            expected = (12 * g) % q != 0 and g % q not in powers
            assert in_Pg(q, g, 6) == expected, (g, q)


def test_enumerate_Pg_examples():
    assert enumerate_Pg(4, 6, 40) == [13, 37]
    assert enumerate_Pg(4, 6, 0) == enumerate_Pg(4, 6, -5) == []
    assert enumerate_Pg(64, 6, 10**5) == []
    pg = enumerate_Pg(4, 6, 3000)
    assert all(in_Pg(q, 4, 6) for q in pg)
    assert pg == sorted(pg)


def _candidates(g, N, limit):
    """The candidate count and the members of P_g, as a list."""
    count, members = _pg_table(g, N, limit)
    return count, members.tolist()


@pytest.mark.parametrize(
    "g", [2, 4, 5, 13 * 37, 1626, 2**32 - 5, 2**70 + 3, 3**64, 13 * 37 * 2**64]
)
def test_pg_candidates_match_scalar_loop(g):
    # pow_mod takes g < 2^32 unreduced: 4 on 4-bit digits, 5 on 3-bit ones,
    # 1626 and 2^32 - 5 on single bits, each above the small candidates q.
    # 2^70 + 3, 3^64 and 13 * 37 * 2^64 do not fit in 64 bits and are reduced
    # mod q first, the last to 0 at q = 13 and 37.
    primes = prime_sieve(10**5)
    for N in (2, 3, 6, 28, 66):
        count, members = _candidates(g, N, 10**5)
        assert count == len([q for q in primes if q % (2 * N) == 1 and (2 * N * g) % q])
        assert members == [q for q in primes if in_Pg(q, g, N)]


def test_pg_candidates_below_2N_plus_1_are_empty():
    assert _candidates(4, 6, 12) == (0, [])
    assert _candidates(4, 6, 13) == (1, [13])
    # 2N does not fit in int64 and exceeds the limit
    assert enumerate_Pg(4, 10**30, 1000) == []


def test_pg_candidates_sample_guard(monkeypatch):
    import eosieve.obstruction as obstruction

    pow_mod = obstruction.pow_mod

    def off_by_one(base, exp, modulus):
        return (pow_mod(base, exp, modulus) + 1) % modulus

    monkeypatch.setattr(obstruction, "pow_mod", off_by_one)
    _pg_table.cache_clear()  # a cached P_g would skip the patched pass
    with pytest.raises(ConsistencyError, match="pow_mod gives"):
        enumerate_Pg(4, 6, 10**4)


def test_pg_candidates_sample_guard_reaches_every_block(monkeypatch):
    import eosieve.obstruction as obstruction

    pow_mod = obstruction.pow_mod
    calls = []

    def off_by_one_after_the_first_block(base, exp, modulus):
        calls.append(len(modulus))
        residues = pow_mod(base, exp, modulus)
        return residues if len(calls) == 1 else (residues + 1) % modulus

    # 300 candidates q = 1 mod 12 below 10^4, in one window of five blocks
    monkeypatch.setattr(obstruction, "_PG_BLOCK", 64)
    monkeypatch.setattr(obstruction, "pow_mod", off_by_one_after_the_first_block)
    _pg_table.cache_clear()
    with pytest.raises(ConsistencyError, match="pow_mod gives"):
        enumerate_Pg(4, 6, 10**4)
    assert len(calls) > 1 and calls[0] == 64


@pytest.mark.parametrize("N", [2, 3, 6, 28, 66])
def test_pg_capacity_bounds_the_candidates(N):
    primes = prime_sieve(10**5)
    # limits at and just past 2N + 1, where log(limit / 2N) is near 0, and
    # below 1, where the progression has no terms
    for limit in (-5, 0, 2 * N, 2 * N + 1, 2 * N + 2, 4 * N + 2, 1000, 10**5):
        candidates = sum(1 for q in primes if q <= limit and q % (2 * N) == 1)
        assert candidates <= _pg_capacity(N, limit) <= max(0, (limit - 1) // (2 * N))


def test_pg_capacity_one_too_small_raises(monkeypatch):
    import eosieve.obstruction as obstruction

    _pg_table.cache_clear()
    members = enumerate_Pg(4, 6, 10**5)
    monkeypatch.setattr(obstruction, "_pg_capacity", lambda N, limit: len(members))
    _pg_table.cache_clear()
    assert enumerate_Pg(4, 6, 10**5) == members  # an exact bound is enough
    monkeypatch.setattr(obstruction, "_pg_capacity", lambda N, limit: len(members) - 1)
    _pg_table.cache_clear()
    with pytest.raises(ConsistencyError, match="Brun-Titchmarsh"):
        enumerate_Pg(4, 6, 10**5)


def test_pg_table_warm_call_returns_the_cold_result(monkeypatch):
    import eosieve.obstruction as obstruction

    passes = []
    progression_primes = obstruction._progression_primes

    def counted(*args):
        passes.append(args)
        return progression_primes(*args)

    monkeypatch.setattr(obstruction, "_progression_primes", counted)
    _pg_table.cache_clear()
    count, members = _pg_table(4, 6, 10**5)
    assert len(passes) == 1
    warm_count, warm_members = _pg_table(4, 6, 10**5)
    assert warm_count == count and warm_members is members
    assert len(passes) == 1  # the warm calls read the table
    assert not members.flags.writeable
    with pytest.raises(ValueError):
        members[0] = 1
    assert members.dtype == np.uint32
    assert members.tolist() == [q for q in prime_sieve(10**5) if in_Pg(q, 4, 6)]
    assert count == sum(1 for q in prime_sieve(10**5) if q % 12 == 1 and q != 2)
    # the consumers read the same table: no further pass for this key
    assert enumerate_Pg(4, 6, 10**5) == members.tolist()
    kd = estimate_delta(4, 6, 10**5)
    assert kd.l_over_k == 3 and len(passes) == 1
    # another key replaces the one entry and costs one more pass
    _pg_table(4, 6, 10**4)
    _pg_table(4, 6, 10**5)
    assert len(passes) == 3


def test_pg_table_refusals_raise_on_every_call():
    _pg_table.cache_clear()
    for _ in range(3):
        with pytest.raises(ValueError, match="2\\^32"):
            _pg_table(4, 6, 2**32)
        with pytest.raises(ValueError, match="g >= 2"):
            _pg_table(1, 6, 1000)
        with pytest.raises(ValueError, match="g >= 2"):
            enumerate_Pg(1, 6, 1000)
    assert _pg_table.cache_info().currsize == 0


def test_pg_limit_of_2_32_is_refused_before_sieving(monkeypatch):
    import eosieve.obstruction as obstruction

    def progression_primes(*args):
        raise AssertionError("the prime sieve was built")

    monkeypatch.setattr(obstruction, "_progression_primes", progression_primes)
    with pytest.raises(ValueError, match="2\\^32"):
        enumerate_Pg(4, 6, 2**32)
    with pytest.raises(ValueError, match="2\\^32"):
        estimate_delta(4, 6, 2**32)


def test_estimate_delta_examples():
    kd = estimate_delta(4, 6, 10**6)
    assert kd.l_over_k == 3 and kd.delta == Fraction(1, 6)
    kd = estimate_delta(8, 6, 10**6)
    assert kd.l_over_k == 2 and kd.delta == Fraction(1, 8)
    with pytest.raises(ValueError):
        estimate_delta(64, 6, 10**6)  # trivial class
    with pytest.raises(ValueError):
        estimate_delta(4, 6, 10**4)  # budget too small


def test_ambiguous_snap_error_payload():
    err = AmbiguousSnapError(0.41, (2, 3))
    assert err.phi_hat == 0.41
    assert err.candidates == (2, 3)
    assert "increase prime_budget" in str(err)
    assert isinstance(err, ValueError)


def test_estimate_delta_snap_stability():
    for g in (2, 3, 4, 8):
        a = estimate_delta(g, 6, 5 * 10**5)
        b = estimate_delta(g, 6, 10**6)
        assert a.l_over_k == b.l_over_k, g
        assert a.delta == b.delta


def test_obstruction_certificate_golden():
    cert = obstruction_certificate(4, 13)
    assert cert is not None
    assert (cert.q, cert.g, cert.witness, cert.N) == (13, 4, 3, 6)
    assert cert.to_json_dict() == {"n": 4, "m": 13, "g": 4, "q": 13, "witness": 3, "N": 6}
    assert obstruction_certificate(4, 2) is None
    assert obstruction_certificate(4, 73) is None


@pytest.mark.parametrize("m, g", [(3, 1), (5, 2), (13, 2), (-3, 2)])
def test_obstruction_certificate_at_degree_two(m, g):
    # N = 1: every unit mod q is a first power, so P_g is empty
    assert pure_index(2, m).g == g
    assert obstruction_certificate(2, m) is None


def test_obstruction_certificate_picks_smallest_prime():
    # m = 13 * 3 = 39 = 3 mod 4 is criterion-monogenic, so use a scan instead:
    # collect every certificate over a window and check the soundness chain
    found = 0
    for m in range(-200, 201):
        if abs(m) <= 1:
            continue
        from eosieve.arith import is_squarefree, prime_divisors

        if not is_squarefree(m):
            continue
        cert = obstruction_certificate(4, m)
        if cert is None:
            continue
        found += 1
        assert m % cert.q == 0
        assert cert.g % cert.q != 0
        assert cert.q % 12 == 1
        assert cert.witness == pow(cert.g, (cert.q - 1) // 6, cert.q) != 1
        # smallest qualifying divisor
        smaller = [q for q in prime_divisors(m) if q < cert.q]
        assert all(not in_Pg(q, cert.g, 6) for q in smaller)
    assert found > 0


def test_certificate_validation():
    with pytest.raises(ValueError):
        ObstructionCertificate(n=4, m=13, g=4, q=11, witness=3)  # 11 not 1 mod 12
    with pytest.raises(ValueError):
        ObstructionCertificate(n=4, m=14, g=4, q=13, witness=3)  # 13 does not divide 14
    with pytest.raises(ValueError):
        ObstructionCertificate(n=4, m=13, g=4, q=13, witness=4)  # wrong witness


@pytest.mark.parametrize("N", [6, 10, 15])
def test_minus_one_residue_sign_killing(N):
    # -1 = g^((q-1)/2) for a generator g, an N-th power when 2N | q - 1
    for q in prime_sieve(10**5):
        if q % (2 * N) == 1:
            assert is_nth_power_residue(q - 1, N, q), (q, N)


def test_minus_one_residue_precondition():
    with pytest.raises(ValueError):
        is_nth_power_residue(10, 6, 11)


COSET_INSTANCES = [(4, 13, 13), (5, 7, 7), (6, 11, 11), (4, -13, 13), (6, 55, 11)]


@pytest.mark.parametrize("n,m,q", COSET_INSTANCES)
def test_local_coset_zero_failures(n, m, q):
    report = local_coset_check(n, m, q, trials=2000, seed=7)
    assert report.failures == 0
    assert report.trials == 2000
    assert report.base_class == 1


def test_local_coset_negative_control():
    report = local_coset_check(4, 13, 13, trials=2000, seed=7, uniformizer_only=False)
    assert report.failures > 0


def test_local_coset_deterministic():
    a = local_coset_check(4, 13, 13, trials=500, seed=123, uniformizer_only=False)
    b = local_coset_check(4, 13, 13, trials=500, seed=123, uniformizer_only=False)
    assert a == b
    c = local_coset_check(4, 13, 13, trials=500, seed=124, uniformizer_only=False)
    assert c.seed != a.seed


def test_local_coset_preconditions():
    with pytest.raises(ValueError):
        local_coset_check(4, 13, 11, trials=10, seed=0)  # 11 does not divide 13
    with pytest.raises(ValueError):
        local_coset_check(6, 55, 5, trials=10, seed=0)  # 5 divides N = 15
    with pytest.raises(ValueError):
        local_coset_check(4, 12, 2, trials=10, seed=0)  # 12 not squarefree
    with pytest.raises(ValueError, match="q must be prime"):
        local_coset_check(4, 30, 15, trials=200, seed=0)  # 15 | 30 but is composite


def _reference_failures(n, m, q, trials, seed, uniformizer_only):
    """Failures of local_coset_check by the one-trial-at-a-time loop over _bareiss_det."""
    N = n * (n - 1) // 2
    exponent = (q - 1) // math.gcd(N, q - 1)
    poly = pure_poly(n, m)
    rng = random.Random(seed)
    failures = 0
    for _ in range(trials):
        b = [rng.randrange(q) for _ in range(n)]
        if uniformizer_only:
            b[1] = rng.randrange(1, q)
        rows = [[1] + [0] * (n - 1), b]
        cur = b
        for _ in range(n - 2):
            cur = [x % q for x in _reduce_mod_poly(_poly_mul(cur, b), poly)]
            rows.append(cur)
        if pow(_bareiss_det(rows) % q, exponent, q) != 1:
            failures += 1
    return failures


@pytest.mark.parametrize(
    "n, m, q",
    [(2, 6, 2), (3, 10, 5), (4, 13, 13), (6, -35, 7), (7, 22, 11), (9, 26, 13), (4, 4294967291, 4294967291)],
)
def test_power_matrix_dets_match_gf_echelon(n, m, q):
    rng = random.Random(f"{n}:{m}:{q}")
    bs = [[rng.randrange(q) for _ in range(n)] for _ in range(300)]
    bs += [[rng.randrange(q)] + [0] * (n - 1) for _ in range(5)]  # rank 1
    bs += [[0, 0] + [rng.randrange(q) for _ in range(n - 2)] for _ in range(5)]  # b_1 = 0
    dets = _gf_dets(_power_matrices(np.array(bs, dtype=np.uint64), q), q)
    order = EquationOrder.power_order(pure_poly(n, m))
    for b, det in zip(bs, dets.tolist()):
        assert det == index_form_value(order, b) % q, b
        assert det == pow(b[1], n * (n - 1) // 2, q), b


@pytest.mark.parametrize("q", [2, 3, 13, 4294967291])
def test_gf_dets_match_gf_echelon_on_arbitrary_matrices(q):
    # sparse matrices and permuted identities need row swaps, which power
    # matrices of local generators never do
    rng = random.Random(q)
    for n in range(1, 8):
        mats = []
        for _ in range(60):
            mats.append([[rng.randrange(q) if rng.random() < 0.4 else 0 for _ in range(n)] for _ in range(n)])
        for _ in range(10):
            perm = rng.sample(range(n), n)
            mats.append([[rng.randrange(1, q) if j == perm[i] else 0 for j in range(n)] for i in range(n)])
        dets = _gf_dets(np.array(mats, dtype=np.uint64), q)
        assert dets.tolist() == [_bareiss_det(a) % q for a in mats], (q, n)


def test_gf_dets_inverts_once_per_block(monkeypatch):
    import eosieve.obstruction as obstruction

    calls = []
    pow_mod = obstruction.pow_mod

    def counting(*args):
        calls.append(args)
        return pow_mod(*args)

    monkeypatch.setattr(obstruction, "pow_mod", counting)
    rng = random.Random(9)
    q = 13
    # singular matrices and ones that need row swaps, beside generic ones
    mats = [[[rng.randrange(q) for _ in range(9)] for _ in range(9)] for _ in range(50)]
    mats += [[[0] * 9] + [[rng.randrange(q) for _ in range(9)] for _ in range(8)]]
    mats += [[row[:1] + [0] + row[2:] for row in mats[0]]]
    dets = _gf_dets(np.array(mats, dtype=np.uint64), q)
    assert len(calls) == 1
    assert dets.tolist() == [_bareiss_det(a) % q for a in mats]
    assert dets[-2] == 0 and dets[-1] == 0


@pytest.mark.parametrize(
    "n, m, q, trials",
    [
        (4, 13, 13, _COSET_BLOCK + 37),  # two blocks, the last one partial
        (6, -35, 7, 2 * _COSET_BLOCK),
        (4, 4294967291, 4294967291, 300),  # q just below 2^32, batched
        (4, 4294967311, 4294967311, 100),  # q above 2^32, scalar path
    ],
)
def test_local_coset_check_matches_the_scalar_loop(n, m, q, trials):
    for uniformizer_only in (True, False):
        report = local_coset_check(n, m, q, trials, seed=3, uniformizer_only=uniformizer_only)
        assert report.failures == _reference_failures(n, m, q, trials, 3, uniformizer_only)
    assert report.trials == trials


@pytest.mark.parametrize(
    "n, m, q, seed, failures",
    # failures of the negative control over 500 trials, captured while the
    # trials ran one at a time
    [(4, 13, 13, 0, 37), (6, -35, 7, 3, 60), (5, 22, 11, 9, 47)],
)
def test_local_coset_negative_control_is_pinned(n, m, q, seed, failures):
    report = local_coset_check(n, m, q, trials=500, seed=seed, uniformizer_only=False)
    assert (report.failures, report.base_class) == (failures, 1)


def test_local_coset_identity_guard_catches_a_bad_eliminator(monkeypatch):
    import eosieve.obstruction as obstruction

    eliminate = obstruction._gf_dets

    def off_by_one(mats, q):
        dets = eliminate(mats, q)
        dets[-1] = (dets[-1] + 1) % q
        return dets

    monkeypatch.setattr(obstruction, "_gf_dets", off_by_one)
    with pytest.raises(ConsistencyError, match="b_1\\^N"):
        local_coset_check(4, 13, 13, trials=50, seed=0)


def test_local_coset_identity_guard_covers_the_scalar_path(monkeypatch):
    import eosieve.obstruction as obstruction

    exact = obstruction.index_form_value
    monkeypatch.setattr(
        obstruction,
        "index_form_value",
        lambda order, beta: exact(order, beta) + 1,
    )
    with pytest.raises(ConsistencyError, match="b_1\\^N"):
        local_coset_check(4, 4294967311, 4294967311, trials=20, seed=0)


def test_local_coset_scalar_spot_check_catches_a_disagreement(monkeypatch):
    import eosieve.obstruction as obstruction

    # the eliminator stays right, so only the scalar recomputation differs
    monkeypatch.setattr(obstruction, "index_form_value", lambda order, beta: -1)
    with pytest.raises(ConsistencyError, match="batched and scalar"):
        local_coset_check(4, 13, 13, trials=50, seed=0)


@pytest.mark.parametrize("uniformizer_only", [True, False])
def test_local_coset_report_does_not_depend_on_the_block_size(monkeypatch, uniformizer_only):
    import eosieve.obstruction as obstruction

    report = local_coset_check(6, -35, 7, 1300, seed=5, uniformizer_only=uniformizer_only)
    monkeypatch.setattr(obstruction, "_COSET_BLOCK", 100)
    assert local_coset_check(6, -35, 7, 1300, seed=5, uniformizer_only=uniformizer_only) == report


def test_local_coset_blocks_shrink_with_the_square_of_the_degree(monkeypatch):
    import eosieve.obstruction as obstruction

    shapes = []

    def first_block_only(bs, q):
        shapes.append(bs.shape)
        raise RuntimeError("first block seen")

    monkeypatch.setattr(obstruction, "_power_matrices", first_block_only)
    with pytest.raises(RuntimeError, match="first block seen"):
        local_coset_check(129, 5, 5, trials=1000, seed=0)
    # 512 * 128^2 // 129^2: at most 512 * 128^2 entries per (trials, n, n) array
    assert shapes == [(504, 129)]


@pytest.mark.parametrize("q", [2, 3, 5, 65537, 2**31 - 1, 2**61 - 1])
@pytest.mark.parametrize("uniformizer_only", [True, False])
def test_coset_draws_reproduce_randrange(q, uniformizer_only):
    ref, rng = random.Random(q), random.Random(q)
    expected = []
    for _ in range(200):
        b = [ref.randrange(q) for _ in range(6)]
        if uniformizer_only:
            b[1] = ref.randrange(1, q)
        expected.append(b)
    assert _coset_draws(rng, 6, q, 200, uniformizer_only) == expected
    assert rng.getstate() == ref.getstate()
