"""Exact arithmetic in equation orders of Q[x]/(f) for monic integer f.

An order is a full-rank lattice, closed under multiplication, inside the
rational vector space spanned by the power basis 1, θ, ..., θ^(n-1).  Bases
are kept in a canonical lower-triangular Hermite form over a common
denominator, so lattice equality is plain structural equality.

Order coordinates come from one batched integer back-substitution over the
common denominator (n numpy steps for all right-hand sides, a whole
multiplication table included); an inexact division raises the caller's
typed error.  An int64 solve checks itself for overflow (_back_substitute).
Fractions appear only at the API edge (`basis_element`, `coordinates`).
numpy arrays carry exact integers only, never floats.

Saturation at a prime p enlarges an order by the elements of p-power
denominator that are integral, iterating one enlargement round until stable.
The round computes the multiplier ring of the p-radical by exact arithmetic
mod p^2 on integer arrays, with the kernels over GF(p) taken by XOR
elimination on rows packed into integers at p = 2 and by Gauss-Jordan
elimination on Python rows at odd p.  Its fixed points are the p-maximal
orders, so the test suite's brute-force oracle reaches the same order.

Rounds from any order between Z[θ] and the p-saturation reach the same
p-saturation, and p_saturate owns where they start for a power order: when
f(x) = F(x^p), p^2 | deg f and p does not divide f(0), from the lifted
p-saturation of F's power order, so few rounds run at deg f; otherwise
from the overorder that Dedekind's criterion builds over GF(p), which is
the first round's, and none when that is Z[θ].  A start that is not an
order raises ConsistencyError, and so do two confirmations: the first
Dedekind starts (_DEDEKIND_CONFIRMATIONS per degree and verdict) must equal
a full round, and the first tower saturations (_TOWER_CONFIRMATIONS per
degree up to 32) the saturation from Dedekind's start, in each process.
equation_order_index sums p-saturations and is the one reader of an index
from them.  MonicPolynomial refuses with ValueError a degree whose (n, n, n)
tables would exceed _TABLE_BUDGET, so every order, resultant and index form
of such a degree is refused before any work that grows with n.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import is_probable_prime
from .errors import ConsistencyError, ContainmentError, NotClosedError

__all__ = [
    "EquationOrder",
    "MonicPolynomial",
    "equation_order_index",
    "index_form_value",
    "multiplication_table",
    "order_disc",
    "order_index",
    "p_saturate",
    "poly_disc_resultant",
]


# The largest (n, n, n) array, at 8 bytes an entry (int64 or dtype object's
# pointer), so n <= 256; a round holds several (533 MB at n = 210)
_TABLE_BUDGET = 1 << 27


@dataclass(frozen=True)
class MonicPolynomial:
    """x^n + c_{n-1} x^{n-1} + ... + c_0, stored by its low coefficients."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        n = len(self.coeffs)
        if n < 2:
            raise ValueError("degree must be at least 2")
        if 8 * n**3 > _TABLE_BUDGET:
            raise ValueError(f"degree {n} needs tables above the {_TABLE_BUDGET >> 20} MiB budget")
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def __str__(self) -> str:
        n = self.degree
        parts = [f"x^{n}"]
        for i in range(n - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            term = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
            mag = abs(c)
            coef = "" if (mag == 1 and i > 0) else str(mag)
            parts.append(("- " if c < 0 else "+ ") + coef + term)
        return " ".join(parts)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _hnf(rows: list[list[int]], n: int) -> list[list[int]]:
    """Lower-triangular row Hermite form with positive pivots.

    Input rows must span a rank-n lattice; off-pivot entries are reduced
    into [0, pivot).
    """
    work = [list(map(int, r)) for r in rows if any(r)]
    basis: list[list[int]] = []
    for j in range(n - 1, -1, -1):
        pivot_row = None
        remaining = []
        for r in work:
            if r[j] == 0:
                remaining.append(r)
            elif pivot_row is None:
                pivot_row = r
            else:
                a, b = pivot_row[j], r[j]
                g, u, v = _xgcd(a, b)
                ag, bg = a // g, b // g
                new_pivot = [u * x + v * y for x, y in zip(pivot_row, r)]
                new_rest = [ag * y - bg * x for x, y in zip(pivot_row, r)]
                pivot_row = new_pivot
                if any(new_rest):
                    remaining.append(new_rest)
        if pivot_row is None:
            raise ValueError("rows do not span a full-rank lattice")
        if pivot_row[j] < 0:
            pivot_row = [-x for x in pivot_row]
        basis.append(pivot_row)
        work = remaining
    basis.reverse()
    for i in range(1, n):
        for j in range(i - 1, -1, -1):
            q = basis[i][j] // basis[j][j]
            if q:
                bj = basis[j]
                basis[i] = [x - q * y for x, y in zip(basis[i], bj)]
    return basis


def _bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    a = [list(map(int, r)) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i = a[i]
            row_k = a[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[-1][-1]


def poly_disc_resultant(poly: MonicPolynomial) -> int:
    """Discriminant via (-1)^(n(n-1)/2) Res(f, f'), by exact elimination."""
    n = poly.degree
    f_desc = [1] + [poly.coeffs[i] for i in range(n - 1, -1, -1)]
    g_desc = [n] + [i * poly.coeffs[i] for i in range(n - 1, 0, -1)]  # f'
    size = 2 * n - 1
    syl = []
    for shift in range(n - 1):
        syl.append([0] * shift + f_desc + [0] * (size - shift - n - 1))
    for shift in range(n):
        syl.append([0] * shift + g_desc + [0] * (size - shift - n))
    res = _bareiss_det(syl)
    return (-1) ** (n * (n - 1) // 2) * res


def _divmod_monic(coeffs: list, low, p: int = 0) -> tuple[list, list]:
    """Quotient and remainder of an integer coefficient list by the monic
    x^n + low[n-1] x^(n-1) + ... + low[0], skipping its zero terms.

    With p, each quotient coefficient is reduced mod p, which keeps the
    numbers small and both results correct mod p.
    """
    n = len(low)
    terms = [(i - n, fi) for i, fi in enumerate(low) if fi]
    c = list(coeffs)
    c += [0] * (n - len(c))
    quot = [0] * (len(c) - n)
    for k in range(len(c) - 1, n - 1, -1):
        top = c.pop()
        if p:
            top %= p
        if top:
            quot[k - n] = top
            for i, fi in terms:
                c[k + i] -= top * fi
    return quot, c


def _reduce_mod_poly(coeffs: list, poly: MonicPolynomial) -> list:
    """Reduce an integer coefficient list modulo the monic poly."""
    return _divmod_monic(coeffs, poly.coeffs)[1]


def _poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for k, bj in enumerate(b, i):
                if bj:
                    out[k] += ai * bj
    return out


def _back_substitute(basis: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer c with c @ basis = rhs along the last axis of rhs, for a
    lower-triangular integer basis, in n numpy steps.

    Returns the coordinates and the mask of right-hand sides whose every
    pivot division was exact; the coordinates of the others are
    meaningless.  Entries above the diagonal of the basis are not read.

    The one overflow rule for order coordinates: an int64 solve checks
    itself afterwards.  Step j forms its products and partial sums from rhs
    and the coordinates already stored, so with C the largest stored
    |coordinate| none reaches max|rhs| + n C max|basis|.  While that is below
    2^62, the first step to wrap would have had exact inputs below that
    bound, so none wrapped and the result is exact; otherwise the solve is
    redone on Python integers (dtype object).
    """
    n = len(basis)
    coords = np.zeros_like(rhs)
    exact = np.ones(rhs.shape[:-1], dtype=bool)
    for j in range(n - 1, -1, -1):
        # coords[..., i] is still 0 for i <= j
        s = rhs[..., j] - coords @ basis[:, j]
        coords[..., j] = q = s // basis[j, j]
        exact &= q * basis[j, j] == s
    if coords.dtype != object:
        # not np.abs, which leaves -2^63 negative
        top_rhs, top_c, top_b = (max(int(a.max()), -int(a.min())) for a in (rhs, coords, basis))
        if top_rhs + n * top_c * top_b >= 1 << 62:
            return _back_substitute(basis.astype(object), rhs.astype(object))
    return coords, exact


@dataclass(frozen=True)
class EquationOrder:
    """A multiplication-closed full lattice in Q[x]/(f), in canonical form.

    Rows of `basis_numerators` divided by `denominator` are the basis
    elements in power-basis coordinates; row 0 is always the element 1.
    """

    poly: MonicPolynomial
    basis_numerators: tuple[tuple[int, ...], ...]
    denominator: int

    @classmethod
    def power_order(cls, poly: MonicPolynomial) -> "EquationOrder":
        n = poly.degree
        rows = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        return cls(poly, rows, 1)

    @classmethod
    def from_basis(cls, poly: MonicPolynomial, rows, denominator: int = 1) -> "EquationOrder":
        """Canonicalize generating rows (over a common denominator) into an order basis."""
        if denominator < 1:
            raise ValueError("denominator must be positive")
        n = poly.degree
        int_rows = [list(map(int, r)) for r in rows]
        if any(len(r) != n for r in int_rows):
            raise ValueError("rows must have length equal to the degree")
        g = math.gcd(denominator, *itertools.chain(*int_rows))
        if g > 1:
            denominator //= g
            int_rows = [[x // g for x in r] for r in int_rows]
        hnf = _hnf(int_rows, n)
        if hnf[0] != [denominator] + [0] * (n - 1):
            raise ValueError("lattice must contain 1 as a primitive element")
        return cls(poly, tuple(tuple(r) for r in hnf), denominator)

    @property
    def degree(self) -> int:
        return self.poly.degree

    def is_power_order(self) -> bool:
        n = self.degree
        return self.denominator == 1 and all(
            self.basis_numerators[i][j] == (1 if i == j else 0)
            for i in range(n)
            for j in range(n)
        )

    def basis_element(self, i: int) -> tuple[Fraction, ...]:
        """Power-basis coordinates of basis element i."""
        return tuple(Fraction(x, self.denominator) for x in self.basis_numerators[i])

    def coordinates(self, power_coords) -> tuple[Fraction, ...]:
        """Coordinates in this basis of an element given in power-basis coordinates.

        Scaling by the lcm of the denominators times the pivot product makes
        the solution integral; it is divided back at the end.
        """
        rhs = [Fraction(x) * self.denominator for x in power_coords]
        pivots = math.prod(row[i] for i, row in enumerate(self.basis_numerators))
        scale = math.lcm(*(x.denominator for x in rhs)) * pivots
        coords, exact = _back_substitute(
            np.array(self.basis_numerators, dtype=object),
            np.array([x.numerator * (scale // x.denominator) for x in rhs], dtype=object),
        )
        if not exact:
            raise ConsistencyError("scaled coordinates must be integral")
        return tuple(Fraction(c, scale) for c in coords)


# 16 tables hit as often as 256 on the benchmark, and hold 32 MiB at n = 64
@lru_cache(maxsize=16)
def _multiplication_table_cached(order: EquationOrder) -> np.ndarray:
    """Read-only (n, n, n) integer array of the structure constants.

    The power order's is P[a, b] = theta^(a+b) mod f.  For numerators B
    over d, d^2 e_i e_j is (B @ (B @ P))[i, j] in power coordinates, whose
    every entry and partial sum is at most n^2 max|B|^2 max|P|: int64 while
    that is below 2^62, Python integers (dtype object) otherwise.  The
    coordinates are solved by _back_substitute, under its overflow rule.  The
    degree is at most 256, by MonicPolynomial's budget.
    """
    n = order.degree
    if order.is_power_order():
        powers = [[1] + [0] * (n - 1)]
        for _ in range(2 * n - 2):
            powers.append(_reduce_mod_poly([0] + powers[-1], order.poly))
        dtype = np.int64 if max(map(abs, itertools.chain(*powers))) < 1 << 62 else object
        table = np.array([powers[a : a + n] for a in range(n)], dtype=dtype)
    else:
        power = _multiplication_table_cached(EquationOrder.power_order(order.poly))
        rows = order.basis_numerators
        beta = max(map(abs, itertools.chain(*rows)))
        dtype = np.int64 if n * n * beta**2 * int(np.abs(power).max()) < 1 << 62 else object
        basis = np.array(rows, dtype=dtype)
        power = power.astype(dtype, copy=False).reshape(n, n * n)
        num = basis @ (basis @ power).reshape(n, n, n)
        table, exact = _back_substitute(basis, num // order.denominator)
        # symmetric, so the first pair in row-major order has j >= i
        bad = ~exact | (num % order.denominator != 0).any(-1)
        if bad.any():
            raise NotClosedError(*map(int, np.argwhere(bad)[0]))
    table.setflags(write=False)
    return table


def multiplication_table(order: EquationOrder):
    """Structure constants c[i][j][k] with e_i * e_j = sum_k c[i][j][k] e_k.

    Raises NotClosedError naming the first offending pair (row-major, j >= i)
    when the lattice is not a ring.
    """
    return tuple(tuple(map(tuple, ti)) for ti in _multiplication_table_cached(order).tolist())


def index_form_value(order: EquationOrder, beta) -> int:
    """det of the matrix of 1, beta, ..., beta^(n-1) in the order's basis: the
    library's one exact power-matrix determinant.

    `beta` is given by integer coordinates in the order's basis, whose own
    orientation gives the sign.
    """
    table = _multiplication_table_cached(order).astype(object)
    times_beta = np.array([int(b) for b in beta], dtype=object) @ table  # row i: e_i * beta
    rows = [np.eye(order.degree, dtype=object)[0]]
    for _ in range(order.degree - 1):
        rows.append(rows[-1] @ times_beta)
    return _bareiss_det([row.tolist() for row in rows])


def order_index(sub: EquationOrder, sup: EquationOrder) -> int:
    """Lattice index [sup : sub] for sub contained in sup (same polynomial)."""
    if sub.poly != sup.poly:
        raise ValueError("orders must share the same polynomial")
    scaled = np.array(sub.basis_numerators, dtype=object) * sup.denominator
    coords, exact = _back_substitute(
        np.array(sup.basis_numerators, dtype=object), scaled // sub.denominator
    )
    if not exact.all() or (scaled % sub.denominator).any():
        raise ContainmentError("suborder is not contained in superorder")
    return abs(_bareiss_det(coords.tolist()))


def order_disc(order: EquationOrder) -> int:
    """Determinant of the trace form Tr(e_i e_j) on the order."""
    table = _multiplication_table_cached(order).astype(object)
    # Tr(e_k) is the trace of multiplication by e_k, sum_i table[k][i][i]
    return _bareiss_det((table @ np.trace(table, axis1=1, axis2=2)).tolist())


def _gf2_nullspace(matrix: np.ndarray) -> list[list[int]]:
    """_gf_nullspace at p = 2, on rows packed into Python ints (bit c for
    column c, 63 columns per int64 product with the powers of two).

    Rows are reduced by XOR against pivot rows keyed on their lowest set
    bit, and full rank returns at once.  The pivot rows are then fully
    reduced, so bit f of the row of pivot c is coordinate c of the vector of
    free column f.
    """
    ncols = matrix.shape[1]
    bits = (matrix % 2).astype(np.int64)
    packed = [0] * len(bits)
    for start in range(0, ncols, 63):
        chunk = bits[:, start : start + 63]
        words = chunk @ np.left_shift(1, np.arange(chunk.shape[1], dtype=np.int64))
        packed = [r | w << start for r, w in zip(packed, words.tolist())]
    pivots: dict[int, int] = {}  # lowest set bit -> row
    for r in packed:
        while r:
            low = r & -r
            if low not in pivots:
                pivots[low] = r
                break
            r ^= pivots[low]
        if len(pivots) == ncols:
            return []
    lows = sorted(pivots, reverse=True)
    for i, low in enumerate(lows):
        for higher in lows[:i]:
            if pivots[low] & higher:
                pivots[low] ^= pivots[higher]
    basis = []
    for f in range(ncols):
        if 1 << f in pivots:
            continue
        v = [0] * ncols
        v[f] = 1
        for low, row in pivots.items():
            if row >> f & 1:
                v[low.bit_length() - 1] = 1
        basis.append(v)
    return basis


def _gf_kernel(rows, p: int) -> list[list[int]]:
    """_gf_nullspace of integer rows at any prime p, by Gauss-Jordan.

    Pivot rows are keyed on their pivot column, each 1 there and 0 at every
    other pivot column; an incoming row is reduced against them, and full
    rank returns at once.  Entry f of the row of pivot c is then minus
    coordinate c of the vector of free column f.
    """
    ncols = len(rows[0]) if rows else 0
    pivots: dict[int, list[int]] = {}
    for row in rows:
        row = [a % p for a in row]
        for c, pivot_row in pivots.items():
            if f := row[c]:
                row = [(x - f * y) % p for x, y in zip(row, pivot_row)]
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is None:
            continue
        inv = pow(row[lead], p - 2, p)
        row = [x * inv % p for x in row]
        for c, pivot_row in pivots.items():
            if f := pivot_row[lead]:
                pivots[c] = [(x - f * y) % p for x, y in zip(pivot_row, row)]
        pivots[lead] = row
        if len(pivots) == ncols:
            return []
    return [
        [1 if c == f else -pivots[c][f] % p if c in pivots else 0 for c in range(ncols)]
        for f in range(ncols)
        if f not in pivots
    ]


def _gf_nullspace(matrix: np.ndarray, p: int) -> list[list[int]]:
    """Basis of {x : matrix . x = 0} over GF(p), one vector per free column.

    The vector of free column f is 1 at f, 0 at the other free columns and
    solved at the pivot columns, so the basis is unique; p = 2 packs rows
    into integers (_gf2_nullspace), odd p take _gf_kernel.
    """
    if p == 2:
        return _gf2_nullspace(matrix)
    return _gf_kernel(matrix.tolist(), p)


def _frobenius_matrix(table: np.ndarray, p: int) -> np.ndarray:
    """Matrix mod p of x -> x^(p^k), p^k >= n, for a table with entries in [0, p^2).

    x -> x^p is additive mod p, so with M the matrix whose rows are e_i^p
    mod p, x^(p^k) is x M^k: k - 1 products of n x n matrices.  The rows of
    M come from square-and-multiply with exponent p, batched over the basis;
    its first square e_i e_i is the table's diagonal, which at p = 2 is all
    of M.
    """
    n = len(table)
    flat = table.reshape(n, n * n)

    def mul_mod(u, v):
        """Row-wise products mod p of two stacks of n elements."""
        uv = (u @ flat % p).reshape(n, n, n)
        return (v[:, None, :] @ uv)[:, 0, :] % p

    diag = np.arange(n)
    power = table[diag, diag] % p
    frob = np.eye(n, dtype=table.dtype) if p & 1 else None
    e = p >> 1
    while True:
        if e & 1:
            frob = power if frob is None else mul_mod(frob, power)
        e >>= 1
        if not e:
            break
        power = mul_mod(power, power)
    m, reach = frob, p
    while reach < n:
        frob = frob @ m % p
        reach *= p
    return frob


def _saturation_round(order: EquationOrder, p: int) -> EquationOrder:
    """One multiplier-ring enlargement: Mult of the p-radical of O/pO.

    The work is exact arithmetic mod p and p^2 on integer arrays.  The
    radical is the kernel of x -> x^(p^k) with p^k >= n, whose matrix is a
    power of the matrix of x -> x^p (_frobenius_matrix).
    For the Hermite basis B of the radical ideal I, p e_j lies in I, so
    p e_j = sum_t C[j][t] b_t with C integral: C = p B^-1.  The matrix of
    e_i acting on I is then B T_i C / p for the table slice T_i; it is
    integral exactly when e_i I lies in I, which B T_i C = 0 mod p tests,
    and mod p it is (B T_i C mod p^2) / p.  B has entries in [0, p] and T
    and C are reduced below p^2, so no sum of n products reaches n p^4:
    int64 while that is below 2^62, Python integers (dtype object) beyond.
    C itself comes from _back_substitute, under its overflow rule.
    """
    n = order.degree
    q = p * p
    dtype = np.int64 if n * q * q < 1 << 62 else object
    table = _multiplication_table_cached(order)
    if dtype is object:
        table = table.astype(object)
    table = (table % q).astype(dtype, copy=False)
    # radical of O/pO: row vectors a with a . F = 0 for the Frobenius matrix F
    radical = _gf_nullspace(_frobenius_matrix(table, p).T, p)
    if not radical:
        return order
    ideal_rows = _hnf(
        [list(v) for v in radical] + [[p if i == j else 0 for j in range(n)] for i in range(n)],
        n,
    )
    error = ConsistencyError("expected integral coordinates in ideal basis")
    b = np.array(ideal_rows, dtype=dtype)
    c, exact = _back_substitute(b, p * np.eye(n, dtype=dtype))
    if not exact.all():
        raise error
    # the solve may have promoted c to dtype object
    action = (b @ table % q) @ (c % q).astype(dtype, copy=False) % q
    if (action % p).any():
        raise error
    # rows (j, t), columns i: coordinate t of e_i b_j in the basis of I
    flat = (action // p).transpose(1, 2, 0).reshape(n * n, n)
    kernel = _gf_nullspace(flat, p)
    if not kernel:
        return order
    # new order: pO plus the kernel combinations of the basis, over p (from_basis: HNF)
    basis = order.basis_numerators
    rows = [[p * x for x in row] for row in basis] + [
        [sum(v[k] * basis[k][j] for k in range(n)) for j in range(n)] for v in kernel
    ]
    return EquationOrder.from_basis(order.poly, rows, p * order.denominator)


def _gf_trim(a: list) -> list:
    """Drop the zero leading coefficients of an ascending list over GF(p)."""
    while a and not a[-1]:
        a.pop()
    return a


def _gf_divmod(a: list, b: list, p: int) -> tuple[list, list]:
    """Quotient and remainder over GF(p) of reduced a by a monic reduced b."""
    quot, rem = _divmod_monic(a, b[:-1], p)
    return quot, _gf_trim([x % p for x in rem])


def _gf_gcd(a: list, b: list, p: int) -> list:
    """Monic gcd over GF(p) of two reduced, trimmed lists, not both zero."""
    while b:
        inv = pow(b[-1], p - 2, p)
        b = [x * inv % p for x in b]
        a, b = b, _gf_divmod(a, b, p)[1]
    inv = pow(a[-1], p - 2, p)
    return [x * inv % p for x in a]


def _gf_radical(f: list, p: int) -> list:
    """The product of the distinct monic irreducible factors of a monic f over GF(p).

    f / gcd(f, f') carries the factors whose multiplicity p does not divide,
    which is all of them below degree p; otherwise the rest divide
    gcd(f, f'), whose radical is taken recursively.  When f' vanishes,
    f(x) = u(x^p) = u(x)^p and the radical is that of u.
    """
    if len(f) == 1:
        return f
    df = _gf_trim([i * c % p for i, c in enumerate(f)][1:])
    if not df:
        return _gf_radical(f[::p], p)
    c = _gf_gcd(f, df, p)
    w = _gf_divmod(f, c, p)[0]
    if len(f) <= p:
        return w
    r = _gf_radical(c, p)
    return _gf_divmod(_poly_mul(w, r), _gf_gcd(w, r, p), p)[0]


# Confirmations in each process: Dedekind starts per degree and verdict by a
# full round, and tower saturations per degree up to 32 by the start from
# Dedekind's order (about 3 s for x^64 - 5 and 14 s for x^81 - 10)
_DEDEKIND_CONFIRMATIONS = 8
_TOWER_CONFIRMATIONS = 2
_TOWER_CONFIRMATION_DEGREE = 32
_confirmed: Counter[tuple] = Counter()


def _dedekind_start(power: EquationOrder, p: int) -> EquationOrder:
    """The first enlargement of the power order at p, by Dedekind's criterion.

    With f = prod phi_i^e_i mod p, g = rad(f mod p), h = (f mod p)/g, G, H
    their lifts with coefficients in [0, p) and t = gcd((f - G H)/p, g, h)
    over GF(p), the multiplier ring of the p-radical is Z[theta] +
    U(theta)/p Z[theta] for the lift U of (f mod p)/t, of index p^deg t, and
    Z[theta] itself is p-maximal exactly when t = 1 (Cohen, A Course in
    Computational Algebraic Number Theory, Thm 6.1.4).  theta^i U(theta),
    i < deg t, has degree below n, so the rows p e_j and those span it.

    The first _DEDEKIND_CONFIRMATIONS starts per degree and verdict in each
    process must equal a saturation round, or ConsistencyError is raised.
    """
    f = list(power.poly.coeffs) + [1]
    fbar = [c % p for c in f]
    g = _gf_radical(fbar, p)
    h = _gf_divmod(fbar, g, p)[0]
    big_f = _gf_trim([(a - b) // p % p for a, b in zip(f, _poly_mul(g, h))])
    t = _gf_gcd(_gf_gcd(g, h, p), big_f, p)
    n, k = power.degree, len(t) - 1
    start = power
    if k:
        u = _gf_divmod(fbar, t, p)[0]
        rows = [[p if i == j else 0 for j in range(n)] for i in range(n)]
        rows += [[0] * i + u + [0] * (k - 1 - i) for i in range(k)]
        start = EquationOrder.from_basis(power.poly, rows, p)
    if _confirmed[n, k > 0] < _DEDEKIND_CONFIRMATIONS:
        if _saturation_round(power, p) != start:
            raise ConsistencyError(f"Dedekind's {p}-start of Z[x]/({power.poly}) is not a round")
        _confirmed[n, k > 0] += 1
    return start


def _rounds(order: EquationOrder, p: int) -> EquationOrder:
    """Enlargement rounds from order until one is stable."""
    while True:
        bigger = _saturation_round(order, p)
        if bigger == order:
            return order
        order = bigger


def _saturation(power: EquationOrder, start: EquationOrder, p: int) -> EquationOrder:
    """The rounds from a start of the power order's; Z[theta] is a start only
    when Dedekind's criterion proves it p-maximal, and is returned as it is."""
    return power if start == power else _rounds(start, p)


def _tower_rows(sub: EquationOrder, p: int) -> list[list[int]]:
    """The rows w_i theta^j, j < p, of O_L[theta] over sub's denominator, for
    an order O_L of L = Q(phi), phi = theta^p, with basis w_i in powers of
    phi: the coefficient of phi^k in w_i goes to column p k + j."""
    n = sub.degree * p
    rows = []
    for omega in sub.basis_numerators:
        for j in range(p):
            row = [0] * n
            row[j::p] = omega
            rows.append(row)
    return rows


def _tower_start(power: EquationOrder, p: int) -> EquationOrder | None:
    """O_L[theta] for the p-saturation O_L of F's power order, when f(x) =
    F(x^p), p^2 | deg f and p does not divide f(0); None otherwise, and when
    O_L is F's power order.

    O_L is saturated by the same start rule, recursively, in powers of phi =
    theta^p, and lifted by _tower_rows: a ring between Z[theta] and its
    p-saturation, so few rounds run at deg f.
    """
    n, coeffs = power.degree, power.poly.coeffs
    if n % (p * p) or coeffs[0] % p == 0 or any(c for i, c in enumerate(coeffs) if i % p):
        return None
    inner = EquationOrder.power_order(MonicPolynomial(coeffs[::p]))
    sub = _saturation(inner, _tower_start(inner, p) or _dedekind_start(inner, p), p)
    if sub == inner:
        return None
    return EquationOrder.from_basis(power.poly, _tower_rows(sub, p), sub.denominator)


def p_saturate(order: EquationOrder, p: int) -> EquationOrder:
    """The smallest overorder whose index in the maximal order is prime to p.

    Repeats one enlargement round until stable.  The round adjoins the
    multiplier ring of the p-radical, which strictly enlarges any order that
    still admits integral elements of denominator p and fixes exactly the
    p-maximal ones, so the loop terminates at the p-saturation.

    A power order's rounds start from _tower_start or _dedekind_start, with
    the confirmations of the module docstring.  A start that is not an order
    (its rank, 1 in the lattice, or its table build) and a failed
    confirmation raise ConsistencyError; a p that is not prime raises
    ValueError (MonicPolynomial has refused a degree above _TABLE_BUDGET).
    """
    if not is_probable_prime(p):
        raise ValueError(f"p must be a prime, got {p}")
    n = order.degree
    if not order.is_power_order():
        return _rounds(order, p)
    try:
        tower = _tower_start(order, p)
        saturation = _saturation(order, tower or _dedekind_start(order, p), p)
        confirm = tower and n <= _TOWER_CONFIRMATION_DEGREE
        if confirm and _confirmed[n, "tower"] < _TOWER_CONFIRMATIONS:
            if _saturation(order, _dedekind_start(order, p), p) != saturation:
                raise ConsistencyError(f"tower and Dedekind {p}-saturations differ: {order.poly}")
            _confirmed[n, "tower"] += 1
    except ValueError as err:
        raise ConsistencyError(f"{p}-saturation of Z[x]/({order.poly}) failed: {err}") from err
    return saturation


def equation_order_index(poly: MonicPolynomial, candidate_primes) -> tuple[int, EquationOrder]:
    """Index of Z[x]/(f) in its saturation at the given candidate primes.

    Returns (g, order): order is the sum of the p-saturations of Z[theta]
    (p_saturate, each from Z[theta]) and g its index, the product of theirs.
    It is the full maximal order whenever the candidates cover every prime
    whose square divides disc(f).
    """
    power = EquationOrder.power_order(poly)
    primes = sorted(set(int(q) for q in candidate_primes))
    local = [order for order in (p_saturate(power, p) for p in primes) if order != power]
    if len(local) < 2:
        order = local[0] if local else power
    else:
        d = math.lcm(*(o.denominator for o in local))
        rows = [[x * (d // o.denominator) for x in row] for o in local for row in o.basis_numerators]
        order = EquationOrder.from_basis(poly, rows, d)
    # the basis is lower triangular over d, so g is d^n / prod of its pivots
    pivots = math.prod(row[i] for i, row in enumerate(order.basis_numerators))
    g, rest = divmod(order.denominator**order.degree, pivots)
    if rest:
        raise ConsistencyError(f"pivot product {pivots} does not divide d^n for Z[x]/({poly})")
    return g, order
