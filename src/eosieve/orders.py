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
The default round computes the multiplier ring of the p-radical by exact
arithmetic mod p^2 on integer arrays, with the kernels over GF(p) taken by
XOR elimination on rows packed into integers at p = 2 and by Gauss-Jordan
elimination on Python rows at odd p.  `p_saturate_enumeration` implements
the brute-force round that adjoins every integral element of denominator p
(and the products that make the result a ring) and serves as the
correctness oracle for small p.  Both rounds share the same fixed points
(an order admits no integral element of denominator p outside itself
exactly when it is p-maximal), so the two paths converge to the same order.

A power order is first screened by Dedekind's criterion over GF(p), a few
polynomial gcds; when it is p-maximal no round runs.  Two guards raise
ConsistencyError: a "not p-maximal" verdict must be followed by a first
round that enlarges the order, and the first _DEDEKIND_CONFIRMATIONS
"p-maximal" verdicts per degree in a process are confirmed by a full round.
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
from .errors import ConsistencyError, ContainmentError, EnumerationLimitError, NotClosedError

__all__ = [
    "EquationOrder",
    "IndexFormValue",
    "MonicPolynomial",
    "equation_order_index",
    "index_form_value",
    "multiplication_table",
    "order_disc",
    "order_index",
    "p_saturate",
    "p_saturate_enumeration",
    "poly_disc_resultant",
]


@dataclass(frozen=True)
class MonicPolynomial:
    """x^n + c_{n-1} x^{n-1} + ... + c_0, stored by its low coefficients."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) < 2:
            raise ValueError("degree must be at least 2")
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def derivative_coeffs(self) -> list[int]:
        """Ascending coefficients of f', leading coefficient n included."""
        n = self.degree
        return [i * self.coeffs[i] for i in range(1, n)] + [n]

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
    fp = poly.derivative_coeffs()
    g_desc = [fp[i] for i in range(n - 1, -1, -1)]
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
        g = denominator
        for r in int_rows:
            for x in r:
                g = math.gcd(g, x)
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


@dataclass(frozen=True)
class IndexFormValue:
    """A signed index-form value relative to a chosen orientation."""

    value: int
    orientation_sign: int = 1

    def __post_init__(self):
        if self.orientation_sign not in (1, -1):
            raise ValueError("orientation_sign must be +1 or -1")


# 16 tables hit as often as 256 on the benchmark, and hold 32 MiB at n = 64
@lru_cache(maxsize=16)
def _multiplication_table_cached(order: EquationOrder) -> np.ndarray:
    """Read-only (n, n, n) integer array of the structure constants.

    The power order's is P[a, b] = theta^(a+b) mod f.  For numerators B
    over d, d^2 e_i e_j is (B @ (B @ P))[i, j] in power coordinates, whose
    every entry and partial sum is at most n^2 max|B|^2 max|P|: int64 while
    that is below 2^62, Python integers (dtype object) otherwise.  The
    coordinates are solved by _back_substitute, under its overflow rule.
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


def index_form_value(order: EquationOrder, beta, orientation_sign: int = 1) -> IndexFormValue:
    """det of the matrix of 1, beta, ..., beta^(n-1) in the order's basis.

    `beta` is given by integer coordinates in the order's basis; the order's
    own basis defines the +1 orientation.
    """
    table = _multiplication_table_cached(order).astype(object)
    times_beta = np.array([int(b) for b in beta], dtype=object) @ table  # row i: e_i * beta
    rows = [np.eye(order.degree, dtype=object)[0]]
    for _ in range(order.degree - 1):
        rows.append(rows[-1] @ times_beta)
    det = _bareiss_det([row.tolist() for row in rows])
    return IndexFormValue(value=orientation_sign * det, orientation_sign=orientation_sign)


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


def _dedekind_p_maximal(poly: MonicPolynomial, p: int) -> bool:
    """Dedekind's criterion: whether Z[x]/(f) is p-maximal.

    With f = prod phi_i^e_i mod p, g = rad(f mod p), h = (f mod p)/g and G, H
    their lifts with coefficients in [0, p), Z[x]/(f) is p-maximal exactly
    when gcd((f - G H)/p, g, h) = 1 over GF(p) (Cohen, A Course in
    Computational Algebraic Number Theory, Thm 6.1.4).
    """
    f = list(poly.coeffs) + [1]
    fbar = [c % p for c in f]
    g = _gf_radical(fbar, p)
    h = _gf_divmod(fbar, g, p)[0]
    d = _gf_gcd(g, h, p)
    if len(d) == 1:
        return True
    big_f = _gf_trim([(a - b) // p % p for a, b in zip(f, _poly_mul(g, h))])
    return len(_gf_gcd(d, big_f, p)) == 1


# Dedekind verdicts "p-maximal" that a full saturation round confirms, per
# degree, in each process
_DEDEKIND_CONFIRMATIONS = 8
_confirmed_maximal: Counter[int] = Counter()


def p_saturate(order: EquationOrder, p: int) -> EquationOrder:
    """The smallest overorder whose index in the maximal order is prime to p.

    Repeats one enlargement round until stable.  The round adjoins the
    multiplier ring of the p-radical, which strictly enlarges any order that
    still admits integral elements of denominator p and fixes exactly the
    p-maximal ones, so the loop terminates at the p-saturation.

    A power order is first screened by Dedekind's criterion.  A "p-maximal"
    verdict returns the order as it is; the first _DEDEKIND_CONFIRMATIONS
    such verdicts per degree are confirmed by a full round.  A "not
    p-maximal" verdict runs the rounds, and the first one must enlarge the
    order.  Either disagreement raises ConsistencyError; a p that is not
    prime raises ValueError.
    """
    if not is_probable_prime(p):
        raise ValueError(f"p must be a prime, got {p}")
    if order.is_power_order():
        n = order.degree
        maximal = _dedekind_p_maximal(order.poly, p)
        if maximal and _confirmed_maximal[n] >= _DEDEKIND_CONFIRMATIONS:
            return order
        bigger = _saturation_round(order, p)
        if (bigger == order) != maximal:
            raise ConsistencyError(
                f"Dedekind's criterion says Z[x]/({order.poly}) is "
                f"{'' if maximal else 'not '}{p}-maximal, but a saturation round "
                f"{'enlarges' if maximal else 'does not enlarge'} it"
            )
        if maximal:
            _confirmed_maximal[n] += 1
            return order
        order = bigger
    while True:
        bigger = _saturation_round(order, p)
        if bigger == order:
            return order
        order = bigger


def _charpoly_is_integral(rows, p: int) -> bool:
    """Whether the characteristic polynomial of A/p is integral, for the
    integer matrix A given by its rows.

    Its coefficients are c_k / p^k, where x^n + c_1 x^(n-1) + ... + c_n is
    the characteristic polynomial of A, so it is integral exactly when p^k
    divides every c_k.  Faddeev-LeVerrier gives the c_k in integers:
    M_1 = A, c_k = -tr(M_k) / k (an exact division), and
    M_(k+1) = A (M_k + c_k I).  The first c_k that fails returns False.
    """
    n = len(rows)
    ak = [row[:] for row in rows]
    pk = 1
    for step in range(1, n + 1):
        c = -sum(ak[i][i] for i in range(n)) // step
        pk *= p
        if c % pk:
            return False
        if step == n:
            break
        for i in range(n):
            ak[i][i] += c
        ak = [
            [sum(rows[i][t] * ak[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return True


def p_saturate_enumeration(
    order: EquationOrder, p: int, enumeration_limit: int = 1 << 24
) -> EquationOrder:
    """Brute-force saturation round, iterated until stable (test oracle).

    One round scans every element (a_0 e_0 + ... + a_{n-1} e_{n-1})/p with
    a_i in [0, p) and adjoins those whose characteristic polynomial is
    integral, then the ring they generate.  Raises ValueError when p is not
    prime and EnumerationLimitError when p^n exceeds the limit.
    """
    if not is_probable_prime(p):
        raise ValueError(f"p must be a prime, got {p}")
    n = order.degree
    if p**n > enumeration_limit:
        raise EnumerationLimitError(
            f"candidate space {p}^{n} exceeds enumeration limit {enumeration_limit}"
        )
    while True:
        table = multiplication_table(order)
        integral = []
        for a in itertools.product(range(p), repeat=n):
            if not any(a):
                continue
            mx = [
                [sum(a[i] * table[i][j][k] for i in range(n)) for k in range(n)]
                for j in range(n)
            ]
            if _charpoly_is_integral(mx, p):
                integral.append(list(a))
        if not integral:
            return order
        scaled = [[p * x for x in row] for row in order.basis_numerators]
        new_rows = scaled + [
            [sum(a[i] * order.basis_numerators[i][j] for i in range(n)) for j in range(n)]
            for a in integral
        ]
        order = _ring_generated(order.poly, new_rows, p * order.denominator)


def _ring_generated(poly: MonicPolynomial, rows, denominator: int) -> EquationOrder:
    """The order generated by the lattice of rows / denominator, which holds 1.

    Integral elements span a lattice that need not be closed under
    multiplication; the products of its basis elements are adjoined until
    it is.  Every product is integral, so this stops inside the maximal
    order.
    """
    while True:
        order = EquationOrder.from_basis(poly, rows, denominator)
        try:
            multiplication_table(order)
            return order
        except NotClosedError:
            pass
        basis, den = order.basis_numerators, order.denominator
        products = itertools.combinations_with_replacement(basis, 2)
        rows = [[x * den for x in row] for row in basis]
        rows += [_reduce_mod_poly(_poly_mul(u, v), poly) for u, v in products]
        denominator = den * den


def equation_order_index(
    poly: MonicPolynomial, candidate_primes
) -> tuple[int, EquationOrder]:
    """Index of Z[x]/(f) in its saturation at the given candidate primes.

    Returns (g, maximal_order) where g is the product of the index gains at
    each candidate.  The result is the full maximal order whenever the
    candidates cover every prime whose square divides disc(f).  The basis is
    lower triangular over denominator d, so g = d^n / prod of its pivots.
    """
    order = EquationOrder.power_order(poly)
    for p in sorted(set(int(q) for q in candidate_primes)):
        order = p_saturate(order, p)
    pivots = math.prod(row[i] for i, row in enumerate(order.basis_numerators))
    g, rest = divmod(order.denominator**order.degree, pivots)
    if rest:
        raise ConsistencyError(f"pivot product {pivots} does not divide d^n for Z[x]/({poly})")
    return g, order
