"""Exact linear algebra over the rationals and over the integers.

There is no floating point anywhere, and elimination is integer-only: rank,
solve and kernel run one fraction-free row reduction (rows are cleared of
denominators, combined as p*row_i - f*row_r and divided by their gcd), so
fractions.Fraction appears only in the values solve and kernel return.
Vectors are tuples, matrices are sequences of row tuples. Integer routines
(Hermite reduction, saturated kernels) are what the lattice computations in
the toric layer rely on, so they must return canonical output for a given
input: same input, byte-identical result.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Vec = tuple[int, ...]


def primitive(v: Sequence[int]) -> Vec:
    """Divide an integer vector by the gcd of its entries.

    The zero vector is returned unchanged. Direction is preserved; callers
    that need an orientation-free normal fix the sign themselves.
    """
    g = gcd(*v)
    if g <= 1:
        return tuple(v)
    return tuple([x // g for x in v])


def _all_int(v: Iterable) -> bool:
    return set(map(type, v)) <= {int}


def primitive_fraction(v: Sequence[Fraction | int]) -> Vec:
    """Scale a rational vector to the primitive integer vector on its ray."""
    if _all_int(v):
        return primitive(v)
    fr = [Fraction(x) for x in v]
    den = 1
    for x in fr:
        den = den * x.denominator // gcd(den, x.denominator)
    return primitive([int(x * den) for x in fr])


def dot(a: Sequence, b: Sequence):
    if len(a) != len(b):
        raise ValueError(f"dot of vectors of lengths {len(a)} and {len(b)}")
    return sum(map(mul, a, b))


def vneg(a: Sequence) -> tuple:
    return tuple(-x for x in a)


def is_zero(a: Sequence) -> bool:
    return not any(a)


def eliminate(row: Sequence[int], prow: Sequence[int], c: int) -> list[int]:
    """p*row - f*prow divided by its gcd, where p = prow[c] and f = row[c].

    The result is zero in column c. With p > 0 it is a positive multiple of
    the rational step row - (f/p)*prow, so it has the same signs.
    """
    p, f = prow[c], row[c]
    out = [p * x - f * y for x, y in zip(row, prow)]
    g = gcd(*out)
    return [x // g for x in out] if g > 1 else out


def _echelon(
    rows: Sequence[Sequence], reduced: bool = True
) -> tuple[list[Sequence[int]], list[int]]:
    """Fraction-free row echelon form. Returns (integer rows, pivot columns).

    Each row is cleared of denominators, each pivot row is scaled to a
    positive pivot, and each elimination step is eliminate(row_i, row_r, c):
    p*row_i - f*row_r divided by its gcd. Every row is therefore a positive
    multiple of the row the rational Gauss-Jordan reduction holds at the same
    step: pivot choice and rank are the same, and with reduced=True row r of
    the result divided by its pivot entry is row r of the reduced row echelon
    form. reduced=False clears only the rows below each pivot, which is
    enough for the rank.
    """
    if _all_int(chain.from_iterable(rows)):
        mat = list(rows)
    else:
        mat = [primitive_fraction(row) for row in rows]
    if not mat:
        return [], []
    nrows, ncols = len(mat), len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        for piv in range(r, nrows):
            if mat[piv][c] != 0:
                break
        else:
            continue
        prow = mat[piv]
        mat[piv] = mat[r]
        if prow[c] < 0:
            prow = [-x for x in prow]
        mat[r] = prow
        for i in range(0 if reduced else r + 1, nrows):
            if i != r and mat[i][c] != 0:
                mat[i] = eliminate(mat[i], prow, c)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat[:r], pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(_echelon(rows, reduced=False)[1])


def kernel(rows: Sequence[Sequence], ncols: int | None = None) -> list[tuple[Fraction, ...]]:
    """Basis of {x : A x = 0} over Q, one vector per free column."""
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(rows[0])
    red, pivots = _echelon(rows) if rows else ([], [])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(red, pivots):
            v[pc] = Fraction(-row[fc], row[pc])
        basis.append(tuple(v))
    return basis


def _solved(
    rows: Sequence[Sequence], rhs: Sequence
) -> tuple[list[Sequence[int]], list[int]] | None:
    """Reduced echelon form of [A | b], or None if A x = b is inconsistent."""
    ncols = len(rows[0])
    red, pivots = _echelon([list(row) + [b] for row, b in zip(rows, rhs, strict=True)])
    if pivots and pivots[-1] == ncols:
        return None
    return red, pivots


def solve(rows: Sequence[Sequence], rhs: Sequence) -> tuple[Fraction, ...] | None:
    """One rational solution of A x = b, or None if the system is inconsistent.

    Free variables are set to 0.
    """
    if not rows:
        return tuple() if all(x == 0 for x in rhs) else None
    solved = _solved(rows, rhs)
    if solved is None:
        return None
    ncols = len(rows[0])
    x = [Fraction(0)] * ncols
    for row, pc in zip(*solved):
        x[pc] = Fraction(row[ncols], row[pc])
    return tuple(x)


def solution_signs(rows: Sequence[Sequence], rhs: Sequence) -> list[int] | None:
    """Signs (-1, 0, 1) of the entries of solve(rows, rhs), or None.

    Every pivot entry of the integer echelon form is positive, so the sign of
    a pivot variable is the sign of its row's last entry; no Fraction is built.
    """
    if not rows:
        return [] if all(x == 0 for x in rhs) else None
    solved = _solved(rows, rhs)
    if solved is None:
        return None
    ncols = len(rows[0])
    signs = [0] * ncols
    for row, pc in zip(*solved):
        signs[pc] = (row[ncols] > 0) - (row[ncols] < 0)
    return signs


def inverse_rays(rows: Sequence[Sequence[int]]) -> list[Vec]:
    """Primitive integer vectors along the columns of the inverse of A.

    A must be square and nonsingular. Column j is the ray of the simplicial
    cone {x : A x >= 0} on which every row but row j vanishes.
    """
    n = len(rows)
    red, pivots = _echelon(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    )
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    scale = lcm(*(red[i][i] for i in range(n)))
    return [
        primitive([red[i][n + j] * (scale // red[i][i]) for i in range(n)])
        for j in range(n)
    ]


def det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix (Bareiss, fraction free)."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _exgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, p, q) with p*a + q*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def hermite_with_transform(rows: Sequence[Sequence[int]]) -> tuple[list[Vec], list[Vec]]:
    """Row Hermite normal form with its unimodular transform.

    Returns (H, T) with T * rows == H, T unimodular. H is in canonical form:
    row echelon, positive pivots, entries above a pivot reduced into [0, pivot).
    Zero rows of H are pushed to the bottom.
    """
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    t = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    r = 0
    for c in range(nc):
        piv = None
        for i in range(r, nr):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        t[r], t[piv] = t[piv], t[r]
        for i in range(r + 1, nr):
            while m[i][c] != 0:
                g, p, q = _exgcd(m[r][c], m[i][c])
                a_div, b_div = m[r][c] // g, m[i][c] // g
                new_r = [p * x + q * y for x, y in zip(m[r], m[i])]
                new_i = [-b_div * x + a_div * y for x, y in zip(m[r], m[i])]
                m[r], m[i] = new_r, new_i
                tr = [p * x + q * y for x, y in zip(t[r], t[i])]
                ti = [-b_div * x + a_div * y for x, y in zip(t[r], t[i])]
                t[r], t[i] = tr, ti
        if m[r][c] < 0:
            m[r] = [-x for x in m[r]]
            t[r] = [-x for x in t[r]]
        for i in range(r):
            f = m[i][c] // m[r][c]
            if f != 0:
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
                t[i] = [x - f * y for x, y in zip(t[i], t[r])]
        r += 1
        if r == nr:
            break
    return [tuple(row) for row in m], [tuple(row) for row in t]


def hermite(rows: Sequence[Sequence[int]]) -> list[Vec]:
    """Canonical row Hermite form with zero rows dropped."""
    h, _ = hermite_with_transform(rows)
    return [row for row in h if not is_zero(row)]


def integer_kernel(rows: Sequence[Sequence[int]], ncols: int | None = None) -> list[Vec]:
    """Canonical basis of the saturated lattice {x in Z^m : A x = 0}.

    Saturated means every integer point of the rational kernel is an integer
    combination of the basis. Implemented through the Hermite transform of the
    transpose: the transform rows aligned with zero rows of the form are a
    basis, and a final Hermite pass makes the result canonical.
    """
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(rows[0])
    if not rows:
        return [tuple(1 if i == j else 0 for j in range(ncols)) for i in range(ncols)]
    transpose = [[row[i] for row in rows] for i in range(ncols)]
    h, t = hermite_with_transform(transpose)
    basis = [t[i] for i in range(len(h)) if is_zero(h[i])]
    return hermite(basis) if basis else []
