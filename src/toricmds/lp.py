"""Exact rational linear programming, phase-I simplex only.

The package needs two feasibility questions answered with proofs, not floats:
membership of a point in a finitely generated cone, and existence of a vector
strictly positive on a finite set of functionals (the projectivity
certificate). Both reduce to finding a nonnegative solution of a linear
system, which is what this module does, with Bland's rule so it terminates.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from . import linalg


def nonneg_solve(
    columns: Sequence[Sequence], target: Sequence
) -> list[Fraction] | None:
    """Solve sum_j lam_j * columns[j] = target with lam >= 0.

    Returns one solution as a list of Fractions, or None if infeasible.

    Phase I over the tableau [columns | target] (rows with a negative target
    are negated) with one artificial basic variable per row, cost 1 each.
    The tableau is kept fraction free: every row, and the reduced-cost row,
    is stored as a positive integer multiple of its rational value, so each
    sign and ratio test reads the same as over Q, and the pivots (Bland's
    rule: lowest entering column, lowest basic index on ratio ties) are the
    ones the rational tableau takes. Artificials never re-enter, so their
    columns are not stored.
    """
    d = len(target)
    g = len(columns)
    for col in columns:
        if len(col) != d:
            raise ValueError("column length mismatch")
    rows: list[Sequence] = []
    for i in range(d):
        row = [columns[j][i] for j in range(g)] + [target[i]]
        rows.append([-x for x in row] if target[i] < 0 else row)
    # reduced costs: 0 for lam columns minus the sum of the artificial rows
    cost = linalg.primitive_fraction(
        [-sum(row[j] for row in rows) for j in range(g + 1)]
    )
    rows = [linalg.primitive_fraction(row) for row in rows]
    basis = [g + i for i in range(d)]

    while True:
        enter = next((j for j in range(g) if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(d):
            a = rows[i][enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                # compare rows[i][-1] / a with the best ratio so far
                lhs = rows[i][-1] * rows[leave][enter]
                rhs = rows[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise ArithmeticError("phase-I objective unbounded; impossible")
        prow = rows[leave]
        for i in range(d):
            if i != leave and rows[i][enter] != 0:
                rows[i] = linalg.eliminate(rows[i], prow, enter)
        cost = linalg.eliminate(cost, prow, enter)
        basis[leave] = enter

    # the cost row's last entry is minus the phase-I objective
    if cost[-1] != 0:
        return None
    lam = [Fraction(0)] * g
    for i in range(d):
        if basis[i] < g:
            lam[basis[i]] = Fraction(rows[i][-1], rows[i][basis[i]])
    return lam


def strictly_positive_point(
    functionals: Sequence[Sequence], dim: int
) -> tuple[Fraction, ...] | None:
    """A rational x with f.x >= 1 for every functional, or None.

    By homogeneity this decides whether some x has f.x > 0 for all f, which
    is the strict-convexity / ample-class feasibility question.
    """
    if not functionals:
        return tuple(Fraction(0) for _ in range(dim))
    # x = u - v with u, v >= 0; slack s_i >= 0; f.u - f.v - s_i = 1.
    cols: list[list] = []
    m = len(functionals)
    for k in range(dim):
        cols.append([f[k] for f in functionals])
    for k in range(dim):
        cols.append([-f[k] for f in functionals])
    for i in range(m):
        cols.append([-1 if j == i else 0 for j in range(m)])
    lam = nonneg_solve(cols, [1] * m)
    if lam is None:
        return None
    return tuple(lam[k] - lam[dim + k] for k in range(dim))
