"""Oracle tests for the integer-only exact kernel.

Each fraction-free routine is compared with the rational slow path it
replaced, kept here verbatim: the Fraction Gauss-Jordan reduction behind
rank/solve/kernel and the Fraction phase-I simplex tableau behind
nonneg_solve. Agreement must be exact, value for value.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from toricmds import fan as F
from toricmds import linalg, lp

# -- the rational slow paths ---------------------------------------------------


def old_echelon(rows):
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def old_rank(rows):
    return len(old_echelon(rows)[1])


def old_kernel(rows, ncols):
    red, pivots = old_echelon(rows) if rows else ([], [])
    basis = []
    for fc in [c for c in range(ncols) if c not in pivots]:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(tuple(v))
    return basis


def old_solve(rows, rhs):
    if not rows:
        return tuple() if all(Fraction(x) == 0 for x in rhs) else None
    ncols = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs, strict=True)]
    red, pivots = old_echelon(aug)
    for pc in pivots:
        if pc == ncols:
            return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return tuple(x)


def old_nonneg_solve(columns, target):
    d = len(target)
    g = len(columns)
    rows = []
    for i in range(d):
        row = [Fraction(columns[j][i]) for j in range(g)]
        rhs = Fraction(target[i])
        if rhs < 0:
            row = [-x for x in row]
            rhs = -rhs
        art = [Fraction(1) if k == i else Fraction(0) for k in range(d)]
        rows.append(row + art + [rhs])
    basis = [g + i for i in range(d)]

    def reduced_cost(j):
        cj = Fraction(0) if j < g else Fraction(1)
        return cj - sum(
            (Fraction(1) if basis[i] >= g else Fraction(0)) * rows[i][j]
            for i in range(d)
        )

    while True:
        enter = None
        for j in range(g):
            if j in basis:
                continue
            if reduced_cost(j) < 0:
                enter = j
                break
        if enter is None:
            break
        leave = None
        best = None
        for i in range(d):
            a = rows[i][enter]
            if a > 0:
                ratio = rows[i][-1] / a
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        piv = rows[leave][enter]
        rows[leave] = [x / piv for x in rows[leave]]
        for i in range(d):
            if i != leave and rows[i][enter] != 0:
                f = rows[i][enter]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[leave])]
        basis[leave] = enter

    if sum(rows[i][-1] for i in range(d) if basis[i] >= g) != 0:
        return None
    lam = [Fraction(0)] * g
    for i in range(d):
        if basis[i] < g:
            lam[basis[i]] = rows[i][-1]
    return lam


# -- strategies ----------------------------------------------------------------

small = st.integers(min_value=-6, max_value=6)
rational = st.fractions(min_value=-6, max_value=6, max_denominator=7)
entry = st.one_of(small, rational)


@st.composite
def matrices(draw, elements=small, max_rows=5, max_cols=5):
    """Integer or rational matrices, often singular or rank deficient.

    Some rows are drawn freely; the rest are integer combinations of them,
    so the rank is frequently below both dimensions.
    """
    ncols = draw(st.integers(1, max_cols))
    free = draw(st.lists(
        st.lists(elements, min_size=ncols, max_size=ncols), min_size=1, max_size=max_rows
    ))
    nextra = draw(st.integers(0, max_rows - len(free)))
    rows = list(free)
    for _ in range(nextra):
        coeffs = draw(st.lists(small, min_size=len(free), max_size=len(free)))
        rows.append([sum(c * r[k] for c, r in zip(coeffs, free)) for k in range(ncols)])
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order]


@st.composite
def systems(draw, elements=small):
    """(A, b): b is A x for a drawn x half the time, else drawn freely.

    Free right-hand sides against rank-deficient A give inconsistent systems.
    """
    rows = draw(matrices(elements))
    if draw(st.booleans()):
        x = draw(st.lists(elements, min_size=len(rows[0]), max_size=len(rows[0])))
        rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
    else:
        rhs = draw(st.lists(elements, min_size=len(rows), max_size=len(rows)))
    return rows, rhs


def sign(x):
    return (x > 0) - (x < 0)


# -- linalg ---------------------------------------------------------------------


@given(st.one_of(matrices(), matrices(entry)))
@settings(max_examples=300)
def test_rank_and_kernel_match_fraction_gauss_jordan(rows):
    ncols = len(rows[0])
    assert linalg.rank(rows) == old_rank(rows)
    ker = linalg.kernel(rows, ncols)
    assert ker == old_kernel(rows, ncols)
    assert all(type(x) is Fraction for v in ker for x in v)


@given(st.one_of(matrices(), matrices(entry)))
@settings(max_examples=200)
def test_echelon_rows_are_positive_multiples_of_rref(rows):
    red, pivots = linalg._echelon(rows)
    old_red, old_pivots = old_echelon(rows)
    assert pivots == old_pivots
    for row, old, pc in zip(red, old_red, pivots):
        assert all(type(x) is int for x in row)
        assert row[pc] > 0
        assert [Fraction(x, row[pc]) for x in row] == old


@given(st.one_of(systems(), systems(entry)))
@settings(max_examples=300)
def test_solve_matches_fraction_gauss_jordan(system):
    rows, rhs = system
    sol = linalg.solve(rows, rhs)
    assert sol == old_solve(rows, rhs)
    if sol is not None:
        assert all(type(x) is Fraction for x in sol)
    signs = linalg.solution_signs(rows, rhs)
    assert signs == (None if sol is None else [sign(x) for x in sol])


def test_solve_edge_cases():
    assert linalg.solve([], []) == old_solve([], []) == ()
    assert linalg.solve([[0, 0]], [1]) is None
    assert linalg.solve([[0, 0]], [0]) == (Fraction(0), Fraction(0))
    assert linalg.solution_signs([[1, 1], [2, 2]], [1, 3]) is None
    assert linalg.solution_signs([[1, 1]], [-2]) == [-1, 0]


@given(matrices(max_rows=4, max_cols=4))
@settings(max_examples=200)
def test_inverse_rays_match_solve_then_primitive(rows):
    n = len(rows[0])
    square = (rows + [[int(i == j) for j in range(n)] for i in range(n)])[:n]
    if old_rank(square) < n:
        return
    expected = [
        linalg.primitive_fraction(old_solve(square, [int(k == j) for k in range(n)]))
        for j in range(n)
    ]
    assert linalg.inverse_rays(square) == expected


# -- sign-only cone membership -------------------------------------------------


@st.composite
def cone_and_point(draw):
    dim = draw(st.integers(1, 4))
    vec = st.lists(st.integers(-4, 4), min_size=dim, max_size=dim)
    rays = draw(st.lists(vec, min_size=1, max_size=dim + 1))
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-1, 3), min_size=len(rays), max_size=len(rays)))
        point = [sum(c * r[k] for c, r in zip(coeffs, rays)) for k in range(dim)]
    else:
        point = draw(vec)
    return [tuple(r) for r in rays], tuple(point)


@given(cone_and_point(), st.booleans())
@settings(max_examples=400)
def test_point_in_simplicial_cone_matches_fraction_solve(case, strict):
    rays, point = case
    sol = old_solve([[r[k] for r in rays] for k in range(len(point))], point)
    if sol is None:
        expected = False
    elif strict:
        expected = all(x > 0 for x in sol)
    else:
        expected = all(x >= 0 for x in sol)
    inside, interior = F._cone_membership(rays, point)
    assert (interior if strict else inside) == expected


# -- fraction-free simplex tableau -----------------------------------------------


@st.composite
def lp_problems(draw, elements=st.integers(-3, 3)):
    d = draw(st.integers(0, 4))
    g = draw(st.integers(0, 6))
    columns = draw(st.lists(
        st.lists(elements, min_size=d, max_size=d), min_size=g, max_size=g
    ))
    if columns and draw(st.booleans()):
        lam = draw(st.lists(st.integers(0, 3), min_size=g, max_size=g))
        target = [sum(c * col[i] for c, col in zip(lam, columns)) for i in range(d)]
    else:
        target = draw(st.lists(elements, min_size=d, max_size=d))
    return columns, target


@given(st.one_of(lp_problems(), lp_problems(st.one_of(st.integers(-3, 3), rational))))
@settings(max_examples=400)
def test_nonneg_solve_matches_fraction_tableau(problem):
    columns, target = problem
    lam = lp.nonneg_solve(columns, target)
    assert lam == old_nonneg_solve(columns, target)
    if lam is not None:
        assert all(type(x) is Fraction for x in lam)
        assert all(x >= 0 for x in lam)
        for i, t in enumerate(target):
            assert sum(x * col[i] for x, col in zip(lam, columns)) == t


@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=1, max_size=5))
@settings(max_examples=150)
def test_strictly_positive_point_is_a_certificate(functionals):
    x = lp.strictly_positive_point(functionals, 3)
    m = len(functionals)
    cols = [[f[k] for f in functionals] for k in range(3)]
    cols += [[-f[k] for f in functionals] for k in range(3)]
    cols += [[-1 if j == i else 0 for j in range(m)] for i in range(m)]
    lam = old_nonneg_solve(cols, [1] * m)
    if lam is None:
        assert x is None
    else:
        assert x == tuple(lam[k] - lam[3 + k] for k in range(3))
        assert all(linalg.dot(f, x) >= 1 for f in functionals)
