import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from toricmds import linalg

ints = st.integers(min_value=-30, max_value=30)


def test_primitive_basics():
    assert linalg.primitive((2, 4, -6)) == (1, 2, -3)
    assert linalg.primitive((0, -5)) == (0, -1)
    assert linalg.primitive((0, 0)) == (0, 0)


def test_primitive_fraction():
    v = (Fraction(1, 2), Fraction(-3, 4))
    assert linalg.primitive_fraction(v) == (2, -3)


@given(st.lists(ints, min_size=1, max_size=6).filter(lambda v: any(v)))
def test_primitive_is_parallel_and_coprime(v):
    p = linalg.primitive(v)
    g = math.gcd(*v)
    assert math.gcd(*([abs(x) for x in p] + [0])) in (0, 1)
    assert tuple(x // g for x in v) == p


def test_vector_ops():
    assert linalg.vneg((1, -2)) == (-1, 2)
    assert linalg.dot((1, 2, 3), (4, 5, 6)) == 32
    assert linalg.is_zero((0, 0)) and not linalg.is_zero((0, 1))


def test_rank_solve_kernel():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert linalg.rank(rows) == 2
    sol = linalg.solve([[1, 1], [1, -1]], [3, 1])
    assert sol == (Fraction(2), Fraction(1))
    assert linalg.solve([[1, 1], [2, 2]], [1, 3]) is None
    ker = linalg.kernel([[1, 1, 1]])
    assert len(ker) == 2
    for k in ker:
        assert sum(k) == 0


def test_det_values():
    assert linalg.det([[2]]) == 2
    assert linalg.det([[1, 2], [3, 4]]) == -2
    assert linalg.det([[0, 0], [0, 0]]) == 0
    assert linalg.det([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1


@given(st.lists(st.lists(ints, min_size=3, max_size=3), min_size=3, max_size=3))
@settings(max_examples=60)
def test_det_matches_cofactor_expansion(m):
    a, b, c = m
    brute = (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )
    assert linalg.det(m) == brute


def test_hermite_shape():
    h = linalg.hermite([[2, 4], [1, 1]])
    assert h == [(1, 1), (0, 2)]
    h2 = linalg.hermite([[0, 0], [0, 0]])
    assert h2 == []


@given(st.lists(st.lists(ints, min_size=3, max_size=3), min_size=1, max_size=4))
@settings(max_examples=60)
def test_hermite_preserves_row_lattice(rows):
    h = linalg.hermite(rows)
    hl, tr = linalg.hermite_with_transform(rows)
    # hermite drops zero rows, the transform variant keeps them padded
    assert [r for r in hl if any(r)] == h
    # every hermite row is an integer combination of the input rows
    for i, hr in enumerate(hl):
        comb = [0, 0, 0]
        for c, r in zip(tr[i], rows):
            comb = [x + c * y for x, y in zip(comb, r)]
        assert tuple(comb) == hr
    # every input row solves over the hermite rows in integers
    for r in rows:
        if not h:
            assert not any(r)
            continue
        sol = linalg.solve([[row[k] for row in h] for k in range(3)], r)
        assert sol is not None
        assert all(s.denominator == 1 for s in sol)


def test_integer_kernel_saturated():
    ker = linalg.integer_kernel([[1, 2]])
    assert ker == [(2, -1)] or ker == [(-2, 1)]
    ker2 = linalg.integer_kernel([[2, 4]])
    assert len(ker2) == 1 and abs(ker2[0][0]) == 2 and abs(ker2[0][1]) == 1


@given(st.lists(st.lists(ints, min_size=4, max_size=4), min_size=1, max_size=3))
@settings(max_examples=60)
def test_integer_kernel_properties(rows):
    ker = linalg.integer_kernel(rows, 4)
    assert len(ker) == 4 - linalg.rank(rows) if any(any(r) for r in rows) else 4
    for k in ker:
        for r in rows:
            assert linalg.dot(r, k) == 0
    # saturation: any integer rational-kernel vector is an integer
    # combination of the basis
    if ker:
        for probe in linalg.kernel(rows, 4):
            scale = math.lcm(*[f.denominator for f in probe])
            target = [int(f * scale) for f in probe]
            sol = linalg.solve(
                [[k[j] for k in ker] for j in range(4)], target
            )
            assert sol is not None
            assert all(s.denominator == 1 for s in sol)
