from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricmds import linalg, lp
from toricmds.cones import PolyCone
from toricmds.errors import ValidationError

coord = st.integers(min_value=-4, max_value=4)


def vec3():
    return st.tuples(coord, coord, coord)


def test_orthant():
    c = PolyCone.from_generators(2, [(1, 0), (0, 1)])
    assert c.dim == 2 and c.is_pointed()
    assert c.generators == ((0, 1), (1, 0))
    assert set(c.facet_normals) == {(1, 0), (0, 1)}
    assert c.contains_point((3, 5))
    assert not c.contains_point((-1, 0))
    assert c.dual() == c


def test_redundant_generators_removed():
    c = PolyCone.from_generators(2, [(1, 0), (0, 1), (1, 1), (2, 3)])
    assert c.generators == ((0, 1), (1, 0))


def test_from_inequalities_matches_generators():
    a = PolyCone.from_generators(2, [(2, 1), (1, 2)])
    b = PolyCone.from_inequalities(2, [(2, -1), (-1, 2)])
    assert a == b


def test_zero_and_full():
    z = PolyCone.zero(3)
    f = PolyCone.from_inequalities(3, [])
    assert z.dim == 0 and not z.generators
    assert f.dim == 3 and f.lineality_dim == 3
    assert z.dual() == f and f.dual() == z
    assert f.contains_point((-1, 5, 0))


def test_halfspace_and_lineality():
    h = PolyCone.from_inequalities(2, [(1, 0)])
    assert h.dim == 2 and h.lineality_dim == 1
    assert not h.is_pointed()
    basis = h.lineality_basis()
    assert len(basis) == 1 and basis[0][0] == 0
    line = PolyCone.from_generators(2, [(0, 1), (0, -1)])
    assert line.dim == 1 and line.lineality_dim == 1


def test_lower_dimensional_cone():
    c = PolyCone.from_generators(3, [(1, 0, 0), (0, 1, 0)])
    assert c.dim == 2 and c.ambient_dim == 3
    assert c.contains_point((2, 3, 0))
    assert not c.contains_point((2, 3, 1))
    # proper facet normals exclude the span-encoding pair
    proper = c.proper_facet_normals()
    assert len(proper) == 2
    assert (0, 0, 1) in c.facet_normals and (0, 0, -1) in c.facet_normals


def test_generator_length_checked():
    with pytest.raises(ValidationError):
        PolyCone.from_generators(2, [(1, 0, 0)])
    with pytest.raises(ValidationError):
        PolyCone.from_inequalities(2, [(1,)])


def test_intersect():
    a = PolyCone.from_generators(2, [(1, 0), (1, 2)])
    b = PolyCone.from_generators(2, [(2, 1), (0, 1)])
    c = a.intersect(b)
    assert c.generators == ((1, 2), (2, 1))
    with pytest.raises(ValidationError):
        a.intersect(PolyCone.zero(3))


def test_faces_of_cone_over_square():
    c = PolyCone.from_generators(
        3, [(1, 1, 1), (-1, 1, 1), (1, -1, 1), (-1, -1, 1)]
    )
    assert c.dim == 3 and len(c.generators) == 4
    faces = c.all_faces()
    by_dim = {}
    for f in faces:
        by_dim.setdefault(f.dim, []).append(f)
    assert {k: len(v) for k, v in sorted(by_dim.items())} == {
        0: 1, 1: 4, 2: 4, 3: 1
    }
    for f in faces:
        assert c.is_face(f)


def test_minimal_face_containing():
    c = PolyCone.from_generators(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    f = c.minimal_face_containing([(1, 0, 0), (0, 2, 0)])
    assert f == PolyCone.from_generators(3, [(1, 0, 0), (0, 1, 0)])
    assert f.generators == ((0, 1, 0), (1, 0, 0))
    assert c.minimal_face_containing([(1, 1, 1)]) == c
    with pytest.raises(ValidationError):
        c.minimal_face_containing([(-1, 0, 0)])


def test_is_face_rejects_non_faces():
    c = PolyCone.from_generators(2, [(1, 0), (0, 1)])
    inner = PolyCone.from_generators(2, [(1, 1)])
    assert not c.is_face(inner)
    edge = PolyCone.from_generators(2, [(1, 0)])
    assert c.is_face(edge)
    assert c.is_face(PolyCone.zero(2))
    assert c.is_face(c)


def test_relative_interior_point():
    c = PolyCone.from_generators(3, [(1, 0, 0), (0, 1, 0)])
    p = c.relative_interior_point()
    assert c.contains_point(p)
    assert all(linalg.dot(n, p) > 0 for n in c.proper_facet_normals())


@st.composite
def generator_sets(draw):
    k = draw(st.integers(min_value=1, max_value=5))
    gens = [draw(vec3()) for _ in range(k)]
    return [g for g in gens if any(g)]


@given(generator_sets())
@settings(max_examples=80, deadline=None)
def test_dual_involution(gens):
    c = PolyCone.from_generators(3, gens)
    assert c.dual().dual() == c


@given(generator_sets(), vec3())
@settings(max_examples=80, deadline=None)
def test_membership_agrees_with_lp(gens, x):
    c = PolyCone.from_generators(3, gens)
    # independent oracle: is x a nonnegative combination of the generators?
    cols = [list(g) for g in c.generators]
    in_lp = not any(x) or (bool(cols) and lp.nonneg_solve(cols, list(x)) is not None)
    assert c.contains_point(x) == in_lp


@given(generator_sets())
@settings(max_examples=60, deadline=None)
def test_generators_inside_dual_of_dual(gens):
    c = PolyCone.from_generators(3, gens)
    d = c.dual()
    for g in gens:
        assert all(linalg.dot(n, g) >= 0 for n in d.generators)


@given(generator_sets(), st.lists(st.integers(0, 100), min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_conic_combinations_stay_inside(gens, weights):
    c = PolyCone.from_generators(3, gens)
    pt = [0, 0, 0]
    for w, g in zip(weights, c.generators):
        pt = [p + w * x for p, x in zip(pt, g)]
    assert c.contains_point(pt)


def test_fraction_points_accepted():
    c = PolyCone.from_generators(2, [(1, 0), (1, 2)])
    assert c.contains_point((Fraction(1, 2), Fraction(1, 3)))
    assert not c.contains_point((Fraction(-1, 2), Fraction(1, 3)))
