import pytest

from toricmds import fan as F
from toricmds.errors import ValidationError

P2_RAYS = [(1, 0), (0, 1), (-1, -1)]
P2_CONES = [(0, 1), (1, 2), (0, 2)]


def build_p2():
    return F.build_fan(2, P2_RAYS, P2_CONES)


def hirzebruch(r):
    return F.build_fan(
        2,
        [(1, 0), (0, 1), (-1, r), (0, -1)],
        [(0, 1), (1, 2), (2, 3), (3, 0)],
    )


def p1():
    return F.build_fan(1, [(1,), (-1,)], [(0,), (1,)])


def p1_power(k):
    x = p1()
    for _ in range(k - 1):
        x = F.product(x, p1())
    return x


def test_projective_plane_data():
    p2 = build_p2()
    assert p2.rho == 1 and p2.dim == 2
    d = F.data(p2)
    assert d.class_basis == ((1, 1, 1),)
    assert d.anticanonical == (3,)
    assert len(d.walls) == 3
    for w in d.walls:
        assert w.curve_class == (1,)
        assert w.anticanonical_degree == 3
    assert d.is_smooth and d.is_projective and d.is_fano


def test_projective_plane_extremal_ray():
    d = F.data(build_p2())
    ers = d.extremal_rays
    assert len(ers) == 1
    e = ers[0]
    assert e.kind == "fiber"
    assert e.exc_dim == 2 and e.image_dim == 0
    assert e.k_degree == 3


def test_hirzebruch_walls():
    for r in (0, 1, 2):
        fr = hirzebruch(r)
        d = F.data(fr)
        assert d.is_smooth and d.is_projective
        assert d.is_fano == (r < 2)
        # wall at u2: relation u1 + u3 = r*u2
        wall_u2 = [w for w in d.walls if w.shared == (1,)][0]
        assert wall_u2.coefficient(0) == 1 and wall_u2.coefficient(2) == 1
        assert wall_u2.coefficient(1) == -r
        assert wall_u2.anticanonical_degree == 2 - r
        # wall at u1: relation u2 + u4 = 0, the fiber class
        wall_u1 = [w for w in d.walls if w.shared == (0,)][0]
        assert wall_u1.coefficient(1) == 1 and wall_u1.coefficient(3) == 1
        assert wall_u1.anticanonical_degree == 2


def test_hirzebruch_extremal_kinds():
    for r in (0, 1, 2):
        ers = F.extremal_rays(hirzebruch(r))
        assert len(ers) == 2
        kinds = sorted(e.kind for e in ers)
        if r == 0:
            assert kinds == ["fiber", "fiber"]
        else:
            assert kinds == ["divisorial", "fiber"]
            div = [e for e in ers if e.kind == "divisorial"][0]
            assert div.jminus == (1,) and div.jplus == (0, 2)
            assert div.exc_dim == 1 and div.image_dim == 0
            assert div.k_degree == 2 - r


def test_wall_accessors():
    d = F.data(hirzebruch(1))
    w = d.walls[0]
    assert w.involved == tuple(sorted(w.shared + w.opposite))
    assert all(0 <= i < 4 for i, _ in w.relation)
    assert sum(c for _, c in w.relation) == w.anticanonical_degree
    # normalization: integer, gcd one, opposite coefficients positive
    for wall in d.walls:
        assert all(isinstance(c, int) for _, c in wall.relation)
        assert wall.coefficient(wall.opposite[0]) > 0
        assert wall.coefficient(wall.opposite[1]) > 0


def test_product_line_power():
    x = p1_power(4)
    assert x.dim == 4 and x.n_rays == 8 and len(x.max_cones) == 16
    dx = F.data(x)
    assert dx.is_smooth and dx.is_fano and x.rho == 4
    ers = dx.extremal_rays
    assert len(ers) == 4
    assert all(e.kind == "fiber" and e.k_degree == 2 for e in ers)


def test_star_subdivision_point_blowup():
    x = p1_power(4)
    bl = F.star_subdivision(x, (0, 2, 4, 6))
    assert bl.n_rays == 9 and len(bl.max_cones) == 19
    assert bl.rays[8] == (1, 1, 1, 1)
    db = F.data(bl)
    assert db.is_smooth and db.is_projective
    assert not db.is_fano


def test_blowup_extremal_rays():
    bl = F.star_subdivision(p1_power(4), (0, 2, 4, 6))
    ers = F.extremal_rays(bl)
    small = [e for e in ers if e.kind == "small"]
    assert len(small) == 4
    for e in small:
        assert len(e.jplus) == 2 and len(e.jminus) == 3
        assert 8 in e.jplus
        assert e.k_degree == -1
        assert e.exc_dim == 1 and e.image_dim == 0
        assert e.pairing[8] == 1
    div = [e for e in ers if e.kind == "divisorial"]
    assert len(div) == 1 and div[0].jminus == (8,)
    assert div[0].jplus == (0, 2, 4, 6)
    assert div[0].k_degree == 3
    assert div[0].exc_dim == 3 and div[0].image_dim == 0
    assert not [e for e in ers if e.kind == "fiber"]


def test_divisor_class_and_pairing():
    p2 = build_p2()
    assert p2.rho == 1
    cls = F.divisor_class(p2, [1, 0, 0])
    assert cls == (1,)
    assert F.data(p2).anticanonical == (3,)


def test_build_fan_rejects_incomplete():
    with pytest.raises(ValidationError):
        F.build_fan(2, P2_RAYS, [(0, 1), (1, 2)], check="full")


def test_build_fan_rejects_overlap():
    cases = [
        ([(1, 0), (0, 1), (-1, -1), (1, 1)], [(0, 1), (1, 2), (0, 2), (0, 3)]),
        # walls paired, but (0, 4) and (2, 4) lie on the same side of ray 4
        ([(-3, -2), (-3, 1), (0, -1), (1, 0), (2, -3)],
         [(0, 1), (0, 4), (1, 3), (2, 3), (2, 4)]),
        # pentagram: walls paired on opposite sides, the cones wind twice
        ([(1, 0), (-4, 3), (1, -3), (1, 3), (-4, -3)],
         [(i, (i + 1) % 5) for i in range(5)]),
    ]
    for rays, cones in cases:
        with pytest.raises(ValidationError):
            F.build_fan(2, rays, cones, check="full")


def test_build_fan_rejects_non_simplicial_cone():
    with pytest.raises(ValidationError):
        F.build_fan(2, P2_RAYS, [(0, 1, 2), (1, 2)])


def test_build_fan_rejects_bad_ray():
    with pytest.raises(ValidationError):
        F.build_fan(2, [(2, 0), (0, 1), (-1, -1)], P2_CONES, check="full")
    with pytest.raises(ValidationError):
        F.build_fan(2, [(1, 0, 0), (0, 1, 0)], [(0, 1)])


def test_build_fan_rejects_unused_ray():
    rays = [(1, 0), (0, 1), (-1, -1), (1, 1)]
    with pytest.raises(ValidationError):
        F.build_fan(2, rays, P2_CONES, check="full")


def test_build_fan_check_levels():
    f_none = F.build_fan(2, P2_RAYS, P2_CONES, check="none")
    f_full = F.build_fan(2, P2_RAYS, P2_CONES, check="full")
    assert f_none == f_full
    for level in ("fast", "bogus"):
        with pytest.raises(ValidationError):
            F.build_fan(2, P2_RAYS, P2_CONES, check=level)


def test_fan_equality_fixes_ray_order():
    a = build_p2()
    b = F.build_fan(2, P2_RAYS, [(1, 2), (0, 2), (0, 1)])
    # cone listing order is irrelevant, ray indexing is part of identity
    assert a == b
    perm = [2, 0, 1]
    rays = [P2_RAYS[i] for i in perm]
    inv = {v: k for k, v in enumerate(perm)}
    cones = [tuple(sorted(inv[i] for i in c)) for c in P2_CONES]
    c = F.build_fan(2, rays, cones)
    assert a != c
    assert a != hirzebruch(0)


def test_star_subdivision_of_surface_point():
    p2 = build_p2()
    bl = F.star_subdivision(p2, (0, 1))
    assert bl.n_rays == 4 and len(bl.max_cones) == 4
    assert bl.rays[3] == (1, 1)
    d = F.data(bl)
    assert d.is_smooth and d.is_projective and d.is_fano
    assert bl.rho == 2
    # same numeric shape as the first Hirzebruch surface
    kinds = sorted((e.kind, e.k_degree) for e in d.extremal_rays)
    want = sorted((e.kind, e.k_degree) for e in F.extremal_rays(hirzebruch(1)))
    assert kinds == want


def test_star_subdivision_rejects_non_cone():
    p2 = build_p2()
    with pytest.raises(ValidationError):
        F.star_subdivision(p2, (0, 1, 2))


def test_product_dimensions():
    f = F.product(build_p2(), p1())
    assert f.dim == 3 and f.n_rays == 5
    assert len(f.max_cones) == 6
    d = F.data(f)
    assert d.is_smooth and d.is_fano and f.rho == 2


def test_data_cached_by_key():
    a = build_p2()
    b = build_p2()
    assert F.data(a) is F.data(b)
