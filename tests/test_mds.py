import random
from fractions import Fraction

import pytest

from toricmds import catalog, fan as F, linalg, mdscones as M
from toricmds.cones import PolyCone
from toricmds.errors import CapOverflowError, InternalError, ValidationError


def test_quadric_surface_inventory():
    inv = M.cone_inventory(catalog.get("p1xp1"))
    assert inv.nef == inv.mov == inv.eff
    assert inv.ne == inv.nef.dual()
    assert inv.me == inv.eff.dual()


def test_inventory_inclusions_all_catalog():
    for name in catalog.names():
        inv = M.cone_inventory(catalog.get(name))
        assert inv.mov.contains_cone(inv.nef), name
        assert inv.eff.contains_cone(inv.mov), name
        assert inv.ne.contains_cone(inv.me), name
        rho = catalog.get(name).rho
        for cone in (inv.nef, inv.mov, inv.eff, inv.ne, inv.me):
            assert cone.dim == rho and cone.is_pointed(), name


def test_quadric_surface_atlas():
    atlas = M.chamber_atlas(catalog.get("p1xp1"))
    assert len(atlas.chambers) == 1 and not atlas.adjacency
    rc = M.rational_contractions(atlas)
    kinds = sorted((d.target_rho, d.kind) for d in rc)
    assert kinds == [
        (0, "fiber-type"), (1, "fiber-type"), (1, "fiber-type"), (2, "sqm")
    ]
    for d in rc:
        assert d.regular
        if d.kind == "fiber-type" and d.target_rho == 1:
            qe = M.is_quasi_elementary(atlas, d)
            assert qe.verdict and qe.condition_iii and qe.condition_v
            assert d.elementary


def test_blown_up_plane_contractions():
    atlas = M.chamber_atlas(catalog.get("f1"))
    assert len(atlas.chambers) == 1
    rc = M.rational_contractions(atlas)
    facets = [d for d in rc if d.target_rho == 1]
    assert sorted(d.kind for d in facets) == ["divisorial", "fiber-type"]
    inv = atlas.inventory
    assert inv.nef == inv.mov
    assert inv.eff != inv.mov
    nm = M.nonmovable_prime_divisors(catalog.get("f1"))
    assert len(nm) == 1 and nm[0][0] == 1


def test_chamber_counts():
    assert len(M.chamber_atlas(catalog.get("blpt-p1cubed")).chambers) == 8
    assert len(M.chamber_atlas(catalog.get("bl2pts-p3")).chambers) == 2
    assert len(M.chamber_atlas(catalog.get("p2xp2")).chambers) == 1


def test_chamber_cap():
    with pytest.raises(CapOverflowError):
        M.chamber_atlas(catalog.get("blpt-p1cubed"), cap=3)


def test_atlas_blpt_p1x4(atlas_of):
    atlas = atlas_of("blpt-p1x4")
    assert len(atlas.chambers) == 95
    assert atlas.base_chamber == 0
    assert atlas.chambers[0].cone == atlas.inventory.nef
    assert atlas.chambers[0].model == catalog.get("blpt-p1x4")
    fano_idx = [c.index for c in atlas.chambers if F.is_fano(c.model)]
    assert len(fano_idx) == 1
    assert atlas.chambers[fano_idx[0]].model == catalog.get("fano-flip-model")


def test_atlas_models_share_rays(atlas_of):
    atlas = atlas_of("blpt-p1x4")
    rays = catalog.get("blpt-p1x4").rays
    seen = set()
    for ch in atlas.chambers:
        assert ch.model.rays == rays
        assert ch.cone == F.data(ch.model).nef_cone
        assert ch.model not in seen
        seen.add(ch.model)


def test_atlas_adjacency_structure(atlas_of):
    for name in catalog.names():
        atlas = atlas_of(name)
        rho = atlas.fan.rho
        assert atlas.adjacency == sorted(set(atlas.adjacency)), name
        for i, j in atlas.adjacency:
            assert i < j, name
            ci = atlas.chambers[i].cone
            cj = atlas.chambers[j].cone
            facet = ci.intersect(cj)
            assert facet.dim == rho - 1, name
            assert ci.is_face(facet) and cj.is_face(facet), name


def test_atlas_rejects_a_neighbour_without_a_shared_facet(monkeypatch):
    flip = M.mmp.flip

    def flip_twice(model, ray):
        # the second flip crosses another wall, so the model it returns is
        # two chambers away from the one the search is expanding
        once = flip(model, ray)
        back = (ray.jplus, ray.jminus)
        other = next(
            r for r in F.extremal_rays(once)
            if r.kind == "small" and (r.jminus, r.jplus) != back
        )
        return flip(once, other)

    monkeypatch.setattr(M.mmp, "flip", flip_twice)
    with pytest.raises(InternalError, match="chambers 0 and 1 do not share a facet"):
        M.chamber_atlas(catalog.get("blpt-p1x4"))


def test_chamber_of_lookup(atlas_of):
    atlas = atlas_of("blpt-p1x4")

    def chambers_holding(div_class):
        return [c.index for c in atlas.chambers
                if c.cone.contains_point(div_class)]

    amp = F.data(atlas.fan).nef_cone.relative_interior_point()
    assert chambers_holding(amp) == [0]
    assert 3 in chambers_holding(atlas.chambers[3].cone.generators[0])


def test_base_chamber_facets(atlas_of):
    atlas = atlas_of("blpt-p1x4")
    facets = [
        d for d in M.rational_contractions(atlas)
        if d.target_rho == 4 and 0 in d.host_chambers
    ]
    assert sorted(d.kind for d in facets) == ["divisorial"] + ["small"] * 4
    sigma_e = next(d.sigma for d in facets if d.kind == "divisorial")
    fano_idx = next(c.index for c in atlas.chambers if F.is_fano(c.model))
    assert atlas.chambers[0].cone.contains_cone(sigma_e)
    assert not atlas.chambers[fano_idx].cone.contains_cone(sigma_e)


def test_nonmovable_divisors():
    nm4 = M.nonmovable_prime_divisors(catalog.get("fano-flip-model"))
    assert any(j == 8 for j, _ in nm4)
    nm_bl = M.nonmovable_prime_divisors(catalog.get("blpt-p1x4"))
    assert sorted(j for j, _ in nm_bl) == [0, 2, 4, 6, 8]
    assert M.nonmovable_prime_divisors(catalog.get("p1x4")) == []
    for j, cls in nm_bl:
        dd = F.data(catalog.get("blpt-p1x4"))
        assert linalg.primitive(dd.ray_classes[j]) == cls


def quasi_elementary_faces(atlas, r):
    return [
        d for d in M.rational_contractions(atlas)
        if d.kind == "fiber-type" and d.target_rho == r
        and M.is_quasi_elementary(atlas, d).verdict
    ]


def test_quasi_elementary_search_on_line_power():
    atlas = M.chamber_atlas(catalog.get("p1x4"))
    assert len(quasi_elementary_faces(atlas, 2)) == 6
    assert len(quasi_elementary_faces(atlas, 1)) == 4


def test_target_model_and_composition():
    atlas = M.chamber_atlas(catalog.get("p1x4"))
    f_desc = quasi_elementary_faces(atlas, 2)[0]
    tm = M.target_model(atlas, M.is_quasi_elementary(atlas, f_desc))
    assert tm.fan.dim == 2 and tm.fan.rho == 2
    assert F.is_projective(tm.fan)
    # pullback carries target nef classes into the source chamber cone
    amp = F.data(tm.fan).nef_cone.relative_interior_point()
    pulled = tm.pull_class(amp)
    assert f_desc.sigma.contains_point(pulled)
    collapsed = [i for i, t in enumerate(tm.ray_map) if t is None]
    assert len(collapsed) + sum(1 for t in tm.ray_map if t is not None) \
        == atlas.fan.n_rays
    g_atlas = M.chamber_atlas(tm.fan)
    g_candidates = [
        d for d in M.rational_contractions(g_atlas)
        if d.kind == "fiber-type" and d.target_rho == 1
    ]
    comp = M.compose_quasi_elementary(atlas, f_desc, g_atlas, g_candidates[0])
    assert comp.target_rho == 1 and comp.kind == "fiber-type"
    ident = [d for d in M.rational_contractions(g_atlas)
             if d.kind == "sqm"][0]
    same = M.compose_quasi_elementary(atlas, f_desc, g_atlas, ident)
    assert same.sigma == f_desc.sigma


def test_quasi_elementary_effective_face_oracle():
    # eff_face is the slice of the effective cone by the span of sigma, which
    # target_model certifies against; on a quasi-elementary cone it must be
    # the minimal effective face containing sigma, found the other way
    checked = 0
    for name in ("p1x4", "blpt-p1cubed", "dp3", "p2xp2", "blpt-p4"):
        atlas = M.chamber_atlas(catalog.get(name))
        inv = atlas.inventory
        for d in M.rational_contractions(atlas):
            if d.kind != "fiber-type":
                continue
            qe = M.is_quasi_elementary(atlas, d)
            if not qe.verdict:
                continue
            assert qe.eff_face == inv.eff.minimal_face_containing(
                list(d.sigma.generators)
            ), (name, d.sigma)
            checked += 1
    assert checked == 25


def test_target_model_rejects_point_target():
    atlas = M.chamber_atlas(catalog.get("p1xp1"))
    zero = [d for d in M.rational_contractions(atlas) if d.target_rho == 0][0]
    qe = M.is_quasi_elementary(atlas, zero)
    assert qe.verdict
    with pytest.raises(ValidationError):
        M.target_model(atlas, qe)


def test_is_quasi_elementary_rejects_non_fiber():
    atlas = M.chamber_atlas(catalog.get("f1"))
    div = [d for d in M.rational_contractions(atlas)
           if d.kind == "divisorial"][0]
    with pytest.raises(ValidationError):
        M.is_quasi_elementary(atlas, div)


def test_elementary_projections_of_threefold_product():
    p1xp3 = F.product(catalog.get("p1"), catalog.get("p3"))
    atlas = M.chamber_atlas(p1xp3)
    el = [d for d in M.rational_contractions(atlas)
          if d.elementary and d.kind == "fiber-type"]
    assert len(el) == 2 and all(d.regular for d in el)


def test_describe_face_positions(atlas_of, contractions_of):
    atlas = atlas_of("blpt-p1x4")
    by_sigma = {d.sigma: d for d in contractions_of("blpt-p1x4")}
    full = by_sigma[atlas.chambers[0].cone]
    assert full.kind == "sqm" and full.regular
    assert full.target_rho == 5
    ray = by_sigma[
        PolyCone.from_generators(5, [atlas.inventory.nef.generators[0]])
    ]
    assert ray.target_rho == 1


def test_chamber_tiling_small_instances():
    for name in ("p1xp1", "f1", "dp3", "bl2pts-p3", "blpt-p1cubed"):
        atlas = M.chamber_atlas(catalog.get(name))
        mov = atlas.inventory.mov
        for ch in atlas.chambers:
            assert mov.contains_cone(ch.cone), name
        for i, ci in enumerate(atlas.chambers):
            for cj in atlas.chambers[i + 1:]:
                inter = ci.cone.intersect(cj.cone)
                assert ci.cone.is_face(inter), (name, ci.index, cj.index)
                assert cj.cone.is_face(inter), (name, ci.index, cj.index)
        rng = random.Random(5)
        gens = [list(g) for g in mov.generators]
        for _ in range(40):
            coeffs = [Fraction(rng.randint(1, 30)) for _ in gens]
            p = [
                sum(c * g[k] for c, g in zip(coeffs, gens))
                for k in range(len(gens[0]))
            ]
            inside = [c.index for c in atlas.chambers
                      if c.cone.contains_point(p)]
            assert inside, (name, p)
            strict = [
                c.index for c in atlas.chambers
                if all(linalg.dot(n, p) > 0
                       for n in c.cone.proper_facet_normals())
            ]
            assert len(strict) <= 1, (name, p, strict)
