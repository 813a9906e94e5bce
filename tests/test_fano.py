import pytest

from toricmds import catalog, fan as F, fano, mdscones as M, mmp
from toricmds.errors import ValidationError


def anticanonical_chain():
    bl = catalog.get("blpt-p1x4")
    return mmp.run_mori_program(bl, [1] * 9, strategy="first")


def test_c_invariant_values():
    assert fano.c_invariant(catalog.get("p4"))[0] == 0
    c, witness = fano.c_invariant(catalog.get("fano-flip-model"))
    assert c == 1 and witness == 0
    assert fano.c_invariant(catalog.get("blpt-p1x4"))[0] == 4


def test_c_witness_attains_max():
    fan = catalog.get("fano-flip-model")
    c, witness = fano.c_invariant(fan)
    rho = fan.rho
    profiles = fano.divisor_profiles(fan)
    assert max(p.codim for p in profiles) == c
    assert profiles[witness].codim == c
    for p in profiles:
        assert p.codim == rho - p.n1_dim


def test_n1_dimension_values():
    fan = catalog.get("fano-flip-model")
    dims = [fano.n1_dimension(fan, j) for j in range(fan.n_rays)]
    assert dims == [4, 4, 4, 4, 4, 4, 4, 4, 5]


def test_divisor_profiles_flag_movability():
    fan = catalog.get("blpt-p1x4")
    nonmov = {j for j, _ in M.nonmovable_prime_divisors(fan)}
    for p in fano.divisor_profiles(fan):
        assert p.movable == (p.ray not in nonmov)


def test_product_formula_on_del_pezzo_pairs():
    for n1, n2, prod in catalog.del_pezzo_products():
        want = max(catalog.get(n1).rho - 1, catalog.get(n2).rho - 1)
        c, _ = fano.c_invariant(prod)
        assert c == want, (n1, n2)


def test_exceptional_planes_of_flip_model():
    fan = catalog.get("fano-flip-model")
    rep = fano.detect_exceptional_loci(fan)
    assert len(rep.planes) == 10 and len(rep.lines) == 0
    in_d = [p for p in rep.planes if 8 in p.tau]
    assert len(in_d) == 4
    dd = F.data(fan)
    for p in rep.planes:
        pair = sum(a * b for a, b in zip(dd.ray_classes[8], p.line_class))
        assert pair == (-1 if 8 in p.tau else 1)
        assert len(p.star_cones) == 3
        # the three link rays and the two plane rays satisfy the flip identity
        s = [0] * fan.dim
        for k in p.link:
            s = [a + b for a, b in zip(s, fan.rays[k])]
        t = [a + b for a, b in zip(fan.rays[p.tau[0]], fan.rays[p.tau[1]])]
        assert s == t


def test_exceptional_lines_of_blowup():
    fan = catalog.get("blpt-p1x4")
    rep = fano.detect_exceptional_loci(fan)
    assert len(rep.planes) == 0 and len(rep.lines) == 4
    for l in rep.lines:
        w = next(x for x in F.walls(fan) if x.shared == l.shared)
        assert w.anticanonical_degree == -1
        coeffs = sorted(w.coefficient(i) for i in l.shared)
        assert coeffs == [-1, -1, -1]
        assert all(w.coefficient(i) == 1 for i in l.opposite)


def test_no_exceptional_loci_on_line_power():
    rep = fano.detect_exceptional_loci(catalog.get("p1x4"))
    assert not rep.planes and not rep.lines
    rep4 = fano.detect_exceptional_loci(catalog.get("p4"))
    assert not rep4.planes and not rep4.lines


def test_exceptional_loci_need_smooth_fourfold():
    with pytest.raises(ValidationError):
        fano.detect_exceptional_loci(catalog.get("p3"))
    with pytest.raises(ValidationError):
        fano.detect_exceptional_loci(catalog.get("wps11112"))


def test_disjointness_on_mixed_models(atlas_of):
    atlas = atlas_of("blpt-p1x4")
    both = 0
    for ch in atlas.chambers[:24]:
        rep = fano.detect_exceptional_loci(ch.model)
        if rep.planes and rep.lines:
            both += 1
            assert all(all(row) for row in rep.disjoint), ch.index
    assert both >= 3


def test_rebuild_flip_chain():
    res = anticanonical_chain()
    fans, rays = fano.rebuild_flip_chain(res)
    assert len(fans) == 5 and len(rays) == 4
    assert fans[0] == res.start
    assert fans[-1] == res.final
    # Both sides of a flip are star subdivided to one common fan at the ray
    # sum(pairing[j] * v_j for j in J+), and the flipped ray's class negates.
    for down, up, ray in zip(fans, fans[1:], rays):
        z = [0] * down.dim
        for j in ray.jplus:
            z = [a + ray.pairing[j] * b for a, b in zip(z, down.rays[j])]
        assert F.star_subdivision(down, ray.jminus, z) == F.star_subdivision(
            up, ray.jplus, z
        )
        partner = next(r for r in F.extremal_rays(up)
                       if (r.jminus, r.jplus) == (ray.jplus, ray.jminus))
        assert partner.cls == tuple(-x for x in ray.cls)


def test_flip_drops_divisor_curve_rank_by_at_most_one():
    res = anticanonical_chain()
    fans, rays = fano.rebuild_flip_chain(res)
    drops = 0
    for i, ray in enumerate(rays):
        partner = None
        for r in F.extremal_rays(fans[i + 1]):
            if r.jminus == ray.jplus and r.jplus == ray.jminus:
                partner = r
        assert partner is not None and partner.k_degree > 0
        assert partner.pairing == tuple(-x for x in ray.pairing)
        for j in range(fans[i].n_rays):
            d_up = fano.n1_dimension(fans[i + 1], j)
            d_dn = fano.n1_dimension(fans[i], j)
            assert d_dn - d_up in (0, -1), (i, j)
            if d_dn - d_up == -1:
                drops += 1
                assert partner.pairing[j] < 0 and ray.pairing[j] > 0
    assert drops == 8


def test_classifier_requires_rho_six():
    with pytest.raises(ValidationError):
        fano.classify_nonmovable_divisor(catalog.get("fano-flip-model"), 8)


def test_classifier_on_flip_model_divisor():
    res = fano.classify_nonmovable_divisor(
        catalog.get("fano-flip-model"), 8, audit_mode=True
    )
    assert res.tag == "(3,0)^P3" and res.flips == 4
    assert res.relation_pattern == ((1, 1, 1, 1), -1)
    assert res.target_smooth and res.target_fano
    assert res.audit_mode


def test_classifier_rejects_movable_divisor():
    fan = catalog.get("fano-flip-model")
    nm = {j for j, _ in M.nonmovable_prime_divisors(fan)}
    mov_ray = next(j for j in range(fan.n_rays) if j not in nm)
    with pytest.raises(ValidationError):
        fano.classify_nonmovable_divisor(fan, mov_ray, audit_mode=True)


def test_classifier_degenerate_quadric_signature():
    wps = catalog.get("wps11112-blowup")
    res = fano.classify_nonmovable_divisor(
        wps, wps.n_rays - 1, audit_mode=True
    )
    assert res.tag == "unclassifiable-smooth-quadric"
    assert res.relation_pattern == ((1, 1, 1, 1), -2)


def test_classifier_direct_surface_blowdown():
    blplane = catalog.get("blplane-p4")
    res = fano.classify_nonmovable_divisor(
        blplane, blplane.n_rays - 1, audit_mode=True
    )
    assert res.tag == "(3,2)" and res.flips == 0


def test_classifier_requires_smooth_fano():
    with pytest.raises(ValidationError):
        fano.classify_nonmovable_divisor(catalog.get("blpt-p1x4"), 8,
                                         audit_mode=True)


def test_audit_bounds_small_fanos():
    for name in ("p4", "p2xp2", "blpt-p4", "wps11112-blowup", "p1x4"):
        rep = fano.audit_bounds(catalog.get(name))
        assert rep.alarms == (), name
        assert rep.rho == catalog.get(name).rho
        names = [r.name for r in rep.records]
        assert len(names) == len(set(names))
        for r in rep.records:
            if not r.hypothesis_holds:
                assert r.conclusion_holds is None


def test_audit_bounds_flip_model():
    rep = fano.audit_bounds(catalog.get("fano-flip-model"))
    assert rep.alarms == ()
    assert rep.c_value == 1
    eft = next(r for r in rep.records if r.name == "elementary-fiber-type")
    assert eft.hypothesis_holds and eft.conclusion_holds
    src = next(r for r in rep.records if r.name == "small-ray-codimension")
    assert src.hypothesis_holds and src.conclusion_holds
    text = rep.to_text()
    assert text.startswith("rho 5  c 1 (ray 0)")
    assert "FALSIFIED" not in text
    for r in rep.records:
        assert r.name in text


def test_audit_bounds_surface_product():
    f1dp3 = F.product(catalog.get("f1"), catalog.get("dp3"))
    rep = fano.audit_bounds(f1dp3)
    assert rep.alarms == ()
    rst = next(r for r in rep.records if r.name == "regular-surface-target")
    assert rst.hypothesis_holds and rst.conclusion_holds
    hdc = next(r for r in rep.records
               if r.name == "high-divisor-codimension")
    assert hdc.hypothesis_holds and hdc.conclusion_holds
    assert rep.c_value == 3


def test_audit_bounds_rejects_non_fano():
    with pytest.raises(ValidationError):
        fano.audit_bounds(catalog.get("blpt-p1x4"))
    with pytest.raises(ValidationError):
        fano.audit_bounds(catalog.get("dp3"))


def test_falsification_alarm_fires(monkeypatch):
    monkeypatch.setitem(fano.BOUND_LIMITS, "elementary-fiber-type", 0)
    rep = fano.audit_bounds(catalog.get("p1x4"))
    assert "elementary-fiber-type" in rep.alarms
    rec = next(r for r in rep.records if r.name == "elementary-fiber-type")
    assert rec.hypothesis_holds and rec.conclusion_holds is False
    assert "FALSIFIED" in rep.to_text()
