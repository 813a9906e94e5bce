import pytest

from toricmds import catalog, fan as F, fano, mmp
from toricmds.errors import ValidationError


def test_names_sorted_and_complete():
    ns = catalog.names()
    assert ns == sorted(ns)
    assert len(ns) == 23
    for expected in ("p4", "blpt-p1x4", "fano-flip-model", "dp3",
                     "wps11112-blowup"):
        assert expected in ns


def test_get_unknown_name():
    with pytest.raises(ValidationError):
        catalog.get("no-such-fan")


def test_entries_match_computed_invariants():
    for name in catalog.names():
        e = catalog.CATALOG[name]
        f = e.fan
        d = F.data(f)
        assert f.dim == e.dim, name
        assert f.rho == e.rho, name
        assert d.is_projective, name
        assert d.is_smooth == e.smooth, name
        assert d.is_fano == e.fano, name


def test_entries_match_computed_c():
    for name in catalog.names():
        e = catalog.CATALOG[name]
        c, _ = fano.c_invariant(e.fan)
        assert c == e.c, name


def test_entry_factors_rebuild_product():
    for name in catalog.names():
        e = catalog.CATALOG[name]
        if not e.factors:
            continue
        rebuilt = catalog.get(e.factors[0])
        for part in e.factors[1:]:
            rebuilt = F.product(rebuilt, catalog.get(part))
        assert rebuilt == e.fan, name


def test_flip_model_facts():
    bl = catalog.get("blpt-p1x4")
    model = catalog.get("fano-flip-model")
    assert model.rays == bl.rays
    assert len(bl.max_cones) == 19 and len(model.max_cones) == 23
    assert not F.is_fano(bl)
    assert F.is_fano(model) and F.is_smooth(model)
    # The catalog states the model's cones; the anticanonical program derives
    # them. Fans compare field by field: the same rays in the same order and
    # the same sorted list of cones.
    program = mmp.run_mori_program(bl, [1] * 9, strategy="first")
    assert model == program.final


def test_weighted_projective_charts():
    p112 = catalog.get("p112")
    assert not F.is_smooth(p112) and F.is_projective(p112)
    wps = catalog.get("wps11112")
    assert not F.is_smooth(wps) and F.is_fano(wps)
    blown = catalog.get("wps11112-blowup")
    assert F.is_smooth(blown) and F.is_fano(blown)
    with pytest.raises(ValidationError):
        catalog.weighted_projective(2, 1, 1)
    with pytest.raises(ValidationError):
        catalog.weighted_projective(0, 1)


def test_del_pezzo_products_count():
    prods = catalog.del_pezzo_products()
    assert len(prods) == 15
    seen = set()
    for a, b, f in prods:
        assert f.dim == 4
        assert f.rho == catalog.CATALOG[a].rho + catalog.CATALOG[b].rho
        seen.add(frozenset((a, b)))
    assert len(seen) == 15


def test_builders_reject_bad_input():
    with pytest.raises(ValidationError):
        catalog.projective_space(0)
    with pytest.raises(ValidationError):
        catalog.hirzebruch(-1)
    with pytest.raises(ValidationError):
        catalog.del_pezzo(4)


def test_round_trip_all_entries():
    for name in catalog.names():
        f = catalog.get(name)
        text = catalog.write_fan_text(name, f)
        name2, f2 = catalog.parse_fan_text(text)
        assert name2 == name
        assert f == f2


def test_parse_accepts_comments_and_blanks():
    text = """
# a comment
fan tiny dim 1

ray 1   # trailing comment
ray -1
cone 0
cone 1
"""
    name, f = catalog.parse_fan_text(text)
    assert name == "tiny" and f.n_rays == 2


@pytest.mark.parametrize("text,fragment", [
    ("ray 1 0\n", "before fan header"),
    ("fan x dim 2\nfan y dim 2\n", "line 2"),
    ("fan x dim two\n", "not an integer"),
    ("fan x dim -1\nray\n", "line 1: dimension -1 is not positive"),
    ("fan x dim 0\nray\ncone\n", "line 1: dimension 0 is not positive"),
    ("fan x\n", "expected"),
    ("fan x dim 2\nray 1\n", "expected 2"),
    ("fan x dim 2\nray 1 0\nray 0 1\nray -1 -1\ncone 0 1 2\n", "cone"),
    ("fan x dim 1\nray 1\nray -1\nwedge 0\n", "unknown directive"),
    ("fan x dim 1\n", "needs rays and cones"),
    ("", "missing"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ValidationError) as exc:
        catalog.parse_fan_text(text)
    assert fragment in str(exc.value)


def test_parse_validates_fan_geometry():
    # structurally well formed but not a complete fan
    text = "fan bad dim 2\nray 1 0\nray 0 1\ncone 0 1\n"
    with pytest.raises(ValidationError):
        catalog.parse_fan_text(text)
