"""The product split of the bound audit does not depend on coordinates.

fano._surface_product_split reads a product of two surfaces off the wall
relations, not off coordinate blocks. A sheared product must pass verify,
and moving a fan by a unimodular map of its lattice must change neither the
split nor any fact of the audit. The oracle at the end checks that the
chambers and the rational contractions of a product fan multiply.
"""

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from toricmds import catalog, cli, fano, mdscones
from toricmds import fan as fanmod
from toricmds.linalg import dot

PRODUCTS = {(a, b): fan for a, b, fan in catalog.del_pezzo_products()}
C3_PRODUCTS = [(a, "dp3") for a in ("p2", "p1xp1", "f1", "dp2", "dp3")]

# fano-flip-model takes about 2.4 s to audit; test_fano.py audits it
AUDITED = {
    name: catalog.get(name) for name in catalog.names()
    if name != "fano-flip-model" and fano.is_smooth_fano_fourfold(catalog.get(name))
}
AUDITED.update({f"{a} x {b}": PRODUCTS[a, b] for a, b in C3_PRODUCTS})

# Twelve elementary row operations, one for each ordered pair of rows, in a
# drawn order with drawn signs. Even the simplest draw mixes every row.
ROW_PAIRS = [(i, j) for i in range(4) for j in range(4) if i != j]
row_operations = st.tuples(
    st.permutations(ROW_PAIRS),
    st.lists(st.sampled_from([1, -1]), min_size=12, max_size=12),
)


def unimodular(ops):
    order, signs = ops
    m = [[int(i == j) for j in range(4)] for i in range(4)]
    for (i, j), s in zip(order, signs):
        m[i] = [a + s * b for a, b in zip(m[i], m[j])]
    return m


def moved(fan, m):
    """The fan with every ray mapped by m, keeping the same cones."""
    rays = [tuple(dot(row, v) for row in m) for v in fan.rays]
    return fanmod.build_fan(fan.dim, rays, fan.max_cones)


def sheared(fan):
    """The shear x0 += x2 of every ray, keeping the same cones."""
    return moved(fan, [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


def audit_facts(fan):
    """The fields of every audit result, in small lists that diff quickly."""
    report = fano.audit_bounds(fan)
    return {
        "audit_bounds": [report[:3], *report.records],
        "c_invariant": fano.c_invariant(fan),
        "divisor_profiles": fano.divisor_profiles(fan),
        "classify_nonmovable_divisor": [
            fano.classify_nonmovable_divisor(fan, j, audit_mode=True)
            for j, _ in mdscones.nonmovable_prime_divisors(fan)
        ],
    }


@pytest.mark.parametrize("a, rhos", [("dp2", "3, 4"), ("dp3", "4, 4")])
def test_sheared_product_passes_verify(tmp_path, capsys, a, rhos):
    path = tmp_path / f"{a}-x-dp3.fan"
    path.write_text(
        catalog.write_fan_text(f"{a}-x-dp3-sheared", sheared(PRODUCTS[a, "dp3"]))
    )
    assert cli.run(["verify", str(path)]) == 0
    assert (
        f"high-divisor-codimension: ok  product of del Pezzo surfaces with rho {rhos}"
        in capsys.readouterr().out
    )


def test_surface_product_split_of_products():
    s1, s2 = fano._surface_product_split(catalog.get("p2xp2"))
    assert (s1.dim, s1.rho, s2.dim, s2.rho) == (2, 1, 2, 1)
    p1xp1 = catalog.get("p1xp1")
    for factor in fano._surface_product_split(catalog.get("p1x4")):
        assert set(factor.rays) == set(p1xp1.rays)
        assert len(factor.max_cones) == len(p1xp1.max_cones)
    # irreducible fans do not split
    for name in ("p4", "blpt-p4", "fano-flip-model"):
        assert fano._surface_product_split(catalog.get(name)) is None


@settings(max_examples=3, deadline=None, derandomize=True)
@given(ops=row_operations)
def test_split_ranks_do_not_depend_on_coordinates(ops):
    m = unimodular(ops)
    for (a, b), fan in PRODUCTS.items():
        split = fano._surface_product_split(moved(fan, m))
        assert split is not None, (a, b)
        assert [s.rho for s in split] == [catalog.get(a).rho, catalog.get(b).rho]
        assert all(fanmod.is_smooth(s) and fanmod.is_fano(s) for s in split)


# each example audits a fan twice, so a failing map is reported unshrunk
@pytest.mark.parametrize("name", sorted(AUDITED))
@settings(max_examples=1, deadline=None, derandomize=True, phases=[Phase.generate])
@given(ops=row_operations)
def test_audit_facts_do_not_depend_on_coordinates(name, ops):
    fan = AUDITED[name]
    got, want = audit_facts(moved(fan, unimodular(ops))), audit_facts(fan)
    for key in want:
        assert got[key] == want[key], key


@pytest.mark.parametrize(
    "a, b", [("bl2pts-p3", "bl2pts-p3"), ("blpt-p1cubed", "f1"), ("dp3", "dp3")]
)
def test_atlas_and_contractions_of_a_product_multiply(atlas_of, contractions_of, a, b):
    atlas = mdscones.chamber_atlas(fanmod.product(catalog.get(a), catalog.get(b)))
    assert len(atlas.chambers) == len(atlas_of(a).chambers) * len(atlas_of(b).chambers)
    assert len(mdscones.rational_contractions(atlas)) == (
        len(contractions_of(a)) * len(contractions_of(b))
    )
