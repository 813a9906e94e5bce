"""Oracle tests for the wall classes and target pullbacks read off the lattice.

FanData.walls takes each wall's curve class from one kernel in the class
lattice, and target_model reads each pullback coefficient off the gcd of a
ray image. The slow paths they replaced are kept here verbatim: the relation
kernel over the involved rays followed by a solve in the class basis (the
former FanData.curve_class_from_pairing, kept here as part of it), and the
search for a target cone holding each projected ray. The old target_model
takes the result of the quasi-elementary test instead of rerunning it, as the
new one does; the rest of it is verbatim. Agreement must be exact, field for
field.
"""

from fractions import Fraction

import pytest

from toricmds import catalog, linalg, mdscones
from toricmds import fan as fanmod
from toricmds.cones import PolyCone
from toricmds.errors import InternalError, ValidationError
from toricmds.fan import Wall, _wall_incidence
from toricmds.linalg import dot, primitive, primitive_fraction
from toricmds.mdscones import TargetModel, _UnionFind

# -- the slow paths ------------------------------------------------------------


def old_curve_class_from_pairing(self, pairing):
    """Coordinates of a relation vector in the canonical basis."""
    b = self.class_basis
    rows = [[b[k][j] for k in range(len(b))] for j in range(self.fan.n_rays)]
    sol = linalg.solve(rows, list(pairing))
    if sol is None:
        raise InternalError("pairing vector is not a ray relation")
    out = []
    for x in sol:
        if x.denominator != 1:
            raise InternalError("relation is not integral in a saturated basis")
        out.append(int(x))
    return tuple(out)


def old_walls(self):
    fan = self.fan
    n = fan.dim
    incidence = _wall_incidence(fan)
    out = []
    for facet in sorted(incidence):
        owners = incidence[facet]
        if len(owners) != 2:
            raise ValidationError(f"wall {facet} is not two-sided")
        extras = sorted(
            next(iter(set(c) - set(facet))) for c in owners
        )
        involved = sorted(facet + tuple(extras))
        cols = [fan.rays[i] for i in involved]
        ker = linalg.integer_kernel(
            [[v[k] for v in cols] for k in range(n)], len(involved)
        )
        if len(ker) != 1:
            raise InternalError(f"wall {facet} has a degenerate relation")
        rel = list(ker[0])
        ia, ib = involved.index(extras[0]), involved.index(extras[1])
        if rel[ia] < 0:
            rel = [-x for x in rel]
        if rel[ia] <= 0 or rel[ib] <= 0:
            raise ValidationError(
                f"wall {facet}: opposite rays are not on opposite sides"
            )
        full = [0] * fan.n_rays
        for idx, c in zip(involved, rel):
            full[idx] = c
        out.append(
            Wall(
                shared=facet,
                opposite=tuple(extras),  # type: ignore[arg-type]
                relation=tuple(zip(involved, rel)),
                curve_class=old_curve_class_from_pairing(self, tuple(full)),
            )
        )
    return out


def old_target_model(atlas, qe):
    desc = qe.desc
    if not qe.verdict:
        raise ValidationError("target models need a quasi-elementary cone")
    if desc.target_rho == 0:
        raise ValidationError("the contraction to a point has no fan model")
    model = atlas.chambers[desc.host_chamber].model
    dd = fanmod.data(model)
    n = model.dim
    d_rep = desc.sigma.relative_interior_point()

    cones = list(model.max_cones)
    pos = {c: k for k, c in enumerate(cones)}
    uf = _UnionFind(len(cones))
    for w in dd.walls:
        if dot(d_rep, w.curve_class) == 0:
            ca = tuple(sorted(w.shared + (w.opposite[0],)))
            cb = tuple(sorted(w.shared + (w.opposite[1],)))
            uf.union(pos[ca], pos[cb])
    pieces: dict[int, list[tuple[int, ...]]] = {}
    for k, c in enumerate(cones):
        pieces.setdefault(uf.find(k), []).append(c)

    piece_cones = []
    lineality = None
    for root in sorted(pieces):
        members = pieces[root]
        rays = sorted({i for c in members for i in c})
        cone = PolyCone.from_generators(n, [model.rays[i] for i in rays])
        piece_cones.append((cone, rays))
        if lineality is None:
            lineality = cone.lineality_basis()
        elif cone.lineality_basis() != lineality:
            raise InternalError("merged pieces disagree on the collapsed space")
    if lineality is None:
        raise InternalError("no maximal cones to merge")
    if not lineality:
        raise InternalError("fiber-type contraction collapses nothing")

    proj = linalg.integer_kernel([list(v) for v in lineality], n)
    dim_y = len(proj)

    def project(v):
        return tuple(dot(w, v) for w in proj)

    ray_map = []
    y_rays = []
    for j in range(model.n_rays):
        img = project(model.rays[j])
        if all(x == 0 for x in img):
            ray_map.append(None)
            continue
        img = primitive(img)
        if img in y_rays:
            ray_map.append(y_rays.index(img))
        else:
            ray_map.append(len(y_rays))
            y_rays.append(img)
    y_cones = []
    for cone, rays in piece_cones:
        idxs = sorted({ray_map[i] for i in rays if ray_map[i] is not None})
        y_cones.append(tuple(idxs))
    y_fan = fanmod.build_fan(dim_y, y_rays, y_cones)
    y_dd = fanmod.data(y_fan)
    rho_y = y_fan.rho
    if rho_y != desc.sigma.dim:
        raise InternalError(
            f"target rank {rho_y} does not match the cone dimension {desc.sigma.dim}"
        )

    # pullback coefficients of each target ray divisor via support functions:
    # express the projection of every source ray in its target cone, then the
    # coefficient for ray divisor rho is the barycentric weight of rho there
    homes = []
    for j in range(model.n_rays):
        img = project(model.rays[j])
        home = None
        for c in y_fan.max_cones:
            sol = linalg.solve(
                [[y_fan.rays[i][k] for i in c] for k in range(dim_y)], img
            )
            if sol is not None and all(x >= 0 for x in sol):
                home = (c, sol)
                break
        if home is None:
            raise InternalError("projected ray escapes the target fan")
        homes.append(home)
    pull_coeff = []
    for rho_idx in range(y_fan.n_rays):
        coeffs = []
        for c, sol in homes:
            if rho_idx in c:
                coeffs.append(sol[c.index(rho_idx)])
            else:
                coeffs.append(Fraction(0))
        pull_coeff.append(tuple(coeffs))

    pull_classes = [dd.divisor_class(a) for a in pull_coeff]
    rows_y = [
        [y_dd.class_basis[l][j] for l in range(rho_y)]
        for j in range(y_fan.n_rays)
    ]
    f_rows = []
    for k in range(atlas.fan.rho):
        rhs = [pull_classes[j][k] for j in range(y_fan.n_rays)]
        sol = linalg.solve(rows_y, rhs)
        if sol is None:
            raise InternalError("pullback does not factor through target classes")
        f_rows.append(tuple(sol))
    tm = TargetModel(
        fan=y_fan,
        pullback=tuple(f_rows),
        ray_map=tuple(ray_map),
    )

    # certificates
    nef_img = PolyCone.from_generators(
        atlas.fan.rho,
        [primitive_fraction(tm.pull_class(g)) for g in y_dd.nef_cone.generators],
    )
    if nef_img != desc.sigma:
        raise InternalError("pullback of the target nef cone is not sigma")
    eff_img = PolyCone.from_generators(
        atlas.fan.rho,
        [primitive_fraction(tm.pull_class(g)) for g in y_dd.eff_cone.generators],
    )
    if eff_img != qe.eff_face:
        raise InternalError(
            "pullback of the target effective cone is not the effective face"
        )
    return tm


# -- a ray image with gcd 2 ------------------------------------------------------

# The image (2) of the ray (2, 1) under the projection to the first
# coordinate is twice the target ray (1): the contraction to P1 pulls the
# point (1) back to 2 D_0. Every ray image in the catalog and in the del
# Pezzo products has gcd 1.
def gcd_two_surface():
    return fanmod.build_fan(
        2, [(2, 1), (0, 1), (-1, 0), (0, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)]
    )


def qe_faces(atlas, contractions):
    """The quasi-elementary results of the fiber-type faces with a target of
    positive Picard number. The full test runs only on faces that pass
    condition iv counted by rank: the effective generators on every facet
    holding sigma span a face of the dimension of sigma."""
    eff = atlas.inventory.eff
    normals = eff.proper_facet_normals()
    out = []
    for d in contractions:
        if d.kind != "fiber-type" or d.target_rho < 1:
            continue
        act = [h for h in normals if all(dot(h, g) == 0 for g in d.sigma.generators)]
        face = [g for g in eff.generators if all(dot(h, g) == 0 for h in act)]
        if linalg.rank(face) == d.sigma.dim:
            qe = mdscones.is_quasi_elementary(atlas, d)
            assert qe.verdict, d.sigma
            out.append(qe)
    return out


def same_model(a, b):
    return (a.fan, a.pullback, a.ray_map) == (b.fan, b.pullback, b.ray_map)


# -- tests ---------------------------------------------------------------------


def test_walls_match_relation_kernel_and_solve(atlas_of):
    fans = [catalog.get(name) for name in catalog.names()]
    fans += [c.model for name in catalog.names() for c in atlas_of(name).chambers]
    fans += [f for _, _, f in catalog.del_pezzo_products()]
    # 257 fans, 137 distinct: each catalog fan is chamber 0 of its own
    # atlas, blpt-p1x4 and fano-flip-model have the same 95 models, and two
    # del Pezzo products are catalog fans
    distinct = dict.fromkeys(fans)
    walls = 0
    for f in distinct:
        dd = fanmod.data(f)
        assert dd.walls == old_walls(dd), f
        walls += len(dd.walls)
    assert (len(fans), len(distinct), walls) == (257, 137, 4706)


def test_target_models_match_cone_search(atlas_of, contractions_of):
    faces = 0
    for name in catalog.names():
        atlas = atlas_of(name)
        for qe in qe_faces(atlas, contractions_of(name)):
            new = mdscones.target_model(atlas, qe)
            assert same_model(new, old_target_model(atlas, qe)), (name, qe.desc.sigma)
            faces += 1
    assert faces == 113


@pytest.mark.parametrize("times_p1, expected", [
    (False, [(1, 2)]),
    (True, [(1, 2), (2, 1), (2, 2)]),
])
def test_target_model_pulls_back_by_the_image_gcd(times_p1, expected):
    # (target dimension, coefficient of D_0 in the pullback of the target ray
    # that ray 0 maps to) over the faces not collapsing ray 0: 2 on P1 and on
    # P1 x P1, where the image of (2, 1) has gcd 2, and 1 on the surface
    f = gcd_two_surface()
    if times_p1:
        f = fanmod.product(f, catalog.get("p1"))
    atlas = mdscones.chamber_atlas(f)
    dd = fanmod.data(f)
    seen = []
    for qe in qe_faces(atlas, mdscones.rational_contractions(atlas)):
        tm = mdscones.target_model(atlas, qe)
        assert same_model(tm, old_target_model(atlas, qe)), qe.desc.sigma
        if tm.ray_map[0] is None:
            continue
        pulled = tm.pull_class(fanmod.data(tm.fan).ray_classes[tm.ray_map[0]])
        coeff = next(
            g for g in (1, 2)
            if pulled == dd.divisor_class([g] + [0] * (f.n_rays - 1))
        )
        seen.append((tm.fan.dim, coeff))
    assert sorted(seen) == expected


def test_target_model_rejects_false_verdict():
    atlas = mdscones.chamber_atlas(catalog.get("blpt-p1cubed"))
    for d in mdscones.rational_contractions(atlas):
        if d.kind != "fiber-type":
            continue
        qe = mdscones.is_quasi_elementary(atlas, d)
        if not qe.verdict:
            with pytest.raises(ValidationError):
                mdscones.target_model(atlas, qe)
            return
    pytest.fail("no fiber-type face that is not quasi-elementary")
