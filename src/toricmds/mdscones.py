"""The cone calculus of a toric Mori dream space.

Everything lives in the rank-rho class lattice of the input fan. Small
modifications keep the ray set, so their class lattices are literally the
same coordinates; the chamber decomposition of the movable cone is computed
by crossing walls with flips, and contractions are read off from faces of
the chambers by their position relative to the movable and effective cones.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from . import fan as fanmod
from . import linalg, mmp
from .cones import PolyCone
from .errors import CapOverflowError, InternalError, ValidationError
from .fan import Fan
from .linalg import Vec, dot, primitive, primitive_fraction

MAX_CHAMBERS = 10000


class ConeInventory(NamedTuple):
    """The five cones of the divisor/curve class calculus."""

    fan: Fan
    nef: PolyCone
    mov: PolyCone
    eff: PolyCone
    ne: PolyCone
    me: PolyCone


def cone_inventory(fan: Fan) -> ConeInventory:
    dd = fanmod.data(fan)
    if not dd.is_projective:
        raise ValidationError("cone inventory needs a projective fan")
    rho = fan.rho
    nef, mov, eff = dd.nef_cone, dd.mov_cone, dd.eff_cone
    ne = dd.ne_cone
    me = eff.dual()
    for name, cone in (("nef", nef), ("mov", mov), ("eff", eff),
                       ("ne", ne), ("me", me)):
        if cone.dim != rho:
            raise InternalError(f"{name} cone has dim {cone.dim}, expected {rho}")
        if not cone.is_pointed():
            raise InternalError(f"{name} cone is not pointed")
    if not mov.contains_cone(nef):
        raise InternalError("nef cone is not inside the movable cone")
    if not eff.contains_cone(mov):
        raise InternalError("movable cone is not inside the effective cone")
    return ConeInventory(fan, nef, mov, eff, ne, me)


class Chamber(NamedTuple):
    index: int
    model: Fan
    cone: PolyCone


class ChamberAdjacency(NamedTuple):
    """Shared facet between two chambers, with the crossing wall data."""

    i: int
    j: int
    facet: PolyCone
    ray_class: Vec  # class of the small ray flipped when going from i to j
    jminus: tuple[int, ...]
    jplus: tuple[int, ...]


class ChamberAtlas(NamedTuple):
    fan: Fan
    inventory: ConeInventory
    chambers: list[Chamber]
    adjacency: list[ChamberAdjacency]
    base_chamber: int = 0


def chamber_atlas(fan: Fan, cap: int = MAX_CHAMBERS) -> ChamberAtlas:
    """All small modifications, by wall-crossing search from the nef chamber.

    Every facet of a chamber interior to the movable cone is shared with the
    flip across the corresponding small extremal ray; facets on the boundary
    of the movable cone are divisorial or fiber-type walls and are not
    crossed. The cap counts chambers, the nef chamber included, so it must
    be at least 1.
    """
    if cap < 1:
        raise ValidationError(f"chamber cap must be at least 1, got {cap}")
    inv = cone_inventory(fan)
    chambers: list[Chamber] = [Chamber(0, fan, fanmod.data(fan).nef_cone)]
    seen: dict[tuple, int] = {fan.key(): 0}
    adjacency: dict[tuple[int, int], ChamberAdjacency] = {}
    queue = [0]
    while queue:
        i = queue.pop(0)
        model = chambers[i].model
        dd = fanmod.data(model)
        for ray in dd.extremal_rays:
            if ray.kind != "small":
                continue
            neighbor = mmp.flip(model, ray)
            key = neighbor.key()
            j = seen.get(key)
            if j is None:
                j = len(chambers)
                if j >= cap:
                    raise CapOverflowError(
                        f"chamber count exceeded the cap of {cap}"
                    )
                seen[key] = j
                chambers.append(Chamber(j, neighbor, fanmod.data(neighbor).nef_cone))
                queue.append(j)
            pair = (min(i, j), max(i, j))
            if pair not in adjacency:
                facet = chambers[i].cone.intersect(chambers[j].cone)
                if facet.dim != fan.rho - 1:
                    raise InternalError(
                        f"chambers {i} and {j} do not share a facet"
                    )
                adjacency[pair] = ChamberAdjacency(
                    i=pair[0],
                    j=pair[1],
                    facet=facet,
                    ray_class=ray.cls if pair[0] == i else tuple(-x for x in ray.cls),
                    jminus=ray.jminus if pair[0] == i else ray.jplus,
                    jplus=ray.jplus if pair[0] == i else ray.jminus,
                )
    return ChamberAtlas(
        fan, inv, chambers, [adjacency[k] for k in sorted(adjacency)]
    )


class RationalContractionDescriptor(NamedTuple):
    """One cone of the chamber fan, with its contraction classification.

    target_rho is the rank of the target's class lattice (= dim sigma).
    kind follows the position of sigma: the full chambers are the small
    modifications; lower faces interior to the movable cone are small, on
    its boundary divisorial, on the boundary of the effective cone of fiber
    type. regular means the contraction is a morphism on the input fan.
    """

    sigma: PolyCone
    target_rho: int
    kind: str  # "sqm", "small", "divisorial", "fiber-type"
    regular: bool
    host_chamber: int
    host_chambers: tuple[int, ...]

    @property
    def elementary(self) -> bool:
        return self.sigma.ambient_dim - self.target_rho == 1


def _touches_boundary(cone: PolyCone, point: Sequence) -> bool:
    return any(dot(h, point) == 0 for h in cone.proper_facet_normals())


def _classify_position(inv: ConeInventory, sigma: PolyCone) -> str:
    if sigma.dim == inv.fan.rho:
        return "sqm"
    p = sigma.relative_interior_point()
    if _touches_boundary(inv.eff, p):
        return "fiber-type"
    if _touches_boundary(inv.mov, p):
        return "divisorial"
    return "small"


def rational_contractions(
    atlas: ChamberAtlas, max_codim: int | None = None
) -> list[RationalContractionDescriptor]:
    """Every cone of the chamber fan down to the requested codimension,
    each face reported once no matter how many chambers share it."""
    rho = atlas.fan.rho
    faces: dict[tuple, PolyCone] = {}
    hosts: dict[tuple, set[int]] = {}
    for chamber in atlas.chambers:
        # A face is spanned by the chamber generators it keeps, and a cone
        # is spanned by its canonical generators, so a hit on a canonical
        # key is exactly this face for any chamber. On pointed chambers the
        # kept generators are canonical, so a shared face always hits.
        for sub in chamber.cone.face_generator_sets():
            sigma = faces.get(sub)
            if sigma is None:
                sigma = PolyCone.from_generators(rho, sub)
                faces[sigma.generators] = sigma
            if max_codim is not None and rho - sigma.dim > max_codim:
                continue
            hosts.setdefault(sigma.generators, set()).add(chamber.index)
    inv = atlas.inventory
    out = []
    for key in sorted(hosts):
        sigma = faces[key]
        out.append(
            RationalContractionDescriptor(
                sigma=sigma,
                target_rho=sigma.dim,
                kind=_classify_position(inv, sigma),
                regular=inv.nef.contains_cone(sigma),
                host_chamber=min(hosts[key]),
                host_chambers=tuple(sorted(hosts[key])),
            )
        )
    out.sort(key=lambda d: (d.target_rho, d.sigma.generators))
    return out


class QuasiElementaryResult(NamedTuple):
    """Verdict and the three conditions behind it, for the cone of desc.

    eff_face is the slice of the effective cone by the span of sigma, the
    cone condition v tests; on a quasi-elementary cone it is the face of the
    effective cone spanned by sigma. target_model takes a result with a true
    verdict, so its precondition is carried by the type and each face is
    tested once.
    """

    desc: RationalContractionDescriptor
    verdict: bool
    condition_iii: bool
    condition_iv: bool
    condition_v: bool
    minimal_eff_face_dim: int
    contracted_curves_dim: int
    eff_face: PolyCone


def is_quasi_elementary(
    atlas: ChamberAtlas, desc: RationalContractionDescriptor
) -> QuasiElementaryResult:
    """Quasi-elementary test for a fiber-type cone, three ways.

    The verdict is the face-dimension condition: the minimal face of the
    effective cone containing sigma has the dimension of sigma. Two
    independent computations cross-check it: the cone of contracted curve
    classes (the mobile dual cone cut to the orthogonal complement of sigma)
    must have
    dimension rho - dim sigma, and the effective cone must meet the span of
    sigma in a face. Disagreement raises, since the three are equivalent.
    """
    if desc.kind != "fiber-type":
        raise ValidationError(
            f"quasi-elementary test needs a fiber-type cone, got {desc.kind}"
        )
    inv = atlas.inventory
    rho = atlas.fan.rho
    sigma = desc.sigma

    min_face = inv.eff.minimal_face_containing(list(sigma.generators))
    cond_iv = min_face.dim == sigma.dim

    span_perp = PolyCone.from_inequalities(
        rho, [], equations=list(sigma.generators)
    )
    me_f = inv.me.intersect(span_perp)
    cond_iii = me_f.dim == rho - sigma.dim

    flat = PolyCone.from_inequalities(
        rho, [], equations=linalg.integer_kernel(sigma.generators, rho)
    )
    eff_slice = inv.eff.intersect(flat)
    cond_v = eff_slice.dim == sigma.dim and inv.eff.is_face(eff_slice)

    if not (cond_iii == cond_iv == cond_v):
        raise InternalError(
            "equivalent quasi-elementary conditions disagree: "
            f"iii={cond_iii} iv={cond_iv} v={cond_v}"
        )
    return QuasiElementaryResult(
        desc=desc,
        verdict=cond_iv,
        condition_iii=cond_iii,
        condition_iv=cond_iv,
        condition_v=cond_v,
        minimal_eff_face_dim=min_face.dim,
        contracted_curves_dim=me_f.dim,
        eff_face=eff_slice,
    )


def nonmovable_prime_divisors(fan: Fan) -> list[tuple[int, Vec]]:
    """Invariant prime divisors spanning effective-cone rays outside the
    movable cone, as (ray index, class) pairs; exactly one divisor per ray."""
    inv = cone_inventory(fan)
    dd = fanmod.data(fan)
    out = []
    for g in inv.eff.generators:
        if inv.mov.contains_point(g):
            continue
        owners = [
            j for j in range(fan.n_rays)
            if primitive(dd.ray_classes[j]) == g
        ]
        if len(owners) != 1:
            raise InternalError(
                f"effective ray {g} carried by {len(owners)} divisors"
            )
        out.append((owners[0], g))
    return out


# -- target models of quasi-elementary contractions --------------------------

class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


class TargetModel(NamedTuple):
    """A fiber-type contraction target realized as a fan, with the pullback.

    pullback is a rho_X by rho_Y matrix sending target classes into the
    source class lattice; ray_map sends source ray indices to target ray
    indices (None for rays collapsed by the contraction).
    """

    fan: Fan
    pullback: tuple[Vec, ...]
    ray_map: tuple[int | None, ...]

    def pull_class(self, y_class: Sequence) -> tuple:
        return tuple(dot(row, y_class) for row in self.pullback)


def target_model(atlas: ChamberAtlas, qe: QuasiElementaryResult) -> TargetModel:
    """Construct the target fan of a quasi-elementary contraction.

    qe is the quasi-elementary test of the contraction's cone, with a true
    verdict. Maximal cones of the host model are merged across the walls
    whose curve class vanishes against sigma; each merged piece has a common
    lineality space (the kernel of the lattice projection), and the quotient
    fan is the target. The pullback is read off the ray images: the image of
    source ray j is g_j times the primitive target ray ray_map[j], where g_j
    is the gcd of the image, so the pullback of the target ray divisor E_r
    has coefficient g_j on each source ray j with ray_map[j] == r and 0
    elsewhere. It is certified: it must carry the target's nef cone exactly
    onto sigma and the target's effective cone onto the face of the source
    effective cone spanned by sigma.
    """
    if not qe.verdict:
        raise ValidationError("target models need a quasi-elementary cone")
    desc = qe.desc
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

    piece_rays = []
    lineality: list[Vec] | None = None
    for root in sorted(pieces):
        members = pieces[root]
        rays = sorted({i for c in members for i in c})
        cone = PolyCone.from_generators(n, [model.rays[i] for i in rays])
        piece_rays.append(rays)
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

    ray_map: list[int | None] = []
    weights: list[int] = []
    y_rays: list[Vec] = []
    for v in model.rays:
        img = tuple(dot(w, v) for w in proj)
        weights.append(math.gcd(*img))
        if weights[-1] == 0:
            ray_map.append(None)
            continue
        img = primitive(img)
        if img in y_rays:
            ray_map.append(y_rays.index(img))
        else:
            ray_map.append(len(y_rays))
            y_rays.append(img)
    y_cones = [
        tuple(sorted({ray_map[i] for i in rays if ray_map[i] is not None}))
        for rays in piece_rays
    ]
    y_fan = fanmod.build_fan(dim_y, y_rays, y_cones)
    y_dd = fanmod.data(y_fan)
    rho_y = y_fan.rho
    if rho_y != desc.sigma.dim:
        raise InternalError(
            f"target rank {rho_y} does not match the cone dimension {desc.sigma.dim}"
        )

    pull_coeff = [
        tuple(g if r == t else 0 for r, g in zip(ray_map, weights))
        for t in range(y_fan.n_rays)
    ]
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


def compose_quasi_elementary(
    atlas: ChamberAtlas,
    f_desc: RationalContractionDescriptor,
    g_atlas: ChamberAtlas,
    g_desc: RationalContractionDescriptor,
) -> RationalContractionDescriptor:
    """Composite of a quasi-elementary contraction with one on its target.

    g_atlas must be the chamber atlas of f's target model (as produced by
    target_model); g may also be the identity cone (the target's full nef
    chamber), in which case the composite is f itself. The composite's
    descriptor is the chamber-fan cone of rational_contractions(atlas) that
    the pulled-back sigma of g equals.
    """
    tm = target_model(atlas, is_quasi_elementary(atlas, f_desc))
    if g_atlas.fan.key() != tm.fan.key():
        raise ValidationError("second contraction is not on the target model")
    identity = g_desc.sigma == fanmod.data(tm.fan).nef_cone
    if not identity:
        qe_g = is_quasi_elementary(g_atlas, g_desc)
        if not qe_g.verdict:
            raise ValidationError("second contraction is not quasi-elementary")
    gens = [
        primitive_fraction(tm.pull_class(g)) for g in g_desc.sigma.generators
    ]
    sigma = PolyCone.from_generators(atlas.fan.rho, gens)
    desc = next(
        (d for d in rational_contractions(atlas) if d.sigma == sigma), None
    )
    if desc is None:
        raise InternalError("composite contraction is not a chamber-fan cone")
    qe = is_quasi_elementary(atlas, desc)
    if not qe.verdict:
        raise InternalError("composite contraction is not quasi-elementary")
    return desc
