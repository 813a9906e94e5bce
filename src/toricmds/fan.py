"""Complete simplicial fans: validation, walls, divisor and curve classes.

A Fan is immutable: primitive ray vectors in a fixed order (the order is part
of the fan's identity) and maximal cones as sorted index tuples. build_fan
sorts and deduplicates the cones, so == on fans is structural equality.
Everything derived from a fan (walls, the class lattice, the extremal ray
decomposition of the curve cone) is computed once and cached per fan.

Curve and divisor classes live in dual lattices of rank rho = #rays - dim.
The divisor class of a coefficient vector a is B @ a, where the rows of B are
a canonical basis of the saturated lattice of integer relations among the
rays; a curve class is stored by its coordinates in that basis, so the
intersection pairing is the plain dot product.
"""

from __future__ import annotations

import math
import random
from functools import cached_property
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from . import linalg, lp
from .cones import PolyCone
from .errors import InternalError, ValidationError
from .linalg import Vec, dot, primitive, vneg


class Fan(NamedTuple):
    """Complete simplicial fan in Z^dim."""

    dim: int
    rays: tuple[Vec, ...]
    max_cones: tuple[tuple[int, ...], ...]

    def cone_rays(self, cone: Sequence[int]) -> list[Vec]:
        return [self.rays[i] for i in cone]

    @property
    def n_rays(self) -> int:
        return len(self.rays)

    @property
    def rho(self) -> int:
        return len(self.rays) - self.dim

    def __repr__(self) -> str:
        return f"Fan(dim {self.dim}, {len(self.rays)} rays, {len(self.max_cones)} cones)"


def _cone_membership(rays: list[Vec], point: Sequence[int]) -> tuple[bool, bool]:
    """(point lies in the simplicial cone, point lies in its interior), read
    off one sign vector of the point's coordinates in the rays."""
    signs = linalg.solution_signs(
        [[r[k] for r in rays] for k in range(len(point))], point
    )
    inside = signs is not None and -1 not in signs
    return inside, inside and 0 not in signs


def _wall_incidence(fan: Fan) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """Every codimension-one face of a maximal cone, with the maximal cones
    containing it, in the order the cones list them."""
    incidence: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for c in fan.max_cones:
        for facet in combinations(c, fan.dim - 1):
            incidence.setdefault(facet, []).append(c)
    return incidence


# Seeded draws of the generic point before build_fan gives up. A draw is
# refused only when it lands on a cone boundary; each wall's hyperplane
# holds at most 1/1995 of the points of [-997, 997]^dim.
_GENERIC_DRAWS = 32


def _interior_holders(fan: Fan, point: Vec) -> list[tuple[int, ...]] | None:
    """The maximal cones holding the point in their interior, or None when
    the point lies on the boundary of a maximal cone."""
    holders = []
    for c in fan.max_cones:
        inside, interior = _cone_membership(fan.cone_rays(c), point)
        if inside and not interior:
            return None
        if interior:
            holders.append(c)
    return holders


def build_fan(
    dim: int,
    rays: Iterable[Sequence[int]],
    max_cones: Iterable[Sequence[int]],
    check: str = "full",
) -> Fan:
    """Validate and construct a complete simplicial fan.

    check="full" proves the input is a complete simplicial fan; "none"
    trusts the caller. The proof needs primitive distinct rays, each used;
    maximal cones of dim independent rays; every wall (facet of a maximal
    cone) in exactly two maximal cones, which lie on opposite sides of it;
    and one generic point in the interior of exactly one maximal cone and
    on no cone's boundary. This is the characterisation of triangulations
    by the pseudomanifold property plus one point covered once (De Loera,
    Rambau and Santos, "Triangulations", 2010), in fan form:

    Covering degree is 1. Work in R^dim. Let B be the union of the cone
    boundaries and S the union of their codimension-2 faces. For x off B
    let deg(x) count the maximal cones holding x in their interior. Take x
    in B but off S. Every cone with x on its boundary holds x in the
    relative interior of exactly one of its walls, and the other cone of
    that wall also has x on its boundary and lies across the wall. So those
    cones split into pairs, and each pair adds exactly one to deg on every
    side of x. Hence deg takes one value around x, and it extends to a
    locally constant function off S. S is a finite union of cones of
    dimension at most dim - 2, so its complement is connected, and deg is
    1 everywhere, its value at the generic point. The cones therefore
    cover R^dim and their interiors are disjoint.

    Cones meet in common faces. Take a face tau of a maximal cone and x in
    its relative interior. Near x, a cone containing tau is the preimage
    of its projection along span(tau). These projections form the link of
    tau: simplicial cones whose walls come from the walls through tau, so
    they too are paired on opposite sides. By the same argument the link
    has a constant degree, which is positive because tau lies in some
    maximal cone, and at most deg = 1. So the cones containing tau cover a
    neighbourhood of x. The interior of any maximal cone holding x meets
    that neighbourhood, and interiors are disjoint, so every maximal cone
    holding x contains tau. If x were also in the relative interior of a
    face tau' != tau, a cone holding x would contain both faces, but a
    point of a simplicial cone lies in the relative interior of only one of
    its faces. So a point of two maximal cones lies in a face spanned by
    their common rays, and the two cones meet in that face.

    Opposite sides are read off orientations: with the cone's rays sorted,
    det(wall rays, extra ray) has the sign of the cone's determinant times
    (-1)^(dim - 1 - p), where p is the extra ray's position in the cone.

    Only code that has proved the output valid may pass "none": surgery that
    rewrites the star of a circuit in a fan that is already valid, after
    checking the certificate of the rewrite (mmp.flip and
    mmp.contract_divisorial check the circuit relation and the shape of the
    star; star_subdivision checks that the new ray is a new ray strictly
    inside the subdivided cone). Everything else, user-supplied fans,
    products, the fans built by target_model and the factor fans of the
    surface product split, keeps the default check, because no local
    argument covers them.
    """
    if check not in ("none", "full"):
        raise ValidationError(f"unknown check level {check!r}")
    ray_list = [tuple(int(x) for x in v) for v in rays]
    cone_list = [tuple(sorted(int(i) for i in c)) for c in max_cones]
    fan = Fan(dim, tuple(ray_list), tuple(sorted(set(cone_list))))
    if check == "none":
        return fan
    if len(cone_list) != len(fan.max_cones):
        raise ValidationError("duplicate maximal cones")
    for v in ray_list:
        if len(v) != dim:
            raise ValidationError(f"ray {v} has length {len(v)}, expected {dim}")
        if all(x == 0 for x in v):
            raise ValidationError("zero ray")
        if primitive(v) != v:
            raise ValidationError(f"ray {v} is not primitive")
    if len(set(ray_list)) != len(ray_list):
        raise ValidationError("duplicate rays")
    used: set[int] = set()
    orientation: dict[tuple[int, ...], int] = {}
    for c in fan.max_cones:
        if len(c) != dim or len(set(c)) != dim:
            raise ValidationError(f"cone {c} does not have {dim} distinct rays")
        if any(i < 0 or i >= len(ray_list) for i in c):
            raise ValidationError(f"cone {c} references a missing ray")
        d = linalg.det([ray_list[i] for i in c])
        if d == 0:
            raise ValidationError(f"cone {c} is not simplicial (dependent rays)")
        orientation[c] = 1 if d > 0 else -1
        used.update(c)
    if used != set(range(len(ray_list))):
        raise ValidationError("some rays appear in no maximal cone")

    def side(c: tuple[int, ...], facet: tuple[int, ...]) -> int:
        pos = next(k for k, i in enumerate(c) if i not in facet)
        return orientation[c] * (-1) ** (dim - 1 - pos)

    for facet, owners in _wall_incidence(fan).items():
        if len(owners) != 2:
            raise ValidationError(
                f"wall {facet} belongs to {len(owners)} maximal cones, expected 2"
            )
        a, b = owners
        if side(a, facet) == side(b, facet):
            raise ValidationError(
                f"cones {a} and {b} lie on the same side of wall {facet}"
            )

    rng = random.Random(0xFA9)
    for _ in range(_GENERIC_DRAWS):
        p = tuple(rng.randint(-997, 997) for _ in range(dim))
        holders = _interior_holders(fan, p)
        if holders is None:
            continue
        if len(holders) != 1:
            raise ValidationError(
                f"point {p} is interior to {len(holders)} maximal cones, expected 1"
            )
        return fan
    raise InternalError(
        f"no point off every cone boundary in {_GENERIC_DRAWS} draws: "
        f"rays {fan.rays} cones {fan.max_cones}"
    )


class Wall(NamedTuple):
    """Codimension-one cone shared by two maximal cones.

    relation holds (ray index, coefficient) pairs over the n+1 involved rays,
    normalized: integer, gcd one, both opposite rays positive.
    curve_class is the class of the invariant curve of the wall, in the
    canonical curve-lattice coordinates of the fan.
    """

    shared: tuple[int, ...]
    opposite: tuple[int, int]
    relation: tuple[tuple[int, int], ...]
    curve_class: Vec

    @property
    def involved(self) -> tuple[int, ...]:
        return tuple(sorted(self.shared + self.opposite))

    def coefficient(self, ray_index: int) -> int:
        for i, c in self.relation:
            if i == ray_index:
                return c
        return 0

    @property
    def anticanonical_degree(self) -> int:
        return sum(c for _, c in self.relation)


class ExtremalRay(NamedTuple):
    """One extremal ray of the cone of curves, with its sign pattern.

    cls is the primitive class generating the ray; pairing[j] is its
    intersection number with the divisor of ray j. jminus/jplus are the rays
    with negative/positive pairing (the circuit of the ray).
    """

    cls: Vec
    pairing: Vec
    jminus: tuple[int, ...]
    jplus: tuple[int, ...]
    kind: str  # "fiber", "divisorial", "small"
    exc_dim: int
    image_dim: int
    k_degree: int
    sort_key: tuple


class FanData:
    """Derived data for one fan, computed lazily and cached per fan."""

    def __init__(self, fan: Fan):
        self.fan = fan

    @cached_property
    def walls(self) -> list[Wall]:
        """Every wall, with its relation and curve class read off the lattice.

        Let I be the wall's n+1 involved rays. Its curve pairs to zero with
        D_j for every ray j outside I, and a class pairs with D_j through
        ray_classes[j], column j of the class basis. So the curve class spans
        the kernel of those rho - 1 columns. That kernel is one dimensional:
        the basis maps it onto the relations supported on I, which are the
        multiples of the wall's one circuit, since the n rays of each owner
        are independent. Its saturated generator is the primitive class, and
        its pairing vector is the relation. A basis of the saturated relation
        lattice maps primitive classes to primitive relations, so a relation
        with a common factor means the class basis is not saturated.
        """
        fan = self.fan
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
            ker = linalg.integer_kernel(
                [c for j, c in enumerate(self.ray_classes) if j not in involved],
                fan.rho,
            )
            if len(ker) != 1:
                raise InternalError(f"wall {facet} has a degenerate relation")
            cls, rel = ker[0], self.pairing_vector(ker[0])
            if rel[extras[0]] < 0:
                cls, rel = vneg(cls), vneg(rel)
            if rel[extras[0]] <= 0 or rel[extras[1]] <= 0:
                raise ValidationError(
                    f"wall {facet}: opposite rays are not on opposite sides"
                )
            if primitive(rel) != rel:
                raise InternalError("relation is not primitive in a saturated basis")
            out.append(
                Wall(
                    shared=facet,
                    opposite=tuple(extras),  # type: ignore[arg-type]
                    relation=tuple((j, rel[j]) for j in involved),
                    curve_class=cls,
                )
            )
        return out

    @cached_property
    def class_basis(self) -> tuple[Vec, ...]:
        """Rows: canonical basis of the integer relation lattice of the rays."""
        fan = self.fan
        mat = [[v[k] for v in fan.rays] for k in range(fan.dim)]
        basis = linalg.integer_kernel(mat, fan.n_rays)
        if len(basis) != fan.rho:
            raise InternalError("relation lattice has unexpected rank")
        return tuple(basis)

    def divisor_class(self, coeffs: Sequence) -> tuple:
        """Class of sum(coeffs[j] * D_j) in the rank-rho divisor lattice."""
        if len(coeffs) != self.fan.n_rays:
            raise ValidationError(
                f"divisor needs {self.fan.n_rays} coefficients, got {len(coeffs)}"
            )
        return tuple(dot(row, coeffs) for row in self.class_basis)

    def pairing_vector(self, curve: Sequence) -> tuple:
        """Intersection numbers of a curve class with every ray divisor."""
        b = self.class_basis
        return tuple(
            sum(curve[k] * b[k][j] for k in range(len(b)))
            for j in range(self.fan.n_rays)
        )

    @cached_property
    def ray_classes(self) -> tuple[Vec, ...]:
        b = self.class_basis
        return tuple(
            tuple(row[j] for row in b) for j in range(self.fan.n_rays)
        )

    @cached_property
    def anticanonical(self) -> Vec:
        return tuple(sum(row) for row in self.class_basis)

    @cached_property
    def wall_classes(self) -> tuple[Vec, ...]:
        return tuple(w.curve_class for w in self.walls)

    @cached_property
    def ne_cone(self) -> PolyCone:
        return PolyCone.from_generators(self.fan.rho, self.wall_classes)

    @cached_property
    def nef_cone(self) -> PolyCone:
        return self.ne_cone.dual()

    @cached_property
    def eff_cone(self) -> PolyCone:
        return PolyCone.from_generators(self.fan.rho, self.ray_classes)

    @cached_property
    def mov_cone(self) -> PolyCone:
        """Intersection over the rays j of the cone on the other ray classes.

        One conversion over the union of the parts' facet normals, which is
        the same cone as intersecting the parts one by one.
        """
        if not self.fan.n_rays:
            raise InternalError("fan has no rays")
        normals = []
        for j in range(self.fan.n_rays):
            others = [c for i, c in enumerate(self.ray_classes) if i != j]
            normals.extend(PolyCone.from_generators(self.fan.rho, others).facet_normals)
        return PolyCone.from_inequalities(self.fan.rho, normals)

    @cached_property
    def ample_class(self) -> Vec | None:
        x = lp.strictly_positive_point(self.wall_classes, self.fan.rho)
        if x is None:
            return None
        den = math.lcm(*(f.denominator for f in x)) if x else 1
        return tuple(int(f * den) for f in x)

    @property
    def is_projective(self) -> bool:
        return self.ample_class is not None

    @cached_property
    def is_smooth(self) -> bool:
        return all(
            abs(linalg.det(self.fan.cone_rays(c))) == 1 for c in self.fan.max_cones
        )

    @cached_property
    def is_fano(self) -> bool:
        return self.is_projective and all(
            w.anticanonical_degree > 0 for w in self.walls
        )

    @cached_property
    def extremal_rays(self) -> list[ExtremalRay]:
        """Extremal rays of the curve cone, each with its wall certificates.

        Wall relation vectors are primitive, so every wall class lying on an
        extremal ray equals the primitive generator of that ray exactly.
        """
        fan = self.fan
        gens = set(self.ne_cone.generators)
        by_class: dict[Vec, list[int]] = {}
        for i, w in enumerate(self.walls):
            by_class.setdefault(w.curve_class, []).append(i)
        out = []
        for g in sorted(gens):
            walls_here = by_class.get(g)
            if not walls_here:
                raise InternalError(
                    f"extremal class {g} is not realized by any wall"
                )
            pairing = self.pairing_vector(g)
            jminus = tuple(j for j, p in enumerate(pairing) if p < 0)
            jplus = tuple(j for j, p in enumerate(pairing) if p > 0)
            n = fan.dim
            if not jminus:
                kind = "fiber"
                a = n
                b = n - (len(jplus) - 1)
            elif len(jminus) == 1:
                kind = "divisorial"
                a = n - 1
                b = n - len(jplus)
            else:
                kind = "small"
                a = n - len(jminus)
                b = n - len(jminus) - len(jplus) + 1
            sort_key = min(
                tuple(sorted(self.walls[i].involved)) for i in walls_here
            )
            out.append(
                ExtremalRay(
                    cls=g,
                    pairing=tuple(int(x) for x in pairing),
                    jminus=jminus,
                    jplus=jplus,
                    kind=kind,
                    exc_dim=a,
                    image_dim=b,
                    k_degree=sum(pairing),
                    sort_key=(sort_key, g),
                )
            )
        out.sort(key=lambda r: r.sort_key)
        return out


_FAN_DATA: dict[Fan, FanData] = {}


def data(fan: Fan) -> FanData:
    fd = _FAN_DATA.get(fan)
    if fd is None:
        fd = FanData(fan)
        _FAN_DATA[fan] = fd
    return fd


# -- convenience wrappers ---------------------------------------------------

def walls(fan: Fan) -> list[Wall]:
    return data(fan).walls


def divisor_class(fan: Fan, coeffs: Sequence) -> tuple:
    return data(fan).divisor_class(coeffs)


def is_smooth(fan: Fan) -> bool:
    return data(fan).is_smooth


def is_projective(fan: Fan) -> bool:
    return data(fan).is_projective


def is_fano(fan: Fan) -> bool:
    return data(fan).is_fano


def extremal_rays(fan: Fan) -> list[ExtremalRay]:
    return data(fan).extremal_rays


def star_subdivision(
    fan: Fan, cone: Sequence[int], new_ray: Sequence[int] | None = None
) -> Fan:
    """Subdivide the star of a cone of the fan at a new interior ray.

    The default new ray is the primitive sum of the cone's rays (the smooth
    blow-up when the subdivided cone is unimodular).

    The output needs no global check. The new ray v is primitive, is not a
    ray of the fan, and is v = sum a_i v_i with every a_i > 0 over the rays
    of tau. Each maximal cone c containing tau is then the union of the
    simplicial cones c - {i} + {v}, i in tau (v has a positive coordinate on
    every ray it replaces), which meet in common faces. A face of c that
    contains tau is subdivided the same way from every cone holding it, the
    other faces of c are kept, and so are the cones outside the star of tau:
    a valid fan stays valid.
    """
    tau = tuple(sorted(int(i) for i in cone))
    if not tau:
        raise ValidationError("cannot subdivide the zero cone")
    if not any(set(tau) <= set(c) for c in fan.max_cones):
        raise ValidationError(f"{tau} is not a cone of the fan")
    if new_ray is None:
        acc = [0] * fan.dim
        for i in tau:
            acc = [a + b for a, b in zip(acc, fan.rays[i])]
        new = primitive(acc)
    else:
        new = primitive(tuple(int(x) for x in new_ray))
        if len(new) != fan.dim:
            raise ValidationError(f"subdivision ray {new} has length {len(new)}")
    if new in fan.rays:
        raise ValidationError(f"subdivision ray {new} already in the fan")
    sol = linalg.solve(
        [[fan.rays[i][k] for i in tau] for k in range(fan.dim)], new
    )
    if sol is None or any(x <= 0 for x in sol):
        raise ValidationError(
            f"{new} is not interior to the cone {tau}"
        )
    idx_new = fan.n_rays
    cones_out: list[tuple[int, ...]] = []
    for c in fan.max_cones:
        if set(tau) <= set(c):
            for j in tau:
                cones_out.append(
                    tuple(sorted((set(c) - {j}) | {idx_new}))
                )
        else:
            cones_out.append(c)
    return build_fan(
        fan.dim, list(fan.rays) + [new], cones_out, check="none"
    )


def product(f1: Fan, f2: Fan) -> Fan:
    """Product fan on the direct sum of the two lattices."""
    d1, d2 = f1.dim, f2.dim
    rays = [v + (0,) * d2 for v in f1.rays] + [(0,) * d1 + v for v in f2.rays]
    off = f1.n_rays
    cones = [
        tuple(sorted(c1 + tuple(i + off for i in c2)))
        for c1 in f1.max_cones
        for c2 in f2.max_cones
    ]
    return build_fan(d1 + d2, rays, cones)
