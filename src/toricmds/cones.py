"""Rational polyhedral cones with exact dual descriptions.

A PolyCone carries both a generator description and a facet description,
each canonical, so cone equality is plain field equality. Conversion between
the two descriptions is the double description method run over the integers.
Cones may have lineality (they are not assumed pointed); a non-full
dimensional cone encodes its span constraints as opposite pairs of normals,
which keeps the invariant that the dual cone is generated by the facet
normals and vice versa.

The double description is exact without rank tests. Its intermediate cones
are pointed and carry exactly their extreme rays, each with its exact set of
zero rows, so two rays are adjacent iff no third ray vanishes on every row
both vanish on (Fukuda and Prodon, 1996), and a ray made from two adjacent
rays vanishes on exactly the rows both vanish on. A pointed cone needs one
conversion: its extreme rays are the inputs no other input dominates in
zero set over the dual's rays. A cone given by inequalities is built as the
dual of the cone its normals generate, so it takes the same path.

All vectors are primitive integer tuples. Nothing here knows about fans;
this is the geometry substrate the toric layers build on.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from . import linalg
from .errors import InternalError, ValidationError
from .linalg import Vec, dot, is_zero, primitive, vneg


def _clean(vectors: Iterable[Sequence[int]]) -> list[Vec]:
    """Primitive, nonzero, deduplicated, input order preserved."""
    out: list[Vec] = []
    seen: set[Vec] = set()
    for v in vectors:
        p = primitive(tuple(int(x) for x in v))
        if is_zero(p) or p in seen:
            continue
        seen.add(p)
        out.append(p)
    return out


def _identity(dim: int) -> list[Vec]:
    return [tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)]


def _adjacent(active: list[set[int]], i: int, j: int, dim: int) -> set[int] | None:
    """Common zero set of rays i and j when they are adjacent, else None.

    This is the combinatorial test of Fukuda and Prodon ("Double description
    method revisited", 1996). active[k] is the exact zero set of ray k over
    the inequalities processed so far, and the rays are exactly the extreme
    rays of that pointed cone. The smallest face holding rays i and j is cut
    out by their common zero set, and its extreme rays are the rays whose
    zero set contains it. The two rays are adjacent when that face is two
    dimensional, that is when no third ray lies on it. A two dimensional face
    of a cone in Q^dim is cut out by at least dim - 2 inequalities, so a
    smaller common set is rejected before the rays are scanned.
    """
    common = active[i] & active[j]
    if len(common) < dim - 2:
        return None
    for k, zeros in enumerate(active):
        if k != i and k != j and common <= zeros:
            return None
    return common


def _dd_pointed(dim: int, ineqs: list[Vec]) -> list[Vec]:
    """Extreme rays of {x in Q^dim : a.x >= 0 for all a}, pointed case.

    Requires rank(ineqs) == dim. Classic incremental double description:
    seed with a simplicial cone from dim independent rows, then cut by the
    remaining rows, combining adjacent positive/negative ray pairs.

    Every intermediate cone is pointed, because it lies inside the seed
    cone, and its ray list is exactly its extreme rays, so adjacency is
    decided from zero sets alone (_adjacent). The zero sets stay exact
    without evaluating a new ray against the processed rows: the new ray is
    a positive combination of two rays on which every processed row is
    nonnegative, so a row vanishes on it iff it vanishes on both, and the
    new ray's zero set is their common set plus the cutting row.
    """
    if dim == 0:
        return []
    # the pivot columns of the transpose are the rows that raise the rank
    # of the rows before them, the greedy choice of seeds in input order
    seed_idx = linalg._echelon(list(zip(*ineqs)), reduced=False)[1]
    if len(seed_idx) < dim:
        raise InternalError("pointed DD called with deficient rank")
    seed_rows = [ineqs[i] for i in seed_idx]

    rays = linalg.inverse_rays(seed_rows)
    active = [{seed_idx[i] for i in range(dim) if i != j} for j in range(dim)]

    for t, a in enumerate(ineqs):
        if t in seed_idx:
            continue
        vals = [dot(a, r) for r in rays]
        if all(v >= 0 for v in vals):
            for i, v in enumerate(vals):
                if v == 0:
                    active[i].add(t)
            continue
        pos = [i for i, v in enumerate(vals) if v > 0]
        zer = [i for i, v in enumerate(vals) if v == 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        new_rays: list[Vec] = []
        new_active: list[set[int]] = []
        for ip in pos:
            for im in neg:
                common = _adjacent(active, ip, im, dim)
                if common is None:
                    continue
                # positive combination lying on the new hyperplane; distinct
                # adjacent pairs span distinct 2-faces, so no ray repeats
                new_rays.append(primitive(tuple(
                    vals[ip] * x - vals[im] * y
                    for x, y in zip(rays[im], rays[ip])
                )))
                common.add(t)
                new_active.append(common)
        rays = [rays[i] for i in pos + zer] + new_rays
        active = [active[i] for i in pos] + [
            active[i] | {t} for i in zer
        ] + new_active
    return sorted(rays)


def _vrep(dim: int, ineqs_in: Iterable[Sequence[int]]) -> tuple[list[Vec], list[Vec]]:
    """V-representation of {x : a.x >= 0}: (lineality basis, extreme rays).

    The lineality basis is in canonical Hermite form; rays are primitive and
    sorted. With no inequalities the result is the whole space.

    The cone is the lineality space plus its slice by the row space of the
    inequalities, so the rays are computed in coordinates on any basis of
    that row space: its Hermite form, or the unit vectors when the
    inequalities have full rank. Mapped back, made primitive and sorted,
    they do not depend on the basis chosen. The row space has dimension
    dim - len(lin), and checking that the Hermite form has that many rows
    compares two separate eliminations, that of the kernel and that of the
    rows.
    """
    ineqs = _clean(ineqs_in)
    if not ineqs:
        return _identity(dim), []
    lin = linalg.integer_kernel(ineqs, dim)
    k = dim - len(lin)
    if k == 0:
        return lin, []
    comp = linalg.hermite(ineqs) if lin else _identity(dim)
    if len(comp) != k:
        raise InternalError("complement basis has wrong size")
    proj = []
    for a in ineqs:
        pa = tuple(dot(a, w) for w in comp)
        if is_zero(pa):
            raise InternalError("inequality vanishes on the complement")
        proj.append(primitive(pa))
    proj = _clean(proj)
    rays_c = _dd_pointed(k, proj)
    rays = sorted(
        primitive(tuple(sum(c[i] * comp[i][j] for i in range(k)) for j in range(dim)))
        for c in rays_c
    )
    return lin, rays


def _with_pairs(lin: list[Vec], rays: list[Vec]) -> tuple[Vec, ...]:
    out = list(rays)
    for v in lin:
        out.append(v)
        out.append(vneg(v))
    return tuple(sorted(set(out)))


def _extreme_inputs(inputs: list[Vec], dual_rays: list[Vec]) -> tuple[Vec, ...]:
    """Extreme rays of the pointed cone spanned by `inputs`, sorted.

    inputs are distinct and primitive (as _clean leaves them); dual_rays are
    the extreme rays of the dual cone, whose lineality every input vanishes
    on. The smallest face holding an input g is cut out by the dual rays
    vanishing on g, and it is spanned by the inputs it holds. g is extreme
    iff that face is the ray of g, that is iff no other input vanishes on
    every dual ray that g vanishes on.
    """
    zeros = [
        frozenset(i for i, r in enumerate(dual_rays) if dot(g, r) == 0)
        for g in inputs
    ]
    return tuple(sorted(
        g for k, g in enumerate(inputs)
        if not any(j != k and zeros[k] <= z for j, z in enumerate(zeros))
    ))


class PolyCone(NamedTuple):
    """Convex rational polyhedral cone, canonical dual pair of descriptions.

    generators: extreme rays when pointed, plus opposite pairs spanning the
        lineality space otherwise. facet_normals: supporting functionals,
        plus opposite pairs spanning the orthogonal complement of the span
        when the cone is not full dimensional. Both tuples are sorted and
        primitive, so == is structural equality of cones.
    """

    ambient_dim: int
    generators: tuple[Vec, ...]
    facet_normals: tuple[Vec, ...]
    dim: int
    lineality_dim: int

    @classmethod
    def from_generators(cls, ambient_dim: int, gens: Iterable[Sequence[int]]) -> "PolyCone":
        g0 = _clean(gens)
        for v in g0:
            if len(v) != ambient_dim:
                raise ValidationError(f"generator {v} has wrong length")
        lin_n, rays_n = _vrep(ambient_dim, g0)
        normals = _with_pairs(lin_n, rays_n)
        # lin_n is a basis of the orthogonal complement of the span
        d = ambient_dim - len(lin_n)
        if linalg.rank(normals) == ambient_dim:
            # full dimensional dual: the cone is pointed, and its extreme
            # rays are among the inputs
            return cls(ambient_dim, _extreme_inputs(g0, rays_n), normals, d, 0)
        lin_g, rays_g = _vrep(ambient_dim, normals)
        return cls(ambient_dim, _with_pairs(lin_g, rays_g), normals, d, len(lin_g))

    @classmethod
    def from_inequalities(
        cls,
        ambient_dim: int,
        normals: Iterable[Sequence[int]],
        equations: Iterable[Sequence[int]] = (),
    ) -> "PolyCone":
        """{x : a.x >= 0 for each normal a, e.x = 0 for each equation e},
        the dual of the cone generated by the normals and both signs of the
        equations."""
        ineqs = list(normals)
        for e in equations:
            ineqs.append(tuple(e))
            ineqs.append(vneg(tuple(e)))
        for v in ineqs:
            if len(v) != ambient_dim:
                raise ValidationError(f"normal {tuple(v)} has wrong length")
        return cls.from_generators(ambient_dim, ineqs).dual()

    @classmethod
    def zero(cls, ambient_dim: int) -> "PolyCone":
        return cls.from_generators(ambient_dim, [])

    # -- basic queries ----------------------------------------------------

    def is_pointed(self) -> bool:
        return self.lineality_dim == 0

    def lineality_basis(self) -> list[Vec]:
        """Canonical basis of the largest linear subspace inside the cone."""
        if self.lineality_dim == 0:
            return []
        return linalg.integer_kernel(
            [list(n) for n in self.facet_normals], self.ambient_dim
        )

    def contains_point(self, x: Sequence[int]) -> bool:
        return all(dot(n, x) >= 0 for n in self.facet_normals)

    def contains_cone(self, other: "PolyCone") -> bool:
        return all(self.contains_point(g) for g in other.generators)

    def relative_interior_point(self) -> Vec:
        if not self.generators:
            return tuple(0 for _ in range(self.ambient_dim))
        acc = [0] * self.ambient_dim
        for g in self.generators:
            acc = [a + b for a, b in zip(acc, g)]
        return tuple(acc)

    def dual(self) -> "PolyCone":
        return PolyCone(
            self.ambient_dim,
            self.facet_normals,
            self.generators,
            self.ambient_dim - self.lineality_dim,
            self.ambient_dim - self.dim,
        )

    def intersect(self, other: "PolyCone") -> "PolyCone":
        if self.ambient_dim != other.ambient_dim:
            raise ValidationError("ambient dimensions differ")
        return PolyCone.from_inequalities(
            self.ambient_dim, list(self.facet_normals) + list(other.facet_normals)
        )

    def proper_facet_normals(self) -> list[Vec]:
        """Facet normals excluding the opposite pairs that encode the span."""
        s = set(self.facet_normals)
        return [n for n in self.facet_normals if vneg(n) not in s]

    # -- faces -------------------------------------------------------------

    def minimal_face_containing(self, vectors: Sequence[Vec]) -> "PolyCone":
        """Smallest face of this cone containing every given vector.

        The vectors must lie in the cone.
        """
        for v in vectors:
            if not self.contains_point(v):
                raise ValidationError(f"{v} is not in the cone")
        facets = self.proper_facet_normals()
        act = [n for n in facets if all(dot(n, v) == 0 for v in vectors)]
        gens = [
            g for g in self.generators if all(dot(n, g) == 0 for n in act)
        ]
        return PolyCone.from_generators(self.ambient_dim, gens)

    def face_generator_sets(self) -> list[tuple[Vec, ...]]:
        """The generators lying on each face, one sorted tuple per face.

        Faces are found by cutting the generator set with the facet normals
        until nothing new appears, and are ordered by generator index. On a
        pointed cone each tuple is the face's own canonical generators.
        """
        facets = self.proper_facet_normals()
        gens = self.generators
        top = frozenset(range(len(gens)))
        seen = {top}
        queue = [top]
        while queue:
            s = queue.pop()
            for n in facets:
                t = frozenset(i for i in s if dot(n, gens[i]) == 0)
                if t not in seen:
                    seen.add(t)
                    queue.append(t)
        return [
            tuple(gens[i] for i in s)
            for s in sorted(tuple(sorted(s)) for s in seen)
        ]

    def all_faces(self) -> list["PolyCone"]:
        """Every face, the cone itself and its minimal face included."""
        return [
            PolyCone.from_generators(self.ambient_dim, sub)
            for sub in self.face_generator_sets()
        ]

    def is_face(self, sub: "PolyCone") -> bool:
        if not self.contains_cone(sub):
            return False
        return self.minimal_face_containing(list(sub.generators)) == sub

    def __repr__(self) -> str:
        return (
            f"PolyCone(dim {self.dim} in Q^{self.ambient_dim}, "
            f"{len(self.generators)} gens, lineality {self.lineality_dim})"
        )
