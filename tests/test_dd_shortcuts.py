"""Oracle tests for the shortcuts in the cone layer.

Four shortcuts are compared with the slow paths they replaced, kept here
verbatim: the rank test for adjacent rays in the double description, the
second conversion that every PolyCone constructor used to run, the two
fresh conversions per face when rational_contractions walked every face of
every chamber, and the second Hermite kernel that _vrep ran for the basis of
the row space of its inequalities. Agreement must be exact, field for field.
"""

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from toricmds import catalog, cones, linalg, mdscones
from toricmds.cones import PolyCone, _clean, _with_pairs
from toricmds.errors import InternalError
from toricmds.linalg import dot, is_zero, primitive, vneg

# -- the slow paths ------------------------------------------------------------


def old_dd_pointed(dim, ineqs):
    if dim == 0:
        return []
    seed_idx = []
    seed_rows = []
    for i, a in enumerate(ineqs):
        if linalg.rank(seed_rows + [a]) > len(seed_rows):
            seed_idx.append(i)
            seed_rows.append(a)
            if len(seed_rows) == dim:
                break
    if len(seed_rows) < dim:
        raise InternalError("pointed DD called with deficient rank")

    rays = linalg.inverse_rays(seed_rows)
    active = [{seed_idx[i] for i in range(dim) if i != j} for j in range(dim)]

    processed = list(seed_idx)
    for t, a in enumerate(ineqs):
        if t in seed_idx:
            continue
        processed.append(t)
        vals = [dot(a, r) for r in rays]
        if all(v >= 0 for v in vals):
            for i, v in enumerate(vals):
                if v == 0:
                    active[i].add(t)
            continue
        pos = [i for i, v in enumerate(vals) if v > 0]
        zer = [i for i, v in enumerate(vals) if v == 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        new_rays = []
        new_active = []
        seen_new = set()
        for ip in pos:
            for im in neg:
                common = active[ip] & active[im]
                if dim > 2:
                    rows = [ineqs[k] for k in common]
                    if linalg.rank(rows) != dim - 2:
                        continue
                # positive combination lying on the new hyperplane
                r = primitive(tuple(
                    vals[ip] * x - vals[im] * y
                    for x, y in zip(rays[im], rays[ip])
                ))
                if r in seen_new:
                    continue
                seen_new.add(r)
                new_rays.append(r)
                # exact zero set keeps later adjacency tests honest
                new_active.append({k for k in processed if dot(ineqs[k], r) == 0})
        rays = [rays[i] for i in pos + zer] + new_rays
        active = [active[i] for i in pos] + [
            active[i] | {t} for i in zer
        ] + new_active
    return sorted(set(rays))


def old_vrep(dim, ineqs_in):
    ineqs = _clean(ineqs_in)
    if not ineqs:
        ident = [tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)]
        return ident, []
    lin = linalg.integer_kernel(ineqs, dim)
    k = dim - len(lin)
    if k == 0:
        return lin, []
    comp = linalg.integer_kernel(lin, dim) if lin else [
        tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)
    ]
    if len(comp) != k:
        raise InternalError("complement basis has wrong size")
    proj = []
    for a in ineqs:
        pa = tuple(dot(a, w) for w in comp)
        if is_zero(pa):
            raise InternalError("inequality vanishes on the complement")
        proj.append(primitive(pa))
    proj = _clean(proj)
    rays_c = old_dd_pointed(k, proj)
    rays = sorted(
        primitive(tuple(sum(c[i] * comp[i][j] for i in range(k)) for j in range(dim)))
        for c in rays_c
    )
    return lin, rays


def kernel_complement_vrep(dim, ineqs_in):
    ineqs = _clean(ineqs_in)
    if not ineqs:
        return cones._identity(dim), []
    lin = linalg.integer_kernel(ineqs, dim)
    k = dim - len(lin)
    if k == 0:
        return lin, []
    comp = linalg.integer_kernel(lin, dim) if lin else cones._identity(dim)
    if len(comp) != k:
        raise InternalError("complement basis has wrong size")
    proj = []
    for a in ineqs:
        pa = tuple(dot(a, w) for w in comp)
        if is_zero(pa):
            raise InternalError("inequality vanishes on the complement")
        proj.append(primitive(pa))
    proj = _clean(proj)
    rays_c = cones._dd_pointed(k, proj)
    rays = sorted(
        primitive(tuple(sum(c[i] * comp[i][j] for i in range(k)) for j in range(dim)))
        for c in rays_c
    )
    return lin, rays


def old_from_generators(ambient_dim, gens):
    g0 = _clean(gens)
    lin_n, rays_n = old_vrep(ambient_dim, g0)
    normals = _with_pairs(lin_n, rays_n)
    lin_g, rays_g = old_vrep(ambient_dim, normals)
    gens_c = _with_pairs(lin_g, rays_g)
    d = linalg.rank(gens_c) if gens_c else 0
    return PolyCone(ambient_dim, gens_c, normals, d, len(lin_g))


def old_from_inequalities(ambient_dim, normals, equations=()):
    ineqs = list(normals)
    for e in equations:
        ineqs.append(tuple(e))
        ineqs.append(vneg(tuple(e)))
    lin_g, rays_g = old_vrep(ambient_dim, ineqs)
    gens_c = _with_pairs(lin_g, rays_g)
    lin_n, rays_n = old_vrep(ambient_dim, gens_c) if gens_c else (
        [tuple(1 if i == j else 0 for j in range(ambient_dim)) for i in range(ambient_dim)],
        [],
    )
    normals_c = _with_pairs(lin_n, rays_n)
    d = linalg.rank(gens_c) if gens_c else 0
    return PolyCone(ambient_dim, gens_c, normals_c, d, len(lin_g))


def old_all_faces(cone):
    """Every face of the cone, each built by two fresh conversions."""
    facets = cone.proper_facet_normals()
    gens = cone.generators
    top = frozenset(range(len(gens)))
    seen = {top}
    queue = [top]
    subsets = [top]
    while queue:
        s = queue.pop()
        for n in facets:
            t = frozenset(i for i in s if dot(n, gens[i]) == 0)
            if t not in seen:
                seen.add(t)
                queue.append(t)
                subsets.append(t)
    faces = []
    for s in sorted(subsets, key=lambda s: tuple(sorted(s))):
        sub = [gens[i] for i in sorted(s)]
        faces.append(old_from_generators(cone.ambient_dim, sub))
    return faces


def old_rational_contractions(atlas):
    rho = atlas.fan.rho
    found = {}
    for chamber in atlas.chambers:
        for face in old_all_faces(chamber.cone):
            key = face.generators
            if key in found:
                found[key][1].add(chamber.index)
            else:
                found[key] = (face, {chamber.index})
    inv = atlas.inventory
    out = []
    for key in sorted(found):
        sigma, hosts = found[key]
        out.append(
            mdscones.RationalContractionDescriptor(
                sigma=sigma,
                target_rho=sigma.dim,
                kind=mdscones._classify_position(inv, sigma),
                regular=inv.nef.contains_cone(sigma),
                host_chamber=min(hosts),
                host_chambers=tuple(sorted(hosts)),
            )
        )
    out.sort(key=lambda d: (d.target_rho, d.sigma.generators))
    return out


# -- random vector sets --------------------------------------------------------


@st.composite
def vector_sets(draw):
    """(dim, vectors): vectors in Q^dim spanning a random subspace, with
    scalar multiples and opposite pairs mixed in on demand."""
    dim = draw(st.integers(1, 5))
    span = draw(st.integers(1, dim))
    entry = st.integers(-2, 2)
    basis = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim),
                          min_size=span, max_size=span))
    coeffs = draw(st.lists(st.lists(st.integers(-3, 3), min_size=span, max_size=span),
                           max_size=8))
    vecs = [
        tuple(sum(c[i] * basis[i][j] for i in range(span)) for j in range(dim))
        for c in coeffs
    ]
    if vecs and draw(st.booleans()):
        v = draw(st.sampled_from(vecs))
        vecs.append(tuple(draw(st.integers(2, 3)) * x for x in v))
    if vecs and draw(st.booleans()):
        vecs.append(vneg(draw(st.sampled_from(vecs))))
    return dim, vecs


def fields(cone):
    return cone.generators, cone.facet_normals, cone.dim, cone.lineality_dim


@settings(max_examples=300, deadline=None)
@given(vector_sets())
def test_vrep_matches_rank_adjacency(case):
    dim, vecs = case
    assert cones._vrep(dim, vecs) == old_vrep(dim, vecs)


@settings(max_examples=100, deadline=None)
@given(vector_sets())
def test_vrep_matches_kernel_complement(case):
    # the complement basis taken as the Hermite form of the inequalities, and
    # as the kernel of the lineality basis, gives the same canonical rays
    dim, vecs = case
    assert cones._vrep(dim, vecs) == kernel_complement_vrep(dim, vecs)


@st.composite
def pointed_systems(draw):
    """(dim, rows) of full rank. Entries in {-1, 0, 1} and an optional
    opposite pair (an equation) make degenerate cones: rays with many zero
    rows, and faces of dimension three or more cut out by dim - 2 rows."""
    dim = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.integers(-1, 1), min_size=dim, max_size=dim),
                         min_size=dim, max_size=12))
    if draw(st.booleans()):
        rows.append(vneg(tuple(draw(st.sampled_from(rows)))))
    ineqs = _clean(rows)
    assume(linalg.rank(ineqs) == dim)
    return dim, ineqs


# A 3-dimensional cone in Q^4 (rows 1 and 2 are opposite) with rays that
# share two zero rows without being adjacent.
DEGENERATE_SYSTEM = [
    (-1, 0, -1, 0), (1, -1, 1, 1), (-1, 1, -1, -1), (0, -1, 0, -1),
    (1, 0, 0, 1), (1, 0, -1, -1), (-1, 0, 0, 1),
]


@settings(max_examples=400, deadline=None)
@given(pointed_systems())
@example((4, DEGENERATE_SYSTEM))
def test_dd_pointed_matches_rank_adjacency(case):
    dim, ineqs = case
    assert cones._dd_pointed(dim, ineqs) == old_dd_pointed(dim, ineqs)


@settings(max_examples=300, deadline=None)
@given(vector_sets())
def test_from_generators_matches_two_conversions(case):
    dim, vecs = case
    new = PolyCone.from_generators(dim, vecs)
    assert fields(new) == fields(old_from_generators(dim, vecs))


@settings(max_examples=300, deadline=None)
@given(vector_sets(), st.data())
def test_from_inequalities_matches_two_conversions(case, data):
    dim, normals = case
    equations = data.draw(st.lists(
        st.lists(st.integers(-2, 2), min_size=dim, max_size=dim), max_size=2
    ))
    new = PolyCone.from_inequalities(dim, normals, equations=equations)
    old = old_from_inequalities(dim, normals, equations=equations)
    assert fields(new) == fields(old)


def test_constructors_on_edge_cases():
    cases = [
        (3, []),                                      # the zero cone
        (2, [(1, 0), (-1, 0)]),                       # a line
        (3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1)]),
        (3, [(1, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 0)]),   # multiples, redundancy
        (4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
             (1, -1, 1, -1)]),
        (3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (0, 0, 1)]),
    ]
    for dim, vecs in cases:
        assert fields(PolyCone.from_generators(dim, vecs)) == \
            fields(old_from_generators(dim, vecs))
        assert fields(PolyCone.from_inequalities(dim, vecs)) == \
            fields(old_from_inequalities(dim, vecs))
    assert fields(PolyCone.from_inequalities(3, [])) == fields(old_from_inequalities(3, []))


def test_adjacency_rejects_small_common_sets_and_third_rays():
    # two rays sharing fewer than dim - 2 zeros are never adjacent
    assert cones._adjacent([{0}, {0}], 0, 1, 4) is None
    assert cones._adjacent([{0, 1}, {0, 1}], 0, 1, 4) == {0, 1}
    # a third ray on the face spanned by the pair rules the pair out
    assert cones._adjacent([{0, 1}, {0, 2}, {0, 3}], 0, 1, 3) is None
    assert cones._adjacent([{0, 1}, {0, 2}, {1, 3}], 0, 1, 3) == {0}
    # the square cone: diagonal rays are not adjacent, sides are
    square = [{0, 3}, {0, 1}, {1, 2}, {2, 3}]
    assert cones._adjacent(square, 0, 2, 3) is None
    assert cones._adjacent(square, 0, 1, 3) == {0}


def test_face_generator_sets_are_canonical_on_pointed_cones():
    cone = PolyCone.from_generators(
        3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
    )
    faces = cone.all_faces()
    assert [f.generators for f in faces] == cone.face_generator_sets()
    assert faces == old_all_faces(cone)


def test_rational_contractions_match_every_face_built(atlas_of, contractions_of):
    for name in catalog.names():
        atlas = atlas_of(name)
        assert contractions_of(name) == old_rational_contractions(atlas), name

