"""Oracle test for the proved fan check of build_fan.

The reference is the check build_fan ran before the pseudomanifold
certificate replaced it, copied verbatim below: the structural checks, four
seeded coverage samples, and a double-description test that every two
maximal cones meet in the cone on their common rays. On every collection
here the proved check must accept exactly what the reference accepts, and
build the same fan.

The corpus enumerates every facet-paired collection of simplicial cones (each
facet of a chosen cone lies in exactly two chosen cones) over seeded random
ray sets in dimensions 2 and 3, once with any pairing and once with the two
cones of each facet on opposite sides of it, so both the opposite-side test
and the generic-point test are exercised.
"""

import random
from itertools import combinations

import pytest

from toricmds import catalog, linalg
from toricmds import fan as F
from toricmds.cones import PolyCone
from toricmds.errors import ValidationError
from toricmds.fan import Fan, _cone_membership, _wall_incidence
from toricmds.linalg import primitive


def pairwise_build_fan(dim, rays, max_cones, check="full"):
    """build_fan as it was before the proved check, verbatim."""
    if check not in ("none", "fast", "full"):
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
    for c in fan.max_cones:
        if len(c) != dim or len(set(c)) != dim:
            raise ValidationError(f"cone {c} does not have {dim} distinct rays")
        if any(i < 0 or i >= len(ray_list) for i in c):
            raise ValidationError(f"cone {c} references a missing ray")
        if linalg.det([ray_list[i] for i in c]) == 0:
            raise ValidationError(f"cone {c} is not simplicial (dependent rays)")
        used.update(c)
    if used != set(range(len(ray_list))):
        raise ValidationError("some rays appear in no maximal cone")

    # every wall must be shared by exactly two maximal cones
    for facet, owners in _wall_incidence(fan).items():
        if len(owners) != 2:
            raise ValidationError(
                f"wall {facet} belongs to {len(owners)} maximal cones, expected 2"
            )

    # deterministic generic samples: covered, and no two interiors overlap
    rng = random.Random(0xFA9)
    for _ in range(4):
        p = tuple(rng.randint(-997, 997) for _ in range(dim))
        holders, strict = [], []
        for c in fan.max_cones:
            inside, interior = _cone_membership(fan.cone_rays(c), p)
            if inside:
                holders.append(c)
            if interior:
                strict.append(c)
        if not holders:
            raise ValidationError(f"fan is not complete: {p} is uncovered")
        if len(strict) > 1:
            raise ValidationError(f"cones {strict[0]} and {strict[1]} overlap")

    if check == "full":
        for ca, cb in combinations(fan.max_cones, 2):
            common = sorted(set(ca) & set(cb))
            pa = PolyCone.from_generators(dim, fan.cone_rays(ca))
            pb = PolyCone.from_generators(dim, fan.cone_rays(cb))
            inter = pa.intersect(pb)
            expected = PolyCone.from_generators(dim, fan.cone_rays(common))
            if inter != expected:
                raise ValidationError(
                    f"cones {ca} and {cb} do not meet in a common face"
                )
    return fan


def verdicts(dim, rays, cones):
    """(proved check, reference): the built fan, or None if rejected."""
    out = []
    for build in (F.build_fan, pairwise_build_fan):
        try:
            out.append(build(dim, rays, cones))
        except ValidationError:
            out.append(None)
    return tuple(out)


def random_rays(rng, dim, n):
    rays = set()
    while len(rays) < n:
        v = tuple(rng.randint(-3, 3) for _ in range(dim))
        if any(v):
            rays.add(primitive(v))
    return sorted(rays)


def paired_collections(dim, rays, opposite, limit=40):
    """Up to `limit` collections of simplicial cones over the rays, using
    every ray, in which each facet of a chosen cone lies in exactly two
    chosen cones; with opposite=True the two lie on opposite sides of it."""

    def side(facet, c):
        extra = next(i for i in c if i not in facet)
        return linalg.det([rays[i] for i in facet] + [rays[extra]]) > 0

    cands = [c for c in combinations(range(len(rays)), dim)
             if linalg.det([rays[i] for i in c]) != 0]
    by_facet: dict = {}
    for c in cands:
        for f in combinations(c, dim - 1):
            by_facet.setdefault(f, []).append(c)
    found = []

    def grow(chosen, open_facets, closed, seed):
        # seed is the smallest chosen cone, so each collection is found once
        if len(found) >= limit:
            return
        if not open_facets:
            found.append(tuple(sorted(chosen)))
            return
        f = min(open_facets)
        owner = next(c for c in chosen if set(f) <= set(c))
        for c in by_facet[f]:
            if c <= seed or c in chosen:
                continue
            if opposite and side(f, c) == side(f, owner):
                continue
            facets = set(combinations(c, dim - 1))
            if facets & closed:
                continue
            grow(chosen | {c}, open_facets ^ facets,
                 closed | (open_facets & facets), seed)

    for seed in cands:
        grow(frozenset([seed]), set(combinations(seed, dim - 1)), frozenset(), seed)
    return [cones for cones in found
            if {i for c in cones for i in c} == set(range(len(rays)))]


def test_proved_check_matches_pairwise_check_on_paired_collections():
    total = 0
    for opposite in (False, True):
        rng = random.Random(f"fan-check-oracle:{opposite}")
        accepted = rejected = 0
        for dim, sizes in ((2, (5, 6, 7, 8)), (3, (5, 6, 7))):
            for _ in range(60):
                rays = random_rays(rng, dim, rng.choice(sizes))
                for cones in paired_collections(dim, rays, opposite):
                    new, old = verdicts(dim, rays, cones)
                    assert new == old, (dim, rays, cones)
                    accepted += new is not None
                    rejected += new is None
        assert accepted >= 40 and rejected >= 100, (opposite, accepted, rejected)
        total += accepted + rejected
    assert total >= 2500


def test_proved_check_matches_pairwise_check_on_catalog():
    for name in catalog.names():
        fan = catalog.get(name)
        assert verdicts(fan.dim, fan.rays, fan.max_cones) == (fan,) * 2, name


@pytest.mark.parametrize("name", ["blpt-p1cubed", "blpt-p1x4"])
def test_proved_check_matches_pairwise_check_on_atlas_models(name, atlas_of):
    models = [ch.model for ch in atlas_of(name).chambers]
    assert len(models) > 1
    for fan in models:
        assert verdicts(fan.dim, fan.rays, fan.max_cones) == (fan,) * 2
