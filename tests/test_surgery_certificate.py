"""Oracle tests for surgery built without a global fan check.

flip, contract_divisorial and star_subdivision build their output with
build_fan(check="none") after checking a local certificate. Every fan they
produce here is rebuilt with build_fan's default check, the global proof
that was skipped, and must come back with the same key; the negative cases
show the certificate rejects rays that do not belong to the fan.
"""

import random

import pytest

from toricmds import catalog, fan as F, mmp
from toricmds.errors import InternalError, ValidationError

ATLAS_FANS = ("blpt-p1x4", "fano-flip-model", "blpt-p1cubed")
STRATEGIES = ("first", "random", "scaling")
DIVISORS_PER_FAN = 8


def assert_valid(fans):
    for fan in fans:
        rebuilt = F.build_fan(fan.dim, fan.rays, fan.max_cones)
        assert rebuilt.key() == fan.key(), fan


@pytest.mark.parametrize("name", ATLAS_FANS)
def test_atlas_models_pass_the_global_checks(name, atlas_of):
    models = [ch.model for ch in atlas_of(name).chambers]
    assert len(models) > 1
    assert_valid(models)


@pytest.fixture(scope="module")
def surgery_outputs():
    """Every fan flip, contract_divisorial and star_subdivision returned
    while seeded Mori programs ran over the catalog and its fans were built
    again from their recipes."""
    outputs = {}

    def recording(fn, pick):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            fan = pick(out)
            outputs.setdefault(fan.key(), fan)
            return out
        return wrapper

    patch = pytest.MonkeyPatch()
    try:
        patch.setattr(mmp, "flip", recording(mmp.flip, lambda out: out))
        patch.setattr(mmp, "contract_divisorial",
                      recording(mmp.contract_divisorial, lambda out: out[0]))
        patch.setattr(F, "star_subdivision",
                      recording(F.star_subdivision, lambda out: out))
        counts = {"programs": 0, "steps": 0}
        for name in catalog.names():
            catalog.CATALOG[name].build()
            fan = catalog.get(name)
            rng = random.Random(f"surgery-certificate:{name}")
            for k in range(DIVISORS_PER_FAN):
                div = [rng.randint(-3, 3) for _ in range(fan.n_rays)]
                for strategy in STRATEGIES:
                    res = mmp.run_mori_program(fan, div, strategy=strategy, seed=k)
                    counts["programs"] += 1
                    counts["steps"] += res.n_flips + res.n_contractions
    finally:
        patch.undo()
    return list(outputs.values()), counts


def test_surgery_outputs_pass_the_global_check(surgery_outputs):
    fans, counts = surgery_outputs
    assert counts["programs"] == len(catalog.names()) * DIVISORS_PER_FAN * len(STRATEGIES)
    assert counts["steps"] > 0 and len(fans) > 50
    assert_valid(fans)


def rays_of(fan, kind):
    return [e for e in F.extremal_rays(fan) if e.kind == kind]


def perturbed(ray):
    """The ray with one positive pairing entry doubled: same signs, so the
    star still fits, but no longer a relation among the rays."""
    j = ray.jplus[0]
    pairing = list(ray.pairing)
    pairing[j] *= 2
    return ray._replace(pairing=tuple(pairing))


def test_flip_rejects_a_pairing_that_is_not_a_relation():
    bl = catalog.get("blpt-p1x4")
    for ray in rays_of(bl, "small"):
        with pytest.raises(InternalError, match="not a relation"):
            mmp.flip(bl, perturbed(ray))


def test_contract_rejects_a_pairing_that_is_not_a_relation():
    for name in ("blpt-p1x4", "dp3", "blpt-p3"):
        fan = catalog.get(name)
        for ray in rays_of(fan, "divisorial"):
            with pytest.raises(InternalError, match="not a relation"):
                mmp.contract_divisorial(fan, perturbed(ray))


def test_surgery_rejects_a_ray_of_another_fan():
    # same number of rays, different blown-up point
    here = catalog.get("blline-p3")
    there = catalog.get("blpt-p3")
    assert here.n_rays == there.n_rays and here.rays != there.rays
    with pytest.raises(InternalError):
        mmp.contract_divisorial(here, rays_of(there, "divisorial")[0])
    bl = catalog.get("blpt-p1x4")
    other = F.star_subdivision(catalog.get("p1x4"), (1, 3, 5, 7))
    for ray in rays_of(bl, "small"):
        with pytest.raises(InternalError):
            mmp.flip(other, ray)
    with pytest.raises(InternalError):
        mmp.flip(bl, rays_of(catalog.get("blpt-p1cubed"), "small")[0])


def test_surgery_rejects_circuit_sides_that_do_not_fit_the_pairing():
    bl = catalog.get("blpt-p1x4")
    ray = rays_of(bl, "small")[0]
    swapped = ray._replace(jminus=ray.jplus, jplus=ray.jminus)
    with pytest.raises(InternalError):
        mmp.flip(bl, swapped)
    div = rays_of(bl, "divisorial")[0]
    with pytest.raises(InternalError):
        mmp.flip(bl, div._replace(kind="small"))


def test_surgery_rejects_an_incomplete_star():
    # In a valid fan every link carries all of jplus once each cone of the
    # star fits the circuit, so drop one cone of the star to reach the check.
    bl = catalog.get("blpt-p1x4")
    for ray in rays_of(bl, "small") + rays_of(bl, "divisorial"):
        star = [c for c in bl.max_cones if set(ray.jminus) <= set(c)]
        cut = F.build_fan(
            bl.dim, bl.rays, [c for c in bl.max_cones if c != star[0]], check="none"
        )
        surgery = mmp.flip if ray.kind == "small" else mmp.contract_divisorial
        with pytest.raises(InternalError, match="incomplete star"):
            surgery(cut, ray)


def test_star_subdivision_checks_its_certificate():
    p3 = catalog.get("p3")
    with pytest.raises(ValidationError, match="length"):
        F.star_subdivision(p3, (0, 1), new_ray=(1, 1))
    with pytest.raises(ValidationError, match="already in the fan"):
        F.star_subdivision(p3, (0, 1), new_ray=(1, 0, 0))
    with pytest.raises(ValidationError, match="not interior"):
        F.star_subdivision(p3, (0, 1, 2), new_ray=(1, 1, 0))
    with pytest.raises(ValidationError, match="not interior"):
        F.star_subdivision(p3, (0, 1), new_ray=(0, 0, 0))
