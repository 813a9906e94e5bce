"""Oracle test for the bound audit written as one table.

The reference is fano.audit_bounds as it was before each of its ten records
was built by one rule, copied verbatim below with the private helpers that
changed with it. On every fan here both versions must give the same report,
record for record and byte for byte in to_text().

The corpus is the catalog's smooth Fano 4-folds (fano-flip-model aside: it
takes about 2 s to audit cold, and test_fano.py audits it), two star
subdivisions that make the non-regular records true, and three products of
del Pezzo surfaces with c = 3. The products are audited twice: once as they
are, and once with the product split patched away, which is the only way
known to reach the rho = 5 and rho = 6 branches of high-divisor-codimension
and its "no admissible structure found" outcome.
"""

from toricmds import catalog, fano, mdscones, mmp
from toricmds import fan as fanmod
from toricmds.errors import InternalError, ValidationError
from toricmds.fan import ExtremalRay, Fan
from toricmds.fano import (
    BOUND_LIMITS,
    BoundsReport,
    TheoremRecord,
    _surface_max_selfdual,
    _surface_product_split,
    c_invariant,
    is_smooth_fano_fourfold,
)
from toricmds.linalg import dot, primitive

# -- the reference, verbatim ----------------------------------------------------


def _facet_extremal_ray(model: Fan, sigma) -> ExtremalRay:
    """The extremal ray of a chamber model matching a facet of its nef cone."""
    hits = [
        r for r in fanmod.extremal_rays(model)
        if all(dot(g, r.cls) == 0 for g in sigma.generators)
    ]
    if len(hits) != 1:
        raise InternalError("facet does not match one extremal ray")
    return hits[0]


def _is_surface_blowdown_or_conic(ray: ExtremalRay) -> bool:
    """True when the ray contracts a divisor onto a surface with fibers of
    degree one, or gives a conic bundle structure."""
    if ray.kind == "fiber":
        return ray.image_dim == 3
    if ray.kind != "divisorial" or ray.image_dim != 2:
        return False
    plus = sorted(ray.pairing[j] for j in ray.jplus)
    return plus == [1, 1] and ray.pairing[ray.jminus[0]] == -1


def _smooth_surface_blowup_target(fan: Fan) -> Fan | None:
    """Target of a blow-down along an invariant surface, when one exists."""
    for r in fanmod.extremal_rays(fan):
        if r.kind != "divisorial" or r.image_dim != 2:
            continue
        plus = tuple(sorted(r.pairing[j] for j in r.jplus))
        if plus != (1, 1) or r.pairing[r.jminus[0]] != -1:
            continue
        target, _ = mmp.contract_divisorial(fan, r)
        if is_smooth_fano_fourfold(target):
            return target
    return None


def audit_bounds(fan: Fan) -> BoundsReport:
    """Check every bound predicate whose hypothesis this fourfold satisfies.

    Each record pairs a hypothesis test with its concluded bound; a failed
    conclusion under a true hypothesis is reported as an alarm by the
    caller-facing report (it should never happen).
    """
    if not is_smooth_fano_fourfold(fan):
        raise ValidationError("bound audit needs a smooth projective Fano 4-fold")
    dd = fanmod.data(fan)
    rho = fan.rho
    c_value, c_witness = c_invariant(fan)
    atlas = mdscones.chamber_atlas(fan, cap=mdscones.MAX_CHAMBERS)
    inv = atlas.inventory
    contractions = mdscones.rational_contractions(atlas)
    records = []

    fiber_descs = [d for d in contractions if d.kind == "fiber-type"]
    elem_fiber = [d for d in fiber_descs if d.target_rho == rho - 1]
    lim = BOUND_LIMITS["elementary-fiber-type"]
    records.append(
        TheoremRecord(
            name="elementary-fiber-type",
            hypothesis_holds=bool(elem_fiber),
            conclusion_holds=rho <= lim if elem_fiber else None,
            details=f"{len(elem_fiber)} elementary fiber-type faces; bound {lim}",
        )
    )

    qe_results = {}
    for d in fiber_descs:
        if d.target_rho >= 1:
            qe_results[d.sigma.generators] = (d, mdscones.is_quasi_elementary(atlas, d))
    nonreg_qe = [
        (d, qe) for d, qe in qe_results.values() if qe.verdict and not d.regular
    ]
    lim = BOUND_LIMITS["nonregular-quasi-elementary"]
    records.append(
        TheoremRecord(
            name="nonregular-quasi-elementary",
            hypothesis_holds=bool(nonreg_qe),
            conclusion_holds=rho <= lim if nonreg_qe else None,
            details=f"{len(nonreg_qe)} non-regular quasi-elementary faces; bound {lim}",
        )
    )

    qe_targets = {}
    for d, qe in qe_results.values():
        if qe.verdict:
            qe_targets[d.sigma.generators] = (d, mdscones.target_model(atlas, qe))

    curve_hits = []
    surface_hits = []
    surface_ok = True
    for d, tm in qe_targets.values():
        if d.regular:
            continue
        if tm.fan.dim == 1:
            curve_hits.append(d)
        elif tm.fan.dim == 2:
            surface_hits.append(d)
            if rho > d.target_rho + BOUND_LIMITS["nonregular-surface-target"]:
                surface_ok = False
    lim = BOUND_LIMITS["nonregular-curve-target"]
    records.append(
        TheoremRecord(
            name="nonregular-curve-target",
            hypothesis_holds=bool(curve_hits),
            conclusion_holds=rho <= lim if curve_hits else None,
            details=f"{len(curve_hits)} non-regular faces onto curves; bound {lim}",
        )
    )
    records.append(
        TheoremRecord(
            name="nonregular-surface-target",
            hypothesis_holds=bool(surface_hits),
            conclusion_holds=surface_ok if surface_hits else None,
            details=(
                f"{len(surface_hits)} non-regular faces onto surfaces; "
                f"bound rho_Y + {BOUND_LIMITS['nonregular-surface-target']}"
            ),
        )
    )

    reg_surface = [
        (d, tm) for d, tm in qe_targets.values()
        if d.regular and tm.fan.dim == 2
    ]
    lim = BOUND_LIMITS["regular-surface-target"]
    target_lim = BOUND_LIMITS["regular-surface-target-picard"]
    reg_ok = rho <= lim and all(
        d.target_rho <= target_lim
        and (d.target_rho != rho - 1 or rho <= 10)
        for d, _ in reg_surface
    )
    records.append(
        TheoremRecord(
            name="regular-surface-target",
            hypothesis_holds=bool(reg_surface),
            conclusion_holds=reg_ok if reg_surface else None,
            details=(
                f"{len(reg_surface)} surface contractions; bounds rho {lim}, "
                f"target rho {target_lim}, elementary 10"
            ),
        )
    )

    movable_extremal = []
    eff_gens = set(inv.eff.generators)
    for j in range(fan.n_rays):
        cls = primitive(dd.ray_classes[j])
        if cls in eff_gens and inv.mov.contains_point(list(cls)):
            movable_extremal.append(j)
    lim = BOUND_LIMITS["movable-effective-extremal"]
    records.append(
        TheoremRecord(
            name="movable-effective-extremal",
            hypothesis_holds=bool(movable_extremal),
            conclusion_holds=rho <= lim if movable_extremal else None,
            details=(
                f"movable divisor classes on effective extremal rays: "
                f"{movable_extremal}; bound {lim}"
            ),
        )
    )

    threefold = []
    for d in elem_fiber:
        model = atlas.chambers[d.host_chamber].model
        ray = _facet_extremal_ray(model, d.sigma)
        if ray.kind != "fiber":
            raise InternalError("effective-boundary facet is not fiber type")
        if ray.image_dim == 3:
            threefold.append(d)
    lim = BOUND_LIMITS["elementary-threefold-target"]
    records.append(
        TheoremRecord(
            name="elementary-threefold-target",
            hypothesis_holds=bool(threefold),
            conclusion_holds=rho <= lim if threefold else None,
            details=f"{len(threefold)} elementary faces onto 3-folds; bound {lim}",
        )
    )

    lim = BOUND_LIMITS["low-divisor-codimension"]
    if c_value in (1, 2):
        blowup = _smooth_surface_blowup_target(fan)
        concl = rho <= lim or blowup is not None
        detail = (
            f"rho {rho} vs {lim}; smooth surface blow-down "
            f"{'found' if blowup is not None else 'absent'}"
        )
    else:
        concl = None
        detail = f"c = {c_value} outside {{1, 2}}"
    records.append(
        TheoremRecord(
            name="low-divisor-codimension",
            hypothesis_holds=c_value in (1, 2),
            conclusion_holds=concl,
            details=detail,
        )
    )

    if c_value >= 3:
        branch = None
        split = _surface_product_split(fan)
        if split is not None:
            s1, s2 = split
            r1, r2 = s1.rho, s2.rho
            if (
                all(fanmod.is_fano(s) and fanmod.is_smooth(s) for s in split)
                and c_value == max(r1 - 1, r2 - 1)
                and max(r1, r2) == c_value + 1
            ):
                branch = f"product of del Pezzo surfaces with rho {r1}, {r2}"
        if branch is None and c_value == 3 and rho in (5, 6):
            want_rho = 1 if rho == 5 else 2
            for d, tm in qe_targets.values():
                if not d.regular or d.target_rho != want_rho or tm.fan.dim != 2:
                    continue
                if rho == 5:
                    branch = "quasi-elementary contraction onto a rho-1 surface"
                    break
                if _surface_max_selfdual(tm.fan) <= 1 and all(
                    _is_surface_blowdown_or_conic(r)
                    for r in fanmod.extremal_rays(fan)
                ):
                    branch = (
                        "quasi-elementary contraction onto a minimal rho-2 "
                        "surface with only conic bundles and smooth "
                        "surface blow-downs"
                    )
                    break
        records.append(
            TheoremRecord(
                name="high-divisor-codimension",
                hypothesis_holds=True,
                conclusion_holds=branch is not None,
                details=branch or "no admissible structure found",
            )
        )
    else:
        records.append(
            TheoremRecord(
                name="high-divisor-codimension",
                hypothesis_holds=False,
                conclusion_holds=None,
                details=f"c = {c_value} < 3",
            )
        )

    has_small = any(r.kind == "small" for r in fanmod.extremal_rays(fan))
    records.append(
        TheoremRecord(
            name="small-ray-codimension",
            hypothesis_holds=has_small,
            conclusion_holds=(
                ((rho == 5 and c_value == 3) or c_value <= 2) if has_small else None
            ),
            details=f"small rays {'present' if has_small else 'absent'}; c = {c_value}",
        )
    )

    return BoundsReport(
        rho=rho,
        c_value=c_value,
        c_witness=c_witness,
        records=tuple(records),
    )


# -- the corpus -----------------------------------------------------------------

C3_PRODUCTS = (("p2", "dp3"), ("f1", "dp3"), ("dp2", "dp3"))


def corpus():
    fans = {
        name: catalog.get(name) for name in catalog.names()
        if name != "fano-flip-model"
        and fano.is_smooth_fano_fourfold(catalog.get(name))
    }
    fans["p2xp2 star (0, 1, 4)"] = fanmod.star_subdivision(
        catalog.get("p2xp2"), (0, 1, 4)
    )
    fans["blpt-p4 star (0, 1, 3)"] = fanmod.star_subdivision(
        catalog.get("blpt-p4"), (0, 1, 3)
    )
    for a, b in C3_PRODUCTS:
        fans[f"{a} x {b}"] = fanmod.product(catalog.get(a), catalog.get(b))
    return fans


def fields(report):
    return [
        (r.name, r.hypothesis_holds, r.conclusion_holds, r.details)
        for r in report.records
    ]


def assert_same_report(name, fan):
    new, old = fano.audit_bounds(fan), audit_bounds(fan)
    assert fields(new) == fields(old), name
    assert new.to_text() == old.to_text(), name
    return new


def test_table_audit_matches_reference(monkeypatch):
    true_somewhere = set()
    high_outcomes = set()
    for name, fan in corpus().items():
        report = assert_same_report(name, fan)
        true_somewhere.update(r.name for r in report.records if r.hypothesis_holds)
        high_outcomes.add(report.records[8].details)

    # with no product split, c = 3 products fall through to the rho branches
    monkeypatch.setattr(fano, "_surface_product_split", lambda fan: None)
    monkeypatch.setitem(globals(), "_surface_product_split", lambda fan: None)
    for a, b in C3_PRODUCTS:
        report = assert_same_report(
            f"{a} x {b} unsplit",
            fanmod.product(catalog.get(a), catalog.get(b)),
        )
        high_outcomes.add(report.records[8].details)

    assert true_somewhere == {r.name for r in report.records}
    assert any(d.startswith("product of del Pezzo surfaces") for d in high_outcomes)
    assert "quasi-elementary contraction onto a rho-1 surface" in high_outcomes
    assert any("onto a minimal rho-2 surface" in d for d in high_outcomes)
    assert "no admissible structure found" in high_outcomes

