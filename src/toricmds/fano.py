"""Analyses specific to smooth toric Fano fourfolds.

The module computes the divisor codimension invariant (the largest
codimension of the curve space of a prime invariant divisor), detects
exceptional planes and lines, audits anticanonical degrees along flip
chains through a common resolution, classifies non-movable prime
divisors by their terminal divisorial contraction, and checks a battery
of Picard-number bound predicates on any smooth Fano fourfold instance.
The bound audit is a table of ten records built by one rule: a record's
conclusion is evaluated only when its hypothesis holds.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from . import fan as fanmod
from . import linalg
from . import mdscones
from . import mmp
from .errors import FalsificationAlarm, InternalError, ValidationError
from .fan import ExtremalRay, Fan, Wall
from .linalg import Vec, dot, primitive


# -- Picard codimension of a prime divisor -----------------------------------

class DivisorProfile(NamedTuple):
    """Curve-space data of one invariant prime divisor."""

    ray: int
    n1_dim: int
    codim: int
    movable: bool


def n1_dimension(fan: Fan, ray: int) -> int:
    """Dimension of the subspace of curve classes lying inside D_ray.

    Invariant curves inside the divisor are the wall curves of walls whose
    shared rays include the divisor's ray.
    """
    dd = fanmod.data(fan)
    vecs = [list(w.curve_class) for w in dd.walls if ray in w.shared]
    if not vecs:
        return 0
    return linalg.rank(vecs)


def divisor_profiles(fan: Fan) -> list[DivisorProfile]:
    dd = fanmod.data(fan)
    if not dd.is_projective:
        raise ValidationError("divisor profiles need a projective fan")
    mov = mdscones.cone_inventory(fan).mov
    out = []
    for j in range(fan.n_rays):
        d = n1_dimension(fan, j)
        out.append(
            DivisorProfile(
                ray=j,
                n1_dim=d,
                codim=fan.rho - d,
                movable=mov.contains_point(list(dd.ray_classes[j])),
            )
        )
    return out


def c_invariant(fan: Fan) -> tuple[int, int]:
    """Maximal codimension of the curve space of an invariant prime divisor.

    Returns the value and a ray attaining it. The maximum is taken over
    torus-invariant prime divisors only.
    """
    profiles = divisor_profiles(fan)
    best = max(p.codim for p in profiles)
    witness = next(p.ray for p in profiles if p.codim == best)
    return best, witness


# -- exceptional planes and lines ---------------------------------------------

class PlaneRecord(NamedTuple):
    """A two-cone whose star is a plane with normal degree -1 twice."""

    tau: tuple[int, int]
    link: tuple[int, int, int]
    line_class: Vec
    star_cones: tuple[tuple[int, ...], ...]


class LineRecord(NamedTuple):
    """A wall curve with normal degree -1 three times."""

    shared: tuple[int, ...]
    opposite: tuple[int, int]
    cls: Vec


class ExceptionalLocusReport(NamedTuple):
    planes: tuple[PlaneRecord, ...]
    lines: tuple[LineRecord, ...]
    # disjoint[i][j] is True when plane i and line j share no cone
    disjoint: tuple[tuple[bool, ...], ...]


def _plane_candidate(fan: Fan, dd: fanmod.FanData,
                     tau: tuple[int, int]) -> PlaneRecord | None:
    stars = [c for c in fan.max_cones if set(tau) <= set(c)]
    if len(stars) != 3:
        return None
    link = sorted(set().union(*(set(c) for c in stars)) - set(tau))
    if len(link) != 3:
        return None
    pairs = {tuple(sorted(set(c) - set(tau))) for c in stars}
    if pairs != {(link[0], link[1]), (link[0], link[2]), (link[1], link[2])}:
        return None
    total = [0] * fan.dim
    for w in link:
        total = [a + b for a, b in zip(total, fan.rays[w])]
    expect = [fan.rays[tau[0]][k] + fan.rays[tau[1]][k] for k in range(fan.dim)]
    if total != expect:
        return None
    # the three interior walls carry one line class with the right degrees
    classes = set()
    for w in link:
        shared = tuple(sorted(tau + (w,)))
        wall = next((x for x in dd.walls if x.shared == shared), None)
        if wall is None:
            raise InternalError("star wall missing from the wall list")
        if wall.coefficient(tau[0]) != -1 or wall.coefficient(tau[1]) != -1:
            raise InternalError("plane candidate with wrong normal degrees")
        if wall.anticanonical_degree != 1:
            raise InternalError("plane candidate with wrong line degree")
        classes.add(wall.curve_class)
    if len(classes) != 1:
        raise InternalError("lines of one plane have distinct classes")
    return PlaneRecord(
        tau=tau,
        link=tuple(link),
        line_class=classes.pop(),
        star_cones=tuple(sorted(stars)),
    )


def detect_exceptional_loci(fan: Fan) -> ExceptionalLocusReport:
    """Find all exceptional planes and lines of a smooth complete fourfold.

    A line is a wall whose relation has opposite coefficients (1, 1) and all
    three shared coefficients -1. A plane is a two-cone with a three-ray
    link forming all pairs, whose ray sum equals the sum of the two cone
    rays.
    """
    if fan.dim != 4:
        raise ValidationError("exceptional locus detection needs a 4-fold")
    dd = fanmod.data(fan)
    if not dd.is_smooth:
        raise ValidationError("exceptional locus detection needs a smooth fan")
    lines = []
    for w in dd.walls:
        shared_coeffs = sorted(w.coefficient(i) for i in w.shared)
        opposite_coeffs = sorted(w.coefficient(i) for i in w.opposite)
        if shared_coeffs == [-1, -1, -1] and opposite_coeffs == [1, 1]:
            if w.anticanonical_degree != -1:
                raise InternalError("line pattern with wrong degree")
            lines.append(LineRecord(shared=w.shared, opposite=w.opposite,
                                    cls=w.curve_class))
    planes = []
    seen: set[tuple[int, int]] = set()
    for c in fan.max_cones:
        for a in range(len(c)):
            for b in range(a + 1, len(c)):
                tau = (c[a], c[b])
                if tau in seen:
                    continue
                seen.add(tau)
                rec = _plane_candidate(fan, dd, tau)
                if rec is not None:
                    planes.append(rec)
    planes.sort(key=lambda p: p.tau)
    lines.sort(key=lambda x: x.shared)
    disjoint = tuple(
        tuple(
            not any(
                set(p.tau) | set(x.shared) <= set(c) for c in fan.max_cones
            )
            for x in lines
        )
        for p in planes
    )
    return ExceptionalLocusReport(
        planes=tuple(planes), lines=tuple(lines), disjoint=disjoint
    )


# -- degree audit along a flip chain ------------------------------------------

class FlipDegreeStep(NamedTuple):
    step: int
    jminus: tuple[int, ...]
    jplus: tuple[int, ...]
    incidence: int
    degree_before: int
    degree_after: int
    class_negation_ok: bool


class DegreeAuditReport(NamedTuple):
    curve_wall: tuple[int, ...]
    start_degree: int
    final_degree: int
    steps: tuple[FlipDegreeStep, ...]
    incidence_total: int
    identity_ok: bool


def _match_ray(fan: Fan, jminus: Sequence[int], jplus: Sequence[int]) -> ExtremalRay:
    jm, jp = tuple(jminus), tuple(jplus)
    for r in fanmod.extremal_rays(fan):
        if r.jminus == jm and r.jplus == jp:
            return r
    raise InternalError(f"no extremal ray with circuit {jm} -> {jp}")


def _replay_flips(start: Fan, steps) -> tuple[list[Fan], list[ExtremalRay]]:
    fans = [start]
    rays = []
    for st in steps:
        if st.action != "flip":
            raise ValidationError("the trace must consist of flips only")
        ray = _match_ray(fans[-1], st.jminus, st.jplus)
        rays.append(ray)
        fans.append(mmp.flip(fans[-1], ray))
    return fans, rays


def rebuild_flip_chain(result: mmp.MoriResult) -> tuple[list[Fan], list[ExtremalRay]]:
    """Replay the flips of a program, returning all models and flipped rays."""
    fans, rays = _replay_flips(result.start, result.steps)
    if not fanmod.fans_equal(fans[-1], result.final):
        raise InternalError("replayed flip chain does not reach the final model")
    return fans, rays


def _wall_by_shared(fan: Fan, shared: tuple[int, ...]) -> Wall | None:
    for w in fanmod.walls(fan):
        if w.shared == shared:
            return w
    return None


def _resolution(down: Fan, up: Fan, ray: ExtremalRay) -> Fan:
    """Common star subdivision of the two sides of one flip."""
    z = [0] * down.dim
    for j in ray.jplus:
        z = [a + ray.pairing[j] * b for a, b in zip(z, down.rays[j])]
    z = primitive(z)
    hat_down = fanmod.star_subdivision(down, ray.jminus, z)
    hat_up = fanmod.star_subdivision(up, ray.jplus, z)
    if not fanmod.fans_equal(hat_down, hat_up):
        raise InternalError("flip sides disagree on the common resolution")
    return hat_down


def sqm_degree_audit(result: mmp.MoriResult, curve_class: Sequence) -> DegreeAuditReport:
    """Track a wall curve of the final model backward through a flip chain.

    For each flip the curve's transform is lifted to the common resolution
    of the two sides; the coefficient of the inserted ray there counts the
    incidences with the flipped locus, and the anticanonical degrees on the
    two sides must differ by exactly that count times the center codimension
    gap. A curve that meets no flipped locus keeps its degree. Raises when
    the transform is not trackable (the curve lies in a flipped locus).
    """
    fans, rays = rebuild_flip_chain(result)
    final = fans[-1]
    cls = primitive(tuple(int(x) for x in curve_class))
    candidates = [w for w in fanmod.walls(final) if w.curve_class == cls]
    if not candidates:
        raise ValidationError("curve class is not a wall class of the final model")
    last_error: ValidationError | None = None
    for wall in candidates:
        try:
            return _audit_one_wall(fans, rays, wall)
        except ValidationError as exc:
            last_error = exc
    assert last_error is not None
    raise last_error


def _audit_one_wall(fans: list[Fan], rays: list[ExtremalRay],
                    wall: Wall) -> DegreeAuditReport:
    shared = wall.shared
    degrees = [None] * len(fans)
    degrees[-1] = wall.anticanonical_degree
    steps = []
    total = 0
    identity_ok = True
    for i in range(len(rays) - 1, -1, -1):
        ray = rays[i]
        hat = _resolution(fans[i], fans[i + 1], ray)
        z_index = hat.n_rays - 1
        hat_wall = _wall_by_shared(hat, shared)
        if hat_wall is None:
            raise ValidationError(
                "curve transform lies in the flipped locus at step "
                f"{i} and cannot be tracked"
            )
        s = hat_wall.coefficient(z_index)
        down_wall = _wall_by_shared(fans[i], shared)
        if down_wall is None:
            raise InternalError("tracked wall missing below the resolution")
        up_wall = _wall_by_shared(fans[i + 1], shared)
        if up_wall is None:
            raise InternalError("tracked wall missing above the resolution")
        degrees[i] = down_wall.anticanonical_degree
        gap = len(ray.jplus) - len(ray.jminus)
        if up_wall.anticanonical_degree != down_wall.anticanonical_degree + gap * s:
            identity_ok = False
        # the flipped circuit reverses sign, so every divisor pairing flips
        partner = _match_ray(fans[i + 1], ray.jplus, ray.jminus)
        negation = partner.cls == tuple(-x for x in ray.cls) and (
            partner.pairing == tuple(-x for x in ray.pairing)
        )
        total += s
        steps.append(
            FlipDegreeStep(
                step=i,
                jminus=ray.jminus,
                jplus=ray.jplus,
                incidence=s,
                degree_before=down_wall.anticanonical_degree,
                degree_after=up_wall.anticanonical_degree,
                class_negation_ok=negation,
            )
        )
    steps.reverse()
    return DegreeAuditReport(
        curve_wall=shared,
        start_degree=degrees[0],
        final_degree=degrees[-1],
        steps=tuple(steps),
        incidence_total=total,
        identity_ok=identity_ok and all(st.class_negation_ok for st in steps),
    )


# -- classification of non-movable prime divisors ------------------------------

class ClassificationResult(NamedTuple):
    ray: int
    tag: str
    flips: int
    relation_pattern: tuple
    target_smooth: bool | None
    target_fano: bool | None
    audit_mode: bool
    notes: tuple[str, ...]


def _direct_divisorial_ray(fan: Fan, ray: int) -> ExtremalRay | None:
    for r in fanmod.extremal_rays(fan):
        if r.kind == "divisorial" and r.jminus == (ray,):
            return r
    return None


def is_smooth_fano_fourfold(fan: Fan) -> bool:
    """The hypothesis of the classification and of the bound audit: a smooth
    projective Fano 4-fold."""
    dd = fanmod.data(fan)
    return fan.dim == 4 and dd.is_smooth and dd.is_fano


def classify_nonmovable_divisor(
    fan: Fan, ray: int, audit_mode: bool = False
) -> ClassificationResult:
    """Classify a non-movable invariant prime divisor of a Fano fourfold.

    Runs a Mori program for the divisor itself and inspects the terminal
    divisorial contraction. Outside audit mode the Picard number must be at
    least 6, and the structural consequences of the classification theorem
    are enforced as falsification checks.
    """
    if not is_smooth_fano_fourfold(fan):
        raise ValidationError("classification needs a smooth projective Fano 4-fold")
    dd = fanmod.data(fan)
    if fan.rho < 6 and not audit_mode:
        raise ValidationError(
            f"rho = {fan.rho} < 6 is outside the classification hypothesis; "
            "pass audit_mode=True to run the geometric sub-tests anyway"
        )
    inv = mdscones.cone_inventory(fan)
    cls = dd.ray_classes[ray]
    if inv.mov.contains_point(list(cls)):
        raise ValidationError(f"divisor of ray {ray} is movable")
    if ray not in {j for j, _ in mdscones.nonmovable_prime_divisors(fan)}:
        raise InternalError("non-movable ray class misses the effective boundary")

    notes: list[str] = []
    direct = _direct_divisorial_ray(fan, ray)
    if direct is not None and direct.image_dim == 2:
        target, _ = mmp.contract_divisorial(fan, direct)
        tdd = fanmod.data(target)
        report = detect_exceptional_loci(fan)
        inside = [p for p in report.planes if ray in p.tau]
        if inside:
            msg = "a surface-image divisor contains an exceptional plane"
            if audit_mode:
                notes.append(msg)
            else:
                raise FalsificationAlarm(msg)
        pattern = (tuple(sorted(direct.pairing[j] for j in direct.jplus)),
                   direct.pairing[ray])
        return ClassificationResult(
            ray=ray,
            tag="(3,2)",
            flips=0,
            relation_pattern=pattern,
            target_smooth=tdd.is_smooth,
            target_fano=tdd.is_fano,
            audit_mode=audit_mode,
            notes=tuple(notes),
        )

    divisor = [1 if j == ray else 0 for j in range(fan.n_rays)]
    res = mmp.run_mori_program(fan, divisor, strategy="first")
    if res.outcome != "semiample":
        raise InternalError("program for a non-movable divisor ended fiber-type")
    if not res.steps or res.steps[-1].action != "contract":
        raise InternalError("program for a non-movable divisor did not contract")
    if any(st.action != "flip" for st in res.steps[:-1]):
        raise InternalError("program contracted a different divisor first")
    last = res.steps[-1]
    if last.removed_ray != ray:
        raise InternalError("terminal contraction removed a different ray")
    m = len(res.steps) - 1

    chain, _ = _replay_flips(res.start, res.steps[:-1])
    # flipping preserves the ray list, so the divisor keeps its index
    end = chain[-1]
    terminal = _match_ray(end, last.jminus, last.jplus)
    target, _ = mmp.contract_divisorial(end, terminal)
    tdd = fanmod.data(target)
    plus_coeffs = tuple(sorted(terminal.pairing[j] for j in terminal.jplus))
    self_coeff = terminal.pairing[ray]
    pattern = (plus_coeffs, self_coeff)

    if len(terminal.jplus) == 3 and plus_coeffs == (1, 1, 1) and self_coeff == -1 \
            and tdd.is_smooth:
        tag = "(3,1)"
    elif len(terminal.jplus) == 4 and plus_coeffs == (1, 1, 1, 1) and self_coeff == -1 \
            and tdd.is_smooth:
        tag = "(3,0)^P3"
    elif len(terminal.jplus) == 4 and plus_coeffs == (1, 1, 1, 1) and self_coeff == -2:
        tag = "unclassifiable-smooth-quadric"
        notes.append(
            "quadric-like degrees, but the divisor is a projective 3-space "
            "with squared normal degree and the target point is terminal "
            "and not factorial; a factorial quadric pattern has no "
            "simplicial realization"
        )
    elif terminal.image_dim == 2:
        msg = "terminal surface-image contraction after flips"
        if audit_mode:
            tag = "other"
            notes.append(msg)
        else:
            raise FalsificationAlarm(msg)
    else:
        tag = "other"
        notes.append(f"unrecognized terminal pattern {pattern}")

    if m < fan.rho - 4:
        msg = f"only {m} flips before the terminal contraction (rho = {fan.rho})"
        if audit_mode:
            notes.append(msg)
        else:
            raise FalsificationAlarm(msg)
    return ClassificationResult(
        ray=ray,
        tag=tag,
        flips=m,
        relation_pattern=pattern,
        target_smooth=tdd.is_smooth,
        target_fano=tdd.is_fano,
        audit_mode=audit_mode,
        notes=tuple(notes),
    )


# -- product splitting ---------------------------------------------------------

def coordinate_factors(fan: Fan) -> list[tuple[tuple[int, ...], Fan, tuple[int, ...]]]:
    """Split a fan into coordinate-block factors when it is a product.

    Returns one (coordinates, factor fan, ray indices) triple per factor,
    or an empty list when the fan does not split. The factors multiply back
    to the input fan up to the induced ray reindexing (verified).
    """
    uf = mdscones._UnionFind(fan.dim)
    for r in fan.rays:
        support = [k for k, x in enumerate(r) if x != 0]
        for k in support[1:]:
            uf.union(support[0], k)
    blocks: dict[int, list[int]] = {}
    for k in range(fan.dim):
        blocks.setdefault(uf.find(k), []).append(k)
    if len(blocks) < 2:
        return []
    comps = sorted(tuple(sorted(v)) for v in blocks.values())
    factors = []
    for coords in comps:
        idx = tuple(
            j for j, r in enumerate(fan.rays)
            if all(k in coords for k, x in enumerate(r) if x != 0)
        )
        rays = [tuple(fan.rays[j][k] for k in coords) for j in idx]
        cones = sorted(
            {
                tuple(sorted(idx.index(j) for j in c if j in idx))
                for c in fan.max_cones
            }
        )
        factor = fanmod.build_fan(len(coords), rays, cones)
        factors.append((coords, factor, idx))
    rebuilt = factors[0][1]
    mapping = list(factors[0][2])
    for _, factor, idx in factors[1:]:
        rebuilt = fanmod.product(rebuilt, factor)
        mapping.extend(idx)
    expect = {tuple(sorted(mapping[j] for j in c)) for c in rebuilt.max_cones}
    if expect != set(fan.max_cones):
        return []
    return factors


def _surface_product_split(fan: Fan) -> tuple[Fan, Fan] | None:
    """Group coordinate factors into two surface factors when possible."""
    factors = coordinate_factors(fan)
    if not factors or sum(len(c) for c, _, _ in factors) != 4:
        return None
    for split in range(1, 1 << (len(factors) - 1)):
        left = [f for i, f in enumerate(factors) if split >> i & 1]
        right = [f for i, f in enumerate(factors) if not split >> i & 1]
        if sum(len(c) for c, _, _ in left) != 2:
            continue
        s1 = left[0][1] if len(left) == 1 else fanmod.product(left[0][1], left[1][1])
        s2 = right[0][1] if len(right) == 1 else fanmod.product(right[0][1], right[1][1])
        return s1, s2
    return None


# -- the bound auditor ----------------------------------------------------------

BOUND_LIMITS = {
    "elementary-fiber-type": 11,
    "nonregular-quasi-elementary": 17,
    "nonregular-curve-target": 10,
    "nonregular-surface-target": 8,
    "regular-surface-target": 18,
    "regular-surface-target-picard": 9,
    "movable-effective-extremal": 11,
    "elementary-threefold-target": 11,
    "low-divisor-codimension": 12,
}


class TheoremRecord(NamedTuple):
    name: str
    hypothesis_holds: bool
    conclusion_holds: bool | None
    details: str


class BoundsReport(NamedTuple):
    rho: int
    c_value: int
    c_witness: int
    records: tuple[TheoremRecord, ...]

    @property
    def alarms(self) -> tuple[str, ...]:
        return tuple(
            r.name for r in self.records
            if r.hypothesis_holds and r.conclusion_holds is False
        )

    def to_text(self) -> str:
        lines = [f"rho {self.rho}  c {self.c_value} (ray {self.c_witness})"]
        for r in self.records:
            if not r.hypothesis_holds:
                status = "n/a"
            else:
                status = "ok" if r.conclusion_holds else "FALSIFIED"
            lines.append(f"  {r.name}: {status}  {r.details}")
        return "\n".join(lines)


def _record(name: str, hypothesis, conclusion, details: str) -> TheoremRecord:
    """A record whose conclusion (a callable) is evaluated only when the
    hypothesis holds; under a false hypothesis the conclusion is None."""
    holds = bool(hypothesis)
    return TheoremRecord(name, holds, conclusion() if holds else None, details)


def _bound_record(name: str, rho: int, hits, details: str) -> TheoremRecord:
    """The record "rho <= BOUND_LIMITS[name]" under the hypothesis that hits
    is non-empty."""
    lim = BOUND_LIMITS[name]
    return _record(name, hits, lambda: rho <= lim, f"{details}; bound {lim}")


def _facet_fiber_ray(atlas: mdscones.ChamberAtlas, d) -> ExtremalRay:
    """The fiber-type extremal ray of the host chamber model of a face."""
    model = atlas.chambers[d.host_chamber].model
    hits = [
        r for r in fanmod.extremal_rays(model)
        if all(dot(g, r.cls) == 0 for g in d.sigma.generators)
    ]
    if len(hits) != 1:
        raise InternalError("facet does not match one extremal ray")
    if hits[0].kind != "fiber":
        raise InternalError("effective-boundary facet is not fiber type")
    return hits[0]


def _surface_max_selfdual(fan: Fan) -> int:
    """Largest negative self-intersection among invariant curves of a surface."""
    return max(-w.coefficient(w.shared[0]) for w in fanmod.walls(fan))


def _is_smooth_surface_blowdown(ray: ExtremalRay) -> bool:
    """True when the ray contracts a divisor onto a surface with fibers of
    degree one."""
    if ray.kind != "divisorial" or ray.image_dim != 2:
        return False
    plus = sorted(ray.pairing[j] for j in ray.jplus)
    return plus == [1, 1] and ray.pairing[ray.jminus[0]] == -1


def _has_smooth_surface_blowup(fan: Fan) -> bool:
    """Is the fourfold the blow-up of a smooth Fano fourfold along an
    invariant surface?"""
    return any(
        is_smooth_fano_fourfold(mmp.contract_divisorial(fan, r)[0])
        for r in fanmod.extremal_rays(fan)
        if _is_smooth_surface_blowdown(r)
    )


def _high_codimension_branch(fan: Fan, c_value: int, qe_targets) -> str | None:
    """The admissible structure of a fourfold with c >= 3, or None.

    Either the fourfold is a product of del Pezzo surfaces, or c = 3, rho is
    5 or 6, and a regular quasi-elementary contraction maps onto a surface
    of Picard number rho - 4 (for rho = 6 a minimal one, with every extremal
    ray a conic bundle or a smooth surface blow-down).
    """
    split = _surface_product_split(fan)
    if split is not None:
        r1, r2 = split[0].rho, split[1].rho
        if (
            all(fanmod.is_fano(s) and fanmod.is_smooth(s) for s in split)
            and max(r1, r2) == c_value + 1
        ):
            return f"product of del Pezzo surfaces with rho {r1}, {r2}"
    rho = fan.rho
    if c_value != 3 or rho not in (5, 6):
        return None
    want_rho = 1 if rho == 5 else 2
    for d, tm in qe_targets:
        if not d.regular or d.target_rho != want_rho or tm.fan.dim != 2:
            continue
        if rho == 5:
            return "quasi-elementary contraction onto a rho-1 surface"
        if _surface_max_selfdual(tm.fan) <= 1 and all(
            (r.kind == "fiber" and r.image_dim == 3) or _is_smooth_surface_blowdown(r)
            for r in fanmod.extremal_rays(fan)
        ):
            return (
                "quasi-elementary contraction onto a minimal rho-2 "
                "surface with only conic bundles and smooth "
                "surface blow-downs"
            )
    return None


def audit_bounds(fan: Fan) -> BoundsReport:
    """Check every bound predicate whose hypothesis this fourfold satisfies.

    Each record pairs a hypothesis test with its concluded bound, built by
    one rule: the conclusion is evaluated only when the hypothesis holds. A
    failed conclusion under a true hypothesis is reported as an alarm by the
    caller-facing report (it should never happen).
    """
    if not is_smooth_fano_fourfold(fan):
        raise ValidationError("bound audit needs a smooth projective Fano 4-fold")
    dd = fanmod.data(fan)
    rho = fan.rho
    c_value, c_witness = c_invariant(fan)
    atlas = mdscones.chamber_atlas(fan, cap=mdscones.MAX_CHAMBERS)
    inv = atlas.inventory

    # one pass over the fiber-type faces, each reported once
    elem_fiber, nonreg_qe, qe_targets = [], [], []
    for d in mdscones.rational_contractions(atlas):
        if d.kind != "fiber-type":
            continue
        if d.target_rho == rho - 1:
            elem_fiber.append(d)
        if d.target_rho < 1:
            continue
        qe = mdscones.is_quasi_elementary(atlas, d)
        if qe.verdict:
            if not d.regular:
                nonreg_qe.append(d)
            qe_targets.append((d, mdscones.target_model(atlas, qe)))
    curve_hits = [d for d, tm in qe_targets if not d.regular and tm.fan.dim == 1]
    surface_hits = [d for d, tm in qe_targets if not d.regular and tm.fan.dim == 2]
    reg_surface = [d for d, tm in qe_targets if d.regular and tm.fan.dim == 2]
    eff_gens = set(inv.eff.generators)
    classes = [primitive(cls) for cls in dd.ray_classes]
    movable_extremal = [
        j for j, cls in enumerate(classes)
        if cls in eff_gens and inv.mov.contains_point(list(cls))
    ]
    threefold = [d for d in elem_fiber if _facet_fiber_ray(atlas, d).image_dim == 3]
    low = c_value in (1, 2)
    blowup = low and _has_smooth_surface_blowup(fan)
    high = c_value >= 3
    branch = _high_codimension_branch(fan, c_value, qe_targets) if high else None
    has_small = any(r.kind == "small" for r in fanmod.extremal_rays(fan))

    surface_lim = BOUND_LIMITS["nonregular-surface-target"]
    reg_lim = BOUND_LIMITS["regular-surface-target"]
    target_lim = BOUND_LIMITS["regular-surface-target-picard"]
    low_lim = BOUND_LIMITS["low-divisor-codimension"]
    records = (
        _bound_record("elementary-fiber-type", rho, elem_fiber,
                      f"{len(elem_fiber)} elementary fiber-type faces"),
        _bound_record("nonregular-quasi-elementary", rho, nonreg_qe,
                      f"{len(nonreg_qe)} non-regular quasi-elementary faces"),
        _bound_record("nonregular-curve-target", rho, curve_hits,
                      f"{len(curve_hits)} non-regular faces onto curves"),
        _record(
            "nonregular-surface-target", surface_hits,
            lambda: all(rho <= d.target_rho + surface_lim for d in surface_hits),
            f"{len(surface_hits)} non-regular faces onto surfaces; "
            f"bound rho_Y + {surface_lim}",
        ),
        _record(
            "regular-surface-target", reg_surface,
            lambda: rho <= reg_lim and all(
                d.target_rho <= target_lim and (d.target_rho != rho - 1 or rho <= 10)
                for d in reg_surface
            ),
            f"{len(reg_surface)} surface contractions; bounds rho {reg_lim}, "
            f"target rho {target_lim}, elementary 10",
        ),
        _bound_record("movable-effective-extremal", rho, movable_extremal,
                      f"movable divisor classes on effective extremal rays: "
                      f"{movable_extremal}"),
        _bound_record("elementary-threefold-target", rho, threefold,
                      f"{len(threefold)} elementary faces onto 3-folds"),
        _record(
            "low-divisor-codimension", low, lambda: rho <= low_lim or blowup,
            (f"rho {rho} vs {low_lim}; smooth surface blow-down "
             f"{'found' if blowup else 'absent'}")
            if low else f"c = {c_value} outside {{1, 2}}",
        ),
        _record(
            "high-divisor-codimension", high, lambda: branch is not None,
            (branch or "no admissible structure found") if high else f"c = {c_value} < 3",
        ),
        _record(
            "small-ray-codimension", has_small,
            lambda: (rho == 5 and c_value == 3) or c_value <= 2,
            f"small rays {'present' if has_small else 'absent'}; c = {c_value}",
        ),
    )
    return BoundsReport(rho=rho, c_value=c_value, c_witness=c_witness, records=records)
