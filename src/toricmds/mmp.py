"""Mori programs on complete simplicial fans.

A step picks an extremal ray that is negative against the running divisor and
performs the corresponding surgery on the fan: a bistellar exchange for a
small ray, a ray removal for a divisorial ray, or a stop when the ray is of
fiber type. The divisor travels as a full coefficient vector: unchanged by
flips, with the contracted ray's coefficient dropped by divisorial steps.

Surgery checks a local certificate instead of re-validating the output fan:
the ray's pairing must be a relation among the rays whose negative and
positive supports are jminus and jplus (a circuit), and the star of jminus
must be the join of that circuit with its links. A valid fan rewritten along
such a circuit is valid (M. Reid, 1983), so the output is built with
build_fan(check="none").

Strategies: "first" (lexicographic by wall ray-index sets), "random" (seeded,
over the sorted candidate list), "scaling" (straight segment from an ample
divisor, crossing nef-boundary walls in order), "interactive" (caller-supplied
chooser).
"""

from __future__ import annotations

import random
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, NamedTuple, Sequence

from . import fan as fanmod
from .errors import CapOverflowError, InternalError, ValidationError
from .fan import ExtremalRay, Fan
from .linalg import dot, primitive

MAX_MORI_STEPS = 1000


def _circuit_star(
    fan: Fan, ray: ExtremalRay
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Check the local certificate of a surgery along ray.

    Returns the maximal cones outside the star of jminus and the sorted
    links of that star. Raises InternalError unless
    - ray.pairing is a relation sum_j pairing[j] * rays[j] == 0 among the
      fan's rays, with negative support jminus and positive support jplus,
      and jminus has two or more rays for a small ray and one for a
      divisorial ray;
    - every maximal cone containing jminus is jminus + (jplus minus one ray)
      + link, and every link occurs with each ray of jplus left out.
    The cones jminus + jplus - {i} are simplicial and the relation has full
    support on Z = jminus + jplus, so Z is a circuit: every Z - {i} is
    linearly independent and the span of Z meets the span of each link only
    in 0. The star is then the join of cone(Z), triangulated by the simplices
    Z - {i}, i in jplus, with the link cones.
    """
    p = ray.pairing
    if len(p) != fan.n_rays or any(
        dot(p, [v[k] for v in fan.rays]) for k in range(fan.dim)
    ):
        raise InternalError(
            f"pairing {p} of the {ray.kind} ray is not a relation among the rays"
        )
    if (
        ray.jminus != tuple(j for j, x in enumerate(p) if x < 0)
        or ray.jplus != tuple(j for j, x in enumerate(p) if x > 0)
        or not ray.jminus
        or (len(ray.jminus) == 1) != (ray.kind == "divisorial")
    ):
        raise InternalError(
            f"J- {ray.jminus} and J+ {ray.jplus} do not fit the {ray.kind} "
            f"ray's pairing {p}"
        )
    jm, jp = set(ray.jminus), set(ray.jplus)
    kept: list[tuple[int, ...]] = []
    links: dict[tuple[int, ...], set[int]] = {}
    for c in fan.max_cones:
        if jm <= set(c):
            rest = set(c) - jm
            missing = jp - rest
            if len(missing) != 1:
                raise InternalError(f"cone {c} does not fit the circuit structure")
            link = tuple(sorted(rest - jp))
            links.setdefault(link, set()).add(next(iter(missing)))
        else:
            kept.append(c)
    if not links:
        raise InternalError(f"{ray.kind} ray has an empty flipping locus")
    for link in sorted(links):
        if links[link] != jp:
            raise InternalError(
                f"incomplete star around link {link}: {sorted(links[link])}"
            )
    return kept, sorted(links)


def flip(fan: Fan, ray: ExtremalRay) -> Fan:
    """Replace the star of a small extremal ray by the opposite triangulation.

    Every maximal cone containing all of jminus decomposes as
    jminus + (jplus minus one ray) + link; the cones sharing a link are
    replaced by the cones jplus + (jminus minus one ray) + link.

    The output is built without a global check. Once _circuit_star has
    checked the certificate, the star of each link L is the join of cone(Z)
    and cone(L) for the circuit Z = jminus + jplus. A circuit cone has
    exactly two triangulations, by the simplices Z - {i} with i in jplus and
    with i in jminus, and they agree on the boundary of cone(Z) (M. Reid,
    "Decomposition of toric morphisms", 1983). So the new cones are
    simplicial, cover the same set as the old star, and meet each other and
    the kept cones in common faces: a valid fan stays valid.
    """
    if ray.kind != "small":
        raise ValidationError(f"cannot flip a {ray.kind} ray")
    kept, links = _circuit_star(fan, ray)
    jm, jp = set(ray.jminus), set(ray.jplus)
    flipped = [
        tuple(sorted((jm - {i}) | jp | set(link))) for link in links for i in sorted(jm)
    ]
    return fanmod.build_fan(fan.dim, fan.rays, kept + flipped, check="none")


def contract_divisorial(fan: Fan, ray: ExtremalRay) -> tuple[Fan, int]:
    """Contract a divisorial extremal ray; returns the target and the removed
    ray's index in the source fan.

    The output is built without a global check. Once _circuit_star has
    checked the certificate, the relation puts the removed ray j0 strictly
    inside cone(jplus), and the star of j0 around each link L is the stellar
    subdivision at j0 of the simplicial cone jplus + L. Merging it back into
    jplus + L, and dropping j0, undoes that subdivision and keeps the fan
    valid.
    """
    if ray.kind != "divisorial":
        raise ValidationError(f"cannot divisorially contract a {ray.kind} ray")
    kept, links = _circuit_star(fan, ray)
    j0 = ray.jminus[0]
    jp = set(ray.jplus)
    merged = [tuple(sorted(jp | set(link))) for link in links]
    remap = {old: old - (1 if old > j0 else 0) for old in range(fan.n_rays)}
    rays = [v for i, v in enumerate(fan.rays) if i != j0]
    cones = [tuple(sorted(remap[i] for i in c)) for c in kept + merged]
    return fanmod.build_fan(fan.dim, rays, cones, check="none"), j0


class MoriStep(NamedTuple):
    """One step of a program: which ray was chosen and what it did."""

    index: int
    action: str  # "flip", "contract", "stop-fiber"
    kind: str
    jminus: tuple[int, ...]
    jplus: tuple[int, ...]
    exc_dim: int
    image_dim: int
    degree: Fraction
    k_degree: int
    removed_ray: int | None
    n_rays_after: int
    n_cones_after: int
    tstar: Fraction | None


class MoriResult(SimpleNamespace):
    """Outcome of a Mori program run.

    A keyword-built namespace rather than a named tuple, so a caller may
    edit a field in place: the benchmark's oracle test does so to check
    that a wrong outcome is caught.
    """

    strategy: str
    seed: int | None
    start: Fan
    final: Fan
    divisor_start: tuple
    divisor_final: tuple
    outcome: str  # "semiample" or "fiber-type"
    steps: list[MoriStep]
    fiber_ray: ExtremalRay | None
    removed_rays: list[int]

    @property
    def n_flips(self) -> int:
        return sum(1 for s in self.steps if s.action == "flip")

    @property
    def n_contractions(self) -> int:
        return sum(1 for s in self.steps if s.action == "contract")


def _drop(vec: Sequence, idx: int) -> tuple:
    return tuple(v for k, v in enumerate(vec) if k != idx)


def _negative_rays(dd: fanmod.FanData, div_class: Sequence) -> list[ExtremalRay]:
    return [e for e in dd.extremal_rays if dot(div_class, e.cls) < 0]


def negative_extremal_rays(fan: Fan, divisor: Sequence) -> list[ExtremalRay]:
    dd = fanmod.data(fan)
    return _negative_rays(dd, dd.divisor_class(divisor))


def is_nef(fan: Fan, divisor: Sequence) -> bool:
    dd = fanmod.data(fan)
    cls = dd.divisor_class(divisor)
    return all(dot(cls, w.curve_class) >= 0 for w in dd.walls)


def default_ample(fan: Fan) -> tuple:
    """Coefficient vector of some ample divisor."""
    from . import linalg

    dd = fanmod.data(fan)
    if dd.ample_class is None:
        raise ValidationError("fan is not projective")
    sol = linalg.solve(dd.class_basis, dd.ample_class)
    if sol is None:
        raise InternalError("ample class has no coefficient representative")
    return tuple(sol)


def _scaling_pick(
    dd: fanmod.FanData,
    div_class: Sequence,
    amp_class: Sequence,
    prev_t: Fraction,
) -> tuple[ExtremalRay, Fraction]:
    """Largest wall-crossing parameter on the segment from ample to divisor.

    The segment (1-t)*D + t*H is nef for t just above t_star; among the rays
    whose crossing time equals t_star the lexicographically smallest wins.
    """
    best_t: Fraction | None = None
    best_ray: ExtremalRay | None = None
    for e in dd.extremal_rays:
        cd = Fraction(dot(div_class, e.cls))
        if cd >= 0:
            continue
        ch = Fraction(dot(amp_class, e.cls))
        if ch <= cd:
            raise InternalError("scaling segment does not cross this wall")
        t = cd / (cd - ch)
        if best_t is None or t > best_t or (t == best_t and e.sort_key < best_ray.sort_key):  # type: ignore[union-attr]
            best_t, best_ray = t, e
    if best_ray is None or best_t is None:
        raise InternalError("no negative ray in scaling pick")
    if best_t > prev_t:
        raise InternalError(
            f"scaling parameter increased from {prev_t} to {best_t}"
        )
    return best_ray, best_t


def run_mori_program(
    fan: Fan,
    divisor: Sequence,
    strategy: str = "first",
    seed: int | None = 0,
    ample: Sequence | None = None,
    choose: Callable[[list[ExtremalRay], Fan, tuple], int] | None = None,
    max_steps: int = MAX_MORI_STEPS,
) -> MoriResult:
    """Run a Mori program for the divisor until it is nef or a fiber-type ray
    is selected.

    The divisor is a coefficient vector over the fan's rays (integers or
    fractions). Returns the full step trace; the run is deterministic for
    every strategy (random draws from a seeded generator over a sorted
    candidate list).
    """
    if strategy not in ("first", "random", "scaling", "interactive"):
        raise ValidationError(f"unknown strategy {strategy!r}")
    if strategy == "interactive" and choose is None:
        raise ValidationError("interactive strategy needs a chooser callback")
    dd = fanmod.data(fan)
    if not dd.is_projective:
        raise ValidationError("Mori programs need a projective fan")
    if len(divisor) != fan.n_rays:
        raise ValidationError(
            f"divisor needs {fan.n_rays} coefficients, got {len(divisor)}"
        )
    div = tuple(
        Fraction(x) if not isinstance(x, int) else x for x in divisor
    )
    rng = random.Random(seed) if strategy == "random" else None
    amp: tuple | None
    if strategy == "scaling":
        amp = tuple(ample) if ample is not None else default_ample(fan)
        if len(amp) != fan.n_rays:
            raise ValidationError("ample vector has the wrong length")
        if not is_nef(fan, amp):
            raise ValidationError("scaling strategy needs a nef ample vector")
    else:
        amp = None
    prev_t = Fraction(1)
    div_start = div
    steps: list[MoriStep] = []
    removed_rays: list[int] = []

    def result(outcome: str, fiber_ray: ExtremalRay | None) -> MoriResult:
        return MoriResult(
            strategy=strategy, seed=seed if strategy == "random" else None,
            start=fan, final=current, divisor_start=div_start, divisor_final=div,
            outcome=outcome, steps=steps, fiber_ray=fiber_ray,
            removed_rays=removed_rays,
        )

    current = fan
    while True:
        dd = fanmod.data(current)
        cls = dd.divisor_class(div)
        negative = _negative_rays(dd, cls)
        if not negative:
            return result("semiample", None)
        if len(steps) >= max_steps:
            raise CapOverflowError(
                f"Mori program exceeded {max_steps} steps"
            )
        tstar: Fraction | None = None
        if strategy == "first":
            ray = negative[0]
        elif strategy == "random":
            assert rng is not None
            ray = negative[rng.randrange(len(negative))]
        elif strategy == "scaling":
            assert amp is not None
            ray, tstar = _scaling_pick(dd, cls, dd.divisor_class(amp), prev_t)
            prev_t = tstar
        else:
            idx = choose(negative, current, div)  # type: ignore[misc]
            if not 0 <= idx < len(negative):
                raise ValidationError(f"chooser returned invalid index {idx}")
            ray = negative[idx]

        removed = None
        if ray.kind == "fiber":
            action, nxt = "stop-fiber", current
        elif ray.kind == "small":
            action, nxt = "flip", flip(current, ray)
        else:
            action = "contract"
            nxt, removed = contract_divisorial(current, ray)
        steps.append(
            MoriStep(
                index=len(steps),
                action=action,
                kind=ray.kind,
                jminus=ray.jminus,
                jplus=ray.jplus,
                exc_dim=ray.exc_dim,
                image_dim=ray.image_dim,
                degree=Fraction(dot(cls, ray.cls)),
                k_degree=ray.k_degree,
                removed_ray=removed,
                n_rays_after=nxt.n_rays,
                n_cones_after=len(nxt.max_cones),
                tstar=tstar,
            )
        )
        if ray.kind == "fiber":
            return result("fiber-type", ray)
        if removed is not None:
            div = _drop(div, removed)
            if amp is not None:
                amp = _drop(amp, removed)
            removed_rays.append(removed)
        current = nxt


def trace_text(result: MoriResult) -> str:
    """Stable one-line-per-step rendering of a program run."""
    lines = [
        "strategy {} seed {}".format(
            result.strategy,
            result.seed if result.seed is not None else "-",
        ),
        "start rays {} cones {}".format(
            result.start.n_rays, len(result.start.max_cones)
        ),
    ]
    for s in result.steps:
        bits = [
            f"step {s.index}",
            s.action,
            f"type ({s.exc_dim},{s.image_dim})",
            "J- " + (",".join(map(str, s.jminus)) if s.jminus else "-"),
            "J+ " + ",".join(map(str, s.jplus)),
            f"degree {s.degree}",
            f"kdeg {s.k_degree}",
        ]
        if s.removed_ray is not None:
            bits.append(f"removed {s.removed_ray}")
        if s.tstar is not None:
            bits.append(f"t {s.tstar}")
        lines.append(" ".join(bits))
    lines.append(
        "final outcome {} rays {} cones {}".format(
            result.outcome, result.final.n_rays, len(result.final.max_cones)
        )
    )
    return "\n".join(lines) + "\n"


def lift_pairing(result: MoriResult, pairing: Sequence) -> tuple:
    """Transport a curve's ray-pairing vector from the final model back to the
    start.

    Flips identify the curve lattices, so only divisorial steps act: a curve
    missing the contracted center lifts with intersection zero against the
    removed ray.
    """
    vec = list(pairing)
    for removed in reversed(result.removed_rays):
        vec.insert(removed, 0)
    if len(vec) != result.start.n_rays:
        raise InternalError("lifted pairing has the wrong length")
    return tuple(vec)


def divisor_in_effective_cone(fan: Fan, divisor: Sequence) -> bool:
    dd = fanmod.data(fan)
    return dd.eff_cone.contains_point(dd.divisor_class(divisor))


def me_extremal_covering_class(fan: Fan, me_class: Sequence) -> tuple:
    """Covering-curve certificate for an extreme ray of the dual of the
    effective cone.

    Builds a divisor just outside the facet of the effective cone dual to the
    given ray, runs the scaling program, and transports the resulting fiber
    curve class back. Returns (class on the input fan, program result); the
    class is asserted to generate the requested ray.
    """
    dd = fanmod.data(fan)
    m = primitive(tuple(int(x) for x in me_class))
    me = dd.eff_cone.dual()
    if m not in me.generators:
        raise ValidationError(f"{m} is not an extreme ray of the mobile dual cone")
    on_facet = [
        j for j in range(fan.n_rays) if dot(dd.ray_classes[j], m) == 0
    ]
    if not on_facet:
        raise InternalError("dual facet carries no ray classes")
    amp = default_ample(fan)
    div = tuple(
        (1 if j in set(on_facet) else 0) - a for j, a in enumerate(amp)
    )
    res = run_mori_program(fan, div, strategy="scaling", ample=amp)
    if res.outcome != "fiber-type" or res.fiber_ray is None:
        raise InternalError(
            "covering-family program did not end in a fiber-type ray"
        )
    lifted = lift_pairing(res, res.fiber_ray.pairing)
    cls = primitive(dd.curve_class_from_pairing(lifted))
    if cls != m:
        raise InternalError(
            f"transported fiber class {cls} is not the requested ray {m}"
        )
    return cls, res
