"""Built-in fans, catalog registry, and a plain-text fan file format.

The text format is line-based:

    # comment, blank lines allowed
    fan NAME dim N
    ray X1 ... XN      (one per ray, order defines the indices)
    cone I1 ... IN     (one per maximal cone)

Catalog entries are constructed lazily and cached; every entry records the
expected rank, smoothness, and Fano flags so audits can cross-check them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable

from . import fan as fanmod
from . import mmp
from .errors import ValidationError
from .fan import Fan


def projective_space(n: int) -> Fan:
    """Fan of n-dimensional projective space."""
    if n < 1:
        raise ValidationError("projective space needs dimension at least 1")
    rays = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    rays.append(tuple([-1] * n))
    cones = list(combinations(range(n + 1), n))
    return fanmod.build_fan(n, rays, cones)


def weighted_projective(*weights: int) -> Fan:
    """Fan of a weighted projective space with the given positive weights.

    Rays v_0..v_n satisfy sum(w_i * v_i) = 0 with v_1..v_n the standard basis;
    this chart needs the leading weight to divide every other weight, so order
    the weights accordingly (e.g. (1, 1, 2) rather than (2, 1, 1)).
    """
    if len(weights) < 2 or any(w <= 0 for w in weights):
        raise ValidationError("weights must be positive, at least two")
    n = len(weights) - 1
    rays = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    if any(w % weights[0] for w in weights[1:]):
        raise ValidationError(
            f"weights {tuple(weights)}: leading weight must divide the others"
        )
    v0 = tuple(-w // weights[0] for w in weights[1:])
    cones = list(combinations(range(n + 1), n))
    return fanmod.build_fan(n, [v0] + rays, cones)


def hirzebruch(r: int) -> Fan:
    """Hirzebruch surface: a projectivized rank-two split bundle over the line."""
    if r < 0:
        raise ValidationError("hirzebruch parameter must be nonnegative")
    rays = [(1, 0), (0, 1), (-1, r), (0, -1)]
    cones = [(0, 1), (1, 2), (2, 3), (3, 0)]
    return fanmod.build_fan(2, rays, cones)


def projective_line_power(k: int) -> Fan:
    p1 = projective_space(1)
    out = p1
    for _ in range(k - 1):
        out = fanmod.product(out, p1)
    return out


def del_pezzo(k: int) -> Fan:
    """Plane blown up in k torus-fixed points, k between 0 and 3."""
    if not 0 <= k <= 3:
        raise ValidationError("toric del Pezzo count must be 0..3")
    f = projective_space(2)
    # fixed points of the plane: cones (0,1), (1,2), (0,2)
    centers = [(0, 1), (1, 2), (0, 2)]
    for c in centers[:k]:
        f = fanmod.star_subdivision(f, c)
    return f


def _blpt_p1x4() -> Fan:
    x = projective_line_power(4)
    # coordinate rays e1..e4 sit at even indices in the product order
    return fanmod.star_subdivision(x, (0, 2, 4, 6))


def _fano_flip_model() -> Fan:
    """All four anticanonically negative small rays of the blown-up quadruple
    line power, flipped: the program for the anticanonical divisor."""
    res = mmp.run_mori_program(_blpt_p1x4(), [1] * 9, strategy="first")
    return res.final


def _bl2pts_p3() -> Fan:
    f = fanmod.star_subdivision(projective_space(3), (0, 1, 2))
    return fanmod.star_subdivision(f, (0, 1, 3))


def _wps11112_blowup() -> Fan:
    return fanmod.star_subdivision(weighted_projective(1, 1, 1, 1, 2), (0, 1, 2, 3))


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    build: Callable[[], Fan]
    description: str
    dim: int
    rho: int
    smooth: bool
    fano: bool
    c: int = 0
    factors: tuple[str, ...] = ()
    tags: tuple[str, ...] = ()

    @property
    def fan(self) -> Fan:
        return _built(self.name)


CATALOG: dict[str, CatalogEntry] = {}


def _register(entry: CatalogEntry) -> None:
    CATALOG[entry.name] = entry


@lru_cache(maxsize=None)
def _built(name: str) -> Fan:
    return CATALOG[name].build()


def get(name: str) -> Fan:
    if name not in CATALOG:
        raise ValidationError(f"unknown catalog fan {name!r}")
    return _built(name)


def names() -> list[str]:
    return sorted(CATALOG)


_register(CatalogEntry(
    "p1", lambda: projective_space(1), "projective line", 1, 1, True, True, c=1))
_register(CatalogEntry(
    "p2", lambda: projective_space(2), "projective plane", 2, 1, True, True, c=0))
_register(CatalogEntry(
    "p3", lambda: projective_space(3), "projective 3-space", 3, 1, True, True, c=0))
_register(CatalogEntry(
    "p4", lambda: projective_space(4), "projective 4-space", 4, 1, True, True, c=0))
_register(CatalogEntry(
    "p1xp1", lambda: projective_line_power(2), "product of two lines",
    2, 2, True, True, c=1, factors=("p1", "p1")))
_register(CatalogEntry(
    "p1cubed", lambda: projective_line_power(3), "product of three lines",
    3, 3, True, True, c=1, factors=("p1", "p1", "p1")))
_register(CatalogEntry(
    "p1x4", lambda: projective_line_power(4), "product of four lines",
    4, 4, True, True, c=1, factors=("p1", "p1", "p1", "p1")))
_register(CatalogEntry(
    "p2xp2", lambda: fanmod.product(projective_space(2), projective_space(2)),
    "product of two planes", 4, 2, True, True, c=0, factors=("p2", "p2")))
_register(CatalogEntry(
    "f1", lambda: hirzebruch(1), "plane blown up in one point", 2, 2, True, True, c=1))
_register(CatalogEntry(
    "f2", lambda: hirzebruch(2), "second Hirzebruch surface", 2, 2, True, False, c=1))
_register(CatalogEntry(
    "dp2", lambda: del_pezzo(2), "plane blown up in two points",
    2, 3, True, True, c=2))
_register(CatalogEntry(
    "dp3", lambda: del_pezzo(3), "plane blown up in three points",
    2, 4, True, True, c=3))
_register(CatalogEntry(
    "blpt-p3", lambda: fanmod.star_subdivision(projective_space(3), (0, 1, 2)),
    "3-space blown up in a point", 3, 2, True, True, c=1))
_register(CatalogEntry(
    "blpt-p4", lambda: fanmod.star_subdivision(projective_space(4), (0, 1, 2, 3)),
    "4-space blown up in a point", 4, 2, True, True, c=1))
_register(CatalogEntry(
    "blline-p3", lambda: fanmod.star_subdivision(projective_space(3), (0, 1)),
    "3-space blown up along an invariant line", 3, 2, True, True, c=1))
_register(CatalogEntry(
    "blplane-p4", lambda: fanmod.star_subdivision(projective_space(4), (0, 1)),
    "4-space blown up along an invariant plane", 4, 2, True, True, c=1))
_register(CatalogEntry(
    "bl2pts-p3", _bl2pts_p3,
    "3-space blown up in two points", 3, 3, True, False, c=2))
_register(CatalogEntry(
    "blpt-p1cubed",
    lambda: fanmod.star_subdivision(projective_line_power(3), (0, 2, 4)),
    "triple line power blown up in a fixed point", 3, 4, True, False, c=3))
_register(CatalogEntry(
    "blpt-p1x4", _blpt_p1x4,
    "quadruple line power blown up in a fixed point", 4, 5, True, False, c=4))
_register(CatalogEntry(
    "fano-flip-model", _fano_flip_model,
    "the Fano small modification of blpt-p1x4", 4, 5, True, True, c=1,
    tags=("flip-target",)))
_register(CatalogEntry(
    "p112", lambda: weighted_projective(1, 1, 2),
    "weighted plane with one half point", 2, 1, False, True, c=0,
    tags=("singular",)))
_register(CatalogEntry(
    "wps11112", lambda: weighted_projective(1, 1, 1, 1, 2),
    "weighted 4-space with one half point", 4, 1, False, True, c=0,
    tags=("singular",)))
_register(CatalogEntry(
    "wps11112-blowup", _wps11112_blowup,
    "weighted 4-space with the half point resolved", 4, 2, True, True, c=1,
    tags=("quadric-degenerate",)))


def del_pezzo_surface_names() -> list[str]:
    """The five smooth toric surfaces with ample anticanonical class."""
    return ["p2", "p1xp1", "f1", "dp2", "dp3"]


def del_pezzo_products() -> list[tuple[str, str, Fan]]:
    """All 15 unordered products of two smooth toric del Pezzo surfaces."""
    names_ = del_pezzo_surface_names()
    out = []
    for i, a in enumerate(names_):
        for b in names_[i:]:
            out.append((a, b, fanmod.product(get(a), get(b))))
    return out


# -- text format -------------------------------------------------------------

def parse_fan_text(text: str) -> tuple[str, Fan]:
    """Parse one fan document; raises ValidationError with line numbers."""
    name = None
    dim = None
    rays: list[tuple[int, ...]] = []
    cones: list[tuple[int, ...]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "fan":
            if name is not None:
                raise ValidationError(f"line {ln}: duplicate fan header")
            if len(parts) != 4 or parts[2] != "dim":
                raise ValidationError(
                    f"line {ln}: expected 'fan NAME dim N'"
                )
            name = parts[1]
            try:
                dim = int(parts[3])
            except ValueError:
                raise ValidationError(f"line {ln}: dimension is not an integer")
            if dim < 1:
                raise ValidationError(f"line {ln}: dimension {dim} is not positive")
        elif parts[0] == "ray":
            if dim is None:
                raise ValidationError(f"line {ln}: ray before fan header")
            try:
                v = tuple(int(x) for x in parts[1:])
            except ValueError:
                raise ValidationError(f"line {ln}: ray has a non-integer entry")
            if len(v) != dim:
                raise ValidationError(
                    f"line {ln}: ray has {len(v)} entries, expected {dim}"
                )
            rays.append(v)
        elif parts[0] == "cone":
            if dim is None:
                raise ValidationError(f"line {ln}: cone before fan header")
            try:
                c = tuple(int(x) for x in parts[1:])
            except ValueError:
                raise ValidationError(f"line {ln}: cone has a non-integer entry")
            if len(c) != dim:
                raise ValidationError(
                    f"line {ln}: cone has {len(c)} rays, expected {dim}"
                )
            cones.append(c)
        else:
            raise ValidationError(f"line {ln}: unknown directive {parts[0]!r}")
    if name is None or dim is None:
        raise ValidationError("missing 'fan NAME dim N' header")
    if not rays or not cones:
        raise ValidationError("fan document needs rays and cones")
    return name, fanmod.build_fan(dim, rays, cones, check="full")


def write_fan_text(name: str, fan: Fan) -> str:
    lines = [f"fan {name} dim {fan.dim}"]
    for v in fan.rays:
        lines.append("ray " + " ".join(map(str, v)))
    for c in fan.max_cones:
        lines.append("cone " + " ".join(map(str, c)))
    return "\n".join(lines) + "\n"
