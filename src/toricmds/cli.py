"""Command line interface.

Commands: analyze, chambers, mmp, classify, verify, list-catalog. Instances
are either ``catalog:NAME`` entries or fan files in the text format of
catalog.parse_fan_text; bare names are also looked up as ``NAME.fan`` inside
the directory named by the TORICMDS_CATALOG_DIR environment variable.

Exit codes: 0 success, 1 usage, 2 validation failure, 3 falsification
alarm, 4 cap overflow, 5 fiber-type outcome from the mmp command, 141
(128 + SIGPIPE) when stdout is closed before the output is written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import catalog as catalogmod
from . import fan as fanmod
from . import fano as fanomod
from . import mdscones
from . import mmp
from .errors import FalsificationAlarm, ToricError, UsageError, ValidationError

EXIT_FIBER_TYPE = 5
EXIT_BROKEN_PIPE = 141


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures on exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def load_instance(ref: str) -> tuple[str, fanmod.Fan]:
    """Resolve an instance argument to a named fan."""
    if ref.startswith("catalog:"):
        name = ref[len("catalog:"):]
        return name, catalogmod.get(name)
    if os.path.exists(ref):
        return _read_instance_file(ref)
    cat_dir = os.environ.get("TORICMDS_CATALOG_DIR")
    if cat_dir:
        candidate = os.path.join(cat_dir, ref + ".fan")
        if os.path.exists(candidate):
            return _read_instance_file(candidate)
    raise ValidationError(
        f"cannot resolve instance {ref!r}: not a catalog:NAME, not a file, "
        "and not found under TORICMDS_CATALOG_DIR"
    )


def _read_instance_file(path: str) -> tuple[str, fanmod.Fan]:
    """Parse a fan file; an unreadable or non-UTF-8 file is bad input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"instance file {path!r} is not UTF-8 text") from exc
    except OSError as exc:
        raise ValidationError(
            f"cannot read instance file {path!r}: {exc.strerror or exc}"
        ) from exc
    return catalogmod.parse_fan_text(text)


def _write_output_file(path: str, text: str) -> None:
    """Write a --dot or --trace file; an unwritable path is bad input."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(
            f"cannot write output file {path!r}: {exc.strerror or exc}"
        ) from exc


def _parse_divisor(text: str, n_rays: int) -> tuple:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != n_rays:
        raise ValidationError(
            f"divisor needs {n_rays} coefficients, got {len(parts)}"
        )
    out = []
    for p in parts:
        try:
            f = Fraction(p)
        except (ValueError, ZeroDivisionError):
            raise ValidationError(f"bad divisor coefficient {p!r}")
        out.append(int(f) if f.denominator == 1 else f)
    return tuple(out)


def _emit(payload: dict, as_json: bool, lines) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, default=str))
    else:
        for line in lines:
            print(line)


def cmd_analyze(args) -> int:
    name, fan = load_instance(args.instance)
    dd = fanmod.data(fan)
    inv = mdscones.cone_inventory(fan)
    rays = fanmod.extremal_rays(fan)
    kinds = {}
    for r in rays:
        kinds[r.kind] = kinds.get(r.kind, 0) + 1
    payload = {
        "name": name,
        "dim": fan.dim,
        "rays": fan.n_rays,
        "max_cones": len(fan.max_cones),
        "rho": fan.rho,
        "smooth": dd.is_smooth,
        "projective": dd.is_projective,
        "fano": dd.is_fano,
        "cone_dims": {
            "nef": inv.nef.dim,
            "mov": inv.mov.dim,
            "eff": inv.eff.dim,
            "ne": inv.ne.dim,
            "me": inv.me.dim,
        },
        "extremal_rays": kinds,
    }
    c, witness = fanomod.c_invariant(fan)
    payload["c"] = c
    payload["c_witness_ray"] = witness
    lines = [
        f"name {name}",
        f"dim {fan.dim} rays {fan.n_rays} cones {len(fan.max_cones)} "
        f"rho {fan.rho}",
        "smooth {} projective {} fano {}".format(
            dd.is_smooth, dd.is_projective, dd.is_fano
        ),
        "cone dims nef {nef} mov {mov} eff {eff} ne {ne} me {me}".format(
            **payload["cone_dims"]
        ),
        "extremal rays " + (
            " ".join(f"{k} {v}" for k, v in sorted(kinds.items())) or "-"
        ),
    ]
    lines.append(f"c {c} (ray {witness})")
    _emit(payload, args.json, lines)
    return 0


def cmd_chambers(args) -> int:
    name, fan = load_instance(args.instance)
    atlas = mdscones.chamber_atlas(fan, cap=args.max)
    rows = []
    for ch in atlas.chambers:
        rows.append({
            "index": ch.index,
            "fano": fanmod.is_fano(ch.model),
            "facets": len(ch.cone.proper_facet_normals()),
            "generators": [list(g) for g in ch.cone.generators],
        })
    payload = {
        "name": name,
        "chambers": len(atlas.chambers),
        "base_chamber": atlas.base_chamber,
        "adjacency": [[a.i, a.j] for a in atlas.adjacency],
        "rows": rows,
    }
    lines = [f"name {name}", f"chambers {len(atlas.chambers)}"]
    for r in rows:
        lines.append(
            "chamber {index} fano {fano} facets {facets}".format(**r)
        )
    lines.append(
        "adjacent pairs " + " ".join(f"{a.i}-{a.j}" for a in atlas.adjacency)
    )
    _emit(payload, args.json, lines)
    if args.dot:
        _write_output_file(args.dot, chamber_graph_dot(name, atlas))
    return 0


def chamber_graph_dot(name: str, atlas: mdscones.ChamberAtlas) -> str:
    """Chamber adjacency as a DOT graph; Fano chambers are drawn filled."""
    lines = [f'graph "{name}" {{']
    for ch in atlas.chambers:
        style = ' style=filled' if fanmod.is_fano(ch.model) else ""
        lines.append(f'  c{ch.index} [label="{ch.index}"{style}];')
    for a in atlas.adjacency:
        lines.append(f"  c{a.i} -- c{a.j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _interactive_chooser(candidates, fan, divisor) -> int:
    # the dialogue goes to stderr, so stdout holds only the report
    print("candidate rays:", file=sys.stderr)
    for k, r in enumerate(candidates):
        print(
            f"  [{k}] kind {r.kind} type ({r.exc_dim},{r.image_dim}) "
            f"J- {list(r.jminus)} J+ {list(r.jplus)}",
            file=sys.stderr,
        )
    while True:
        print(f"choose 0..{len(candidates) - 1}: ", end="", file=sys.stderr,
              flush=True)
        try:
            raw = input().strip()
        except EOFError:
            raise UsageError("input ended before a candidate ray was chosen") from None
        try:
            k = int(raw)
        except ValueError:
            print(f"not an index: {raw!r}", file=sys.stderr)
            continue
        if 0 <= k < len(candidates):
            return k
        print("out of range", file=sys.stderr)


def cmd_mmp(args) -> int:
    name, fan = load_instance(args.instance)
    divisor = _parse_divisor(args.divisor, fan.n_rays)
    strategy = args.strategy
    seed = 0
    if strategy.startswith("random:"):
        try:
            seed = int(strategy.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad random seed in {strategy!r}")
        strategy = "random"
    choose = _interactive_chooser if strategy == "interactive" else None
    result = mmp.run_mori_program(
        fan, divisor, strategy=strategy, seed=seed, choose=choose
    )
    text = mmp.trace_text(result)
    if args.json:
        payload = {
            "name": name,
            "strategy": result.strategy,
            "seed": result.seed,
            "outcome": result.outcome,
            "flips": result.n_flips,
            "contractions": result.n_contractions,
            "removed_rays": list(result.removed_rays),
            "trace": text,
        }
        print(json.dumps(payload, indent=2, default=str))
    else:
        sys.stdout.write(text)
    if args.trace:
        _write_output_file(args.trace, text)
    return 0 if result.outcome == "semiample" else EXIT_FIBER_TYPE


def cmd_classify(args) -> int:
    name, fan = load_instance(args.instance)
    profiles = fanomod.divisor_profiles(fan)
    nonmovable = {j for j, _ in mdscones.nonmovable_prime_divisors(fan)}
    can_type = fanomod.is_smooth_fano_fourfold(fan)
    rows = []
    for p in profiles:
        row = {
            "ray": p.ray,
            "n1_dim": p.n1_dim,
            "codim": p.codim,
            "movable": p.movable,
            "nonmovable_extremal": p.ray in nonmovable,
        }
        if can_type and p.ray in nonmovable:
            if fan.rho < 6 and not args.audit:
                row["type"] = "skipped (rho < 6; rerun with --audit)"
            else:
                res = fanomod.classify_nonmovable_divisor(
                    fan, p.ray, audit_mode=args.audit
                )
                row["type"] = res.tag
                row["flips"] = res.flips
                row["pattern"] = str(res.relation_pattern)
                row["target_fano"] = res.target_fano
                if res.notes:
                    row["notes"] = "; ".join(res.notes)
        rows.append(row)
    lines = [f"name {name}", "ray n1 codim movable type"]
    for r in rows:
        tag = r.get("type", "-")
        extra = ""
        if "flips" in r:
            extra = f" flips {r['flips']} pattern {r['pattern']}"
        lines.append(
            f"{r['ray']} {r['n1_dim']} {r['codim']} "
            f"{'yes' if r['movable'] else 'no'} {tag}{extra}"
        )
    _emit({"name": name, "divisors": rows}, args.json, lines)
    return 0


def cmd_verify(args) -> int:
    if args.all_catalog == bool(args.instance):
        raise UsageError("verify needs either an instance or --all-catalog")
    if args.all_catalog:
        targets = [(name, catalogmod.get(name)) for name in catalogmod.names()]
    else:
        targets = [load_instance(args.instance)]
    reports = {}
    skipped = []
    for name, fan in targets:
        if fanomod.is_smooth_fano_fourfold(fan):
            reports[name] = fanomod.audit_bounds(fan)
        else:
            skipped.append(name)
    coverage: dict[str, int] = {}
    alarms = []
    for name, rep in reports.items():
        for rec in rep.records:
            if rec.hypothesis_holds:
                coverage[rec.name] = coverage.get(rec.name, 0) + 1
        for a in rep.alarms:
            alarms.append(f"{name}: {a}")
    lines = []
    for name, rep in reports.items():
        lines.append(f"== {name} ==")
        lines.append(rep.to_text())
    if skipped:
        lines.append("skipped (not smooth Fano 4-folds): " + " ".join(skipped))
    lines.append("hypothesis coverage across audited instances:")
    seen_names = []
    for rep in reports.values():
        for rec in rep.records:
            if rec.name not in seen_names:
                seen_names.append(rec.name)
    for rec_name in seen_names:
        lines.append(f"  {rec_name}: {coverage.get(rec_name, 0)}")
    lines.append(
        "alarms: " + (" | ".join(alarms) if alarms else "none")
    )
    payload = {
        "audited": {
            name: {
                "rho": rep.rho,
                "c": rep.c_value,
                "records": [
                    {
                        "name": r.name,
                        "hypothesis": r.hypothesis_holds,
                        "conclusion": r.conclusion_holds,
                        "details": r.details,
                    }
                    for r in rep.records
                ],
            }
            for name, rep in reports.items()
        },
        "skipped": skipped,
        "coverage": coverage,
        "alarms": alarms,
    }
    _emit(payload, args.json, lines)
    if alarms:
        raise FalsificationAlarm("; ".join(alarms))
    return 0


def cmd_list_catalog(args) -> int:
    rows = []
    for name in catalogmod.names():
        e = catalogmod.CATALOG[name]
        rows.append({
            "name": e.name,
            "dim": e.dim,
            "rho": e.rho,
            "smooth": e.smooth,
            "fano": e.fano,
            "c": e.c,
            "description": e.description,
        })
    lines = ["name dim rho smooth fano c description"]
    for r in rows:
        lines.append(
            "{name} {dim} {rho} {smooth} {fano} {c} {description}".format(**r)
        )
    _emit({"catalog": rows}, args.json, lines)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="toricmds", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="cones, flags and invariants of a fan")
    p.add_argument("instance")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("chambers", help="Mori chamber atlas")
    p.add_argument("instance")
    p.add_argument("--max", type=int, default=mdscones.MAX_CHAMBERS)
    p.add_argument("--dot", metavar="FILE")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_chambers)

    p = sub.add_parser("mmp", help="run a Mori program for a divisor")
    p.add_argument("instance")
    p.add_argument("--divisor", required=True,
                   help="coefficients over the rays, comma or space separated")
    p.add_argument("--strategy", default="first",
                   help="first | random:SEED | scaling | interactive")
    p.add_argument("--trace", metavar="FILE")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_mmp)

    p = sub.add_parser("classify", help="divisor profiles and non-movable types")
    p.add_argument("instance")
    p.add_argument("--audit", action="store_true",
                   help="drop the Picard-number hypothesis of the classifier")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="bound audit with falsification alarms")
    p.add_argument("instance", nargs="?")
    p.add_argument("--all-catalog", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("list-catalog", help="the built-in instances")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_list_catalog)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ToricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def main() -> int:
    try:
        code = run()
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone. Point stdout at devnull, so the interpreter's
        # final flush of what is left in its buffer cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
