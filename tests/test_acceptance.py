"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

The lines are collected in conftest.ACCEPTANCE_LINES and echoed in the
terminal summary after the run. Tests run in definition order; the trace
corpus built by criteria 1 and 2 feeds criterion 8.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import conftest

from toricmds import catalog, cli, fan as F, fano, linalg, mdscones as M, mmp
from toricmds.cones import PolyCone
from toricmds.errors import ValidationError

TRACES: list[mmp.MoriResult] = []


@contextmanager
def report(num, label):
    t0 = time.monotonic()
    note = {}
    try:
        yield note
    except BaseException:
        conftest.ACCEPTANCE_LINES.append(f"criterion {num} FAIL  {label}")
        raise
    dt = time.monotonic() - t0
    detail = note.get("detail", "")
    sep = "; " if detail else ""
    conftest.ACCEPTANCE_LINES.append(
        f"criterion {num} PASS  {label} ({detail}{sep}{dt:.1f}s)"
    )


def build_line_power_blowup():
    p1 = F.build_fan(1, [(1,), (-1,)], [(0,), (1,)])
    x = p1
    for _ in range(3):
        x = F.product(x, p1)
    # basis rays of the product sit at even indices
    return x, F.star_subdivision(x, (0, 2, 4, 6))


def test_criterion_1_example_reproduction():
    with report(1, "worked example reproduction") as note:
        t0 = time.monotonic()
        line_power, bl = build_line_power_blowup()
        d = F.data(bl)
        assert bl.rho == 5
        assert d.is_smooth and d.is_projective and not d.is_fano

        rep = fano.detect_exceptional_loci(bl)
        assert len(rep.lines) == 4 and len(rep.planes) == 0
        exc_cls = d.ray_classes[8]
        for line in rep.lines:
            wall = next(w for w in d.walls if w.shared == line.shared)
            assert wall.anticanonical_degree == -1
            pair = linalg.dot(exc_cls, line.cls)
            assert isinstance(pair, int) and pair == 1

        # flip all four lines
        cur = bl
        for _ in range(4):
            small = [e for e in F.extremal_rays(cur)
                     if e.kind == "small" and e.k_degree < 0]
            cur = mmp.flip(cur, small[0])
        assert not [e for e in F.extremal_rays(cur)
                    if e.kind == "small" and e.k_degree < 0]
        dm = F.data(cur)
        assert cur.rho == 5 and dm.is_smooth and dm.is_fano

        model_rep = fano.detect_exceptional_loci(cur)
        assert len(model_rep.planes) == 10
        d_cls = dm.ray_classes[8]
        in_d = [
            p for p in model_rep.planes
            if linalg.dot(d_cls, p.line_class) == -1
        ]
        assert len(in_d) == 4
        assert all(8 in p.tau for p in in_d)
        assert all(8 not in p.tau
                   for p in model_rep.planes if p not in in_d)

        assert cur == catalog.get("fano-flip-model")
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0, elapsed

        res = mmp.run_mori_program(bl, [1] * 9, strategy="first")
        TRACES.append(res)
        note["detail"] = "4 lines, 4 planes in the divisor"


def test_criterion_2_program_shape_every_strategy():
    with report(2, "non-movable divisor program, every strategy") as note:
        t0 = time.monotonic()
        fm = catalog.get("fano-flip-model")
        line_power = catalog.get("p1x4")
        divisor = [0] * 8 + [1]

        def scripted(candidates, fan, div):
            return (len(candidates) * 3 + 1) % len(candidates)

        runs = [("first", dict()), ("scaling", dict()),
                ("interactive", dict(choose=scripted))]
        runs += [("random", dict(seed=s)) for s in range(5)]
        for strategy, kw in runs:
            res = mmp.run_mori_program(fm, divisor, strategy=strategy, **kw)
            assert res.outcome == "semiample", strategy
            assert res.n_flips == 4 and res.n_contractions == 1, strategy
            flips, last = res.steps[:4], res.steps[4]
            assert all(s.action == "flip" and s.degree < 0 for s in flips)
            assert last.action == "contract" and last.removed_ray == 8
            assert last.kind == "divisorial"
            assert res.final == line_power, strategy
            TRACES.append(res)
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0, elapsed
        note["detail"] = f"{len(runs)} strategies"


def test_criterion_3_outcome_iff_effective():
    with report(3, "outcome equals Eff-membership on random divisors") as note:
        checked = 0
        for name in catalog.names():
            fan = catalog.get(name)
            assert fan.rho <= 8
            rng = random.Random(sum(ord(c) for c in name) * 7919 + 1)
            for k in range(200):
                div = [rng.randint(-3, 3) for _ in range(fan.n_rays)]
                expected = mmp.divisor_in_effective_cone(fan, div)
                for strategy in ("first", "random", "scaling"):
                    res = mmp.run_mori_program(fan, div, strategy=strategy,
                                               seed=k)
                    assert (res.outcome == "semiample") == expected, (
                        name, div, strategy
                    )
                    checked += 1
        note["detail"] = f"{checked} runs over {len(catalog.names())} fans"


def test_criterion_4_quasi_elementary_agreement(atlas_of, contractions_of):
    with report(4, "quasi-elementary conditions agree") as note:
        faces = 0
        for name in catalog.names():
            atlas = atlas_of(name)
            for desc in contractions_of(name):
                if desc.kind != "fiber-type":
                    continue
                qe = M.is_quasi_elementary(atlas, desc)
                assert (qe.condition_iii == qe.condition_iv
                        == qe.condition_v == qe.verdict), (name, desc.sigma)
                faces += 1
        note["detail"] = f"{faces} fiber-type faces, zero disagreements"


def count_projective_fans_brute(fan):
    """Count complete projective simplicial fans on the ray set by searching
    facet-paired collections of full-dimensional simplicial cones."""
    rays = fan.rays
    n, dim = len(rays), fan.dim
    cands = [
        c for c in combinations(range(n), dim)
        if linalg.det([list(rays[i]) for i in c]) != 0
    ]

    def facets(c):
        return [tuple(sorted(set(c) - {i})) for i in c]

    def normal(f):
        return linalg.integer_kernel([list(rays[i]) for i in f], dim)[0]

    def contains_strict(cone, x):
        sol = linalg.solve(
            [[rays[i][k] for i in cone] for k in range(dim)], x
        )
        return sol is not None and all(s > 0 for s in sol)

    p0 = (3, 5, 7)[:dim]
    seeds = [c for c in cands if contains_strict(c, p0)]
    found = set()

    def dfs(chosen, open_facets):
        if not open_facets:
            found.add(frozenset(chosen))
            return
        f, owner = next(iter(sorted(open_facets.items())))
        for c in cands:
            if c == owner or c in chosen or not set(f) <= set(c):
                continue
            nrm = normal(f)
            s1 = linalg.dot(nrm, rays[next(i for i in owner if i not in f)])
            s2 = linalg.dot(nrm, rays[next(i for i in c if i not in f)])
            if s1 == 0 or s2 == 0 or (s1 > 0) == (s2 > 0):
                continue
            new_open = dict(open_facets)
            del new_open[f]
            ok = True
            for g in facets(c):
                if g == f:
                    continue
                if g in new_open:
                    if new_open[g] == c:
                        ok = False
                        break
                    del new_open[g]
                else:
                    new_open[g] = c
            if ok:
                dfs(chosen | {c}, new_open)

    for s in seeds:
        dfs(frozenset([s]), {g: s for g in facets(s)})

    count = 0
    for fs in found:
        cones = tuple(sorted(fs))
        if {i for c in cones for i in c} != set(range(n)):
            continue
        try:
            candidate = F.build_fan(dim, rays, cones, check="full")
        except ValidationError:
            continue
        if F.is_projective(candidate):
            count += 1
    return count


def chamber_facets(cone):
    out = []
    for nrm in cone.proper_facet_normals():
        gens = [g for g in cone.generators if linalg.dot(nrm, g) == 0]
        out.append((nrm, PolyCone.from_generators(cone.ambient_dim, gens)))
    return out


def test_criterion_5_chamber_fan_axioms(atlas_of):
    with report(5, "chamber fans tile the movable cone") as note:
        pairs = 0
        for name in catalog.names():
            atlas = atlas_of(name)
            fan = atlas.fan
            mov = atlas.inventory.mov
            mov_facets = mov.proper_facet_normals()
            cones = [ch.cone for ch in atlas.chambers]
            for ch in atlas.chambers:
                assert ch.cone.dim == fan.rho and ch.cone.is_pointed()
                assert mov.contains_cone(ch.cone), name
                assert ch.cone == F.data(ch.model).nef_cone
                assert ch.cone == PolyCone.from_inequalities(
                    fan.rho, F.data(ch.model).wall_classes
                ), name
            # fan axioms: pairwise intersections are mutual faces
            for i, ci in enumerate(cones):
                for cj in cones[i + 1:]:
                    inter = ci.intersect(cj)
                    assert ci.is_face(inter) and cj.is_face(inter), name
                    pairs += 1
            # closedness: every chamber facet lies on the boundary of the
            # movable cone or is shared with exactly one other chamber
            facet_owners: dict[tuple, list[int]] = {}
            boundary = 0
            for idx, cone in enumerate(cones):
                for nrm, facet in chamber_facets(cone):
                    probe = facet.relative_interior_point()
                    if any(linalg.dot(m, probe) == 0 for m in mov_facets):
                        boundary += 1
                        continue
                    facet_owners.setdefault(facet.generators, []).append(idx)
            for key, owners in facet_owners.items():
                assert len(owners) == 2, (name, key, owners)
            # sampled coverage: points of Mov land in a chamber, generic
            # points in exactly one
            rng = random.Random(99)
            gens = [list(g) for g in mov.generators]
            for _ in range(60):
                coeffs = [Fraction(rng.randint(1, 40)) for _ in gens]
                p = [
                    sum(c * g[k] for c, g in zip(coeffs, gens))
                    for k in range(fan.rho)
                ]
                holders = [c for c in cones if c.contains_point(p)]
                assert holders, (name, p)
                strict = [
                    c for c in cones
                    if all(linalg.dot(nrm, p) > 0
                           for nrm in c.proper_facet_normals())
                ]
                assert len(strict) <= 1, (name, p)

        t0 = time.monotonic()
        small = catalog.get("blpt-p1cubed")
        brute = count_projective_fans_brute(small)
        atlas3 = atlas_of("blpt-p1cubed")
        assert brute == len(atlas3.chambers) == 8
        oracle_time = time.monotonic() - t0
        assert oracle_time < 60.0, oracle_time
        note["detail"] = (
            f"{pairs} cone pairs; brute-force oracle {brute} fans"
        )


def test_criterion_6_c_product_formula():
    with report(6, "c invariant product formula on del Pezzo pairs") as note:
        t0 = time.monotonic()
        prods = catalog.del_pezzo_products()
        for n1, n2, prod in prods:
            want = max(catalog.get(n1).rho - 1, catalog.get(n2).rho - 1)
            c, _ = fano.c_invariant(prod)
            assert c == want, (n1, n2, c, want)
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0, elapsed
        note["detail"] = f"{len(prods)} products"


def test_criterion_7_bound_audit_with_coverage(capsys):
    with report(7, "catalog-wide bound audit") as note:
        code = cli.run(["verify", "--all-catalog"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "alarms: none" in out
        assert "FALSIFIED" not in out
        headers = [l for l in out.splitlines() if l.startswith("== ")]
        assert len(headers) == 7
        skip_line = next(l for l in out.splitlines() if l.startswith("skipped"))
        assert len(skip_line.split(": ")[1].split()) == 16
        coverage = {}
        in_section = False
        for line in out.splitlines():
            if line.startswith("hypothesis coverage"):
                in_section = True
                continue
            if in_section and line.startswith("  "):
                key, _, val = line.strip().rpartition(": ")
                coverage[key] = int(val)
            elif in_section:
                in_section = False
        assert coverage == {
            "elementary-fiber-type": 7,
            "nonregular-quasi-elementary": 1,
            "nonregular-curve-target": 0,
            "nonregular-surface-target": 1,
            "regular-surface-target": 2,
            "movable-effective-extremal": 6,
            "elementary-threefold-target": 4,
            "low-divisor-codimension": 5,
            "high-divisor-codimension": 0,
            "small-ray-codimension": 1,
        }
        note["detail"] = "7 audited instances, zero alarms"


def test_criterion_8_duality_and_flip_identities(atlas_of):
    with report(8, "dual involution and flip-transform identities") as note:
        # dual involution, recomputed from scratch on every constructed cone
        cones_checked = 0
        for name in catalog.names():
            inv = M.cone_inventory(catalog.get(name))
            for cone in (inv.nef, inv.mov, inv.eff, inv.ne, inv.me):
                redual = PolyCone.from_generators(
                    cone.ambient_dim, cone.facet_normals
                )
                assert redual == cone.dual(), name
                assert PolyCone.from_generators(
                    redual.ambient_dim, redual.facet_normals
                ) == cone, name
                cones_checked += 1
        for name in ("blpt-p1cubed", "blpt-p1x4"):
            for ch in atlas_of(name).chambers:
                cone = ch.cone
                redual = PolyCone.from_generators(
                    cone.ambient_dim, cone.facet_normals
                )
                assert redual == cone.dual(), name
                cones_checked += 1

        # flip identities over the trace corpus
        corpus = list(TRACES)
        for fan_name, count in (("blpt-p1x4", 25), ("fano-flip-model", 25),
                                ("blpt-p1cubed", 15), ("bl2pts-p3", 15)):
            fan = catalog.get(fan_name)
            rng = random.Random(sum(ord(c) for c in fan_name))
            for k in range(count):
                div = [rng.randint(-3, 3) for _ in range(fan.n_rays)]
                corpus.append(
                    mmp.run_mori_program(fan, div, strategy="random", seed=k)
                )

        def leading_flips(res):
            fans, rays = [res.start], []
            for st in res.steps:
                if st.action != "flip":
                    break
                ray = next(
                    e for e in F.extremal_rays(fans[-1])
                    if e.jminus == st.jminus and e.jplus == st.jplus
                )
                rays.append(ray)
                fans.append(mmp.flip(fans[-1], ray))
            return fans, rays

        flips = 0
        drops = 0
        for res in corpus:
            if res.n_flips == 0:
                continue
            if all(s.action == "flip" for s in res.steps):
                fans, rays = fano.rebuild_flip_chain(res)
            else:
                fans, rays = leading_flips(res)
            for i, ray in enumerate(rays):
                down, up = fans[i], fans[i + 1]
                partner = [
                    r for r in F.extremal_rays(up)
                    if r.jminus == ray.jplus and r.jplus == ray.jminus
                ]
                assert len(partner) == 1
                mate = partner[0]
                # D.C = -D~.l for every ray divisor D at once
                assert mate.cls == tuple(-x for x in ray.cls)
                assert mate.pairing == tuple(-x for x in ray.pairing)
                assert mate.k_degree == -ray.k_degree
                flips += 1
                for j in range(down.n_rays):
                    delta = fano.n1_dimension(down, j) \
                        - fano.n1_dimension(up, j)
                    assert delta in (-1, 0, 1)
                    if delta == -1:
                        drops += 1
                        assert ray.pairing[j] > 0 and mate.pairing[j] < 0
                    elif delta == 1:
                        drops += 1
                        assert ray.pairing[j] < 0 and mate.pairing[j] > 0
        assert flips > 0 and drops > 0
        note["detail"] = (
            f"{cones_checked} cones, {len(corpus)} traces, {flips} flips"
        )


def test_criterion_9_determinism(capsys):
    with report(9, "byte-identical traces and reports") as note:
        fm = catalog.get("fano-flip-model")
        texts = set()
        for _ in range(2):
            res = mmp.run_mori_program(fm, [1, -2, 0, 3, -1, 2, 0, 1, -1],
                                       strategy="random", seed=41)
            texts.add(mmp.trace_text(res).encode())
        assert len(texts) == 1

        outs = set()
        for _ in range(2):
            code = cli.run(["verify", "catalog:p2xp2"])
            assert code == 0
            outs.add(capsys.readouterr().out.encode())
        assert len(outs) == 1

        chams = set()
        for _ in range(2):
            code = cli.run(["chambers", "catalog:blpt-p1cubed", "--json"])
            assert code == 0
            chams.add(capsys.readouterr().out.encode())
        assert len(chams) == 1

        mmps = set()
        for _ in range(2):
            code = cli.run([
                "mmp", "catalog:blpt-p1x4",
                "--divisor=1,1,1,1,1,1,1,1,1", "--strategy", "random:9",
                "--json",
            ])
            assert code == 0
            mmps.add(capsys.readouterr().out.encode())
        assert len(mmps) == 1
        note["detail"] = "trace, verify, chambers, mmp outputs"
