import pytest

from toricmds import catalog, fan as F, mmp
from toricmds.errors import CapOverflowError, ValidationError

GOLDEN_CONTRACT_TRACE = (
    "strategy first seed -\n"
    "start rays 9 cones 19\n"
    "step 0 contract type (3,0) J- 8 J+ 0,2,4,6 degree -1 kdeg 3 removed 8\n"
    "final outcome semiample rays 8 cones 16\n"
)

GOLDEN_FIBER_TRACE = (
    "strategy first seed -\n"
    "start rays 3 cones 3\n"
    "step 0 stop-fiber type (2,0) J- - J+ 0,1,2 degree -1 kdeg 3\n"
    "final outcome fiber-type rays 3 cones 3\n"
)


def exc_divisor(fan):
    d = [0] * fan.n_rays
    d[8] = 1
    return d


def test_flip_reverses_wall():
    bl = catalog.get("blpt-p1x4")
    small = [e for e in F.extremal_rays(bl) if e.kind == "small"]
    f1 = mmp.flip(bl, small[0])
    assert len(f1.max_cones) == len(bl.max_cones) + 1
    back = [
        e for e in F.extremal_rays(f1)
        if e.cls == tuple(-x for x in small[0].cls)
    ]
    assert len(back) == 1 and back[0].kind == "small"
    assert back[0].jminus == small[0].jplus
    assert back[0].jplus == small[0].jminus
    again = mmp.flip(f1, back[0])
    assert again == bl


def test_flip_rejects_non_small():
    bl = catalog.get("blpt-p1x4")
    div = [e for e in F.extremal_rays(bl) if e.kind == "divisorial"][0]
    with pytest.raises(ValidationError):
        mmp.flip(bl, div)


def test_contract_divisorial():
    bl = catalog.get("blpt-p1x4")
    div = [e for e in F.extremal_rays(bl) if e.kind == "divisorial"][0]
    out, removed = mmp.contract_divisorial(bl, div)
    assert removed == 8
    assert out == catalog.get("p1x4")
    small = [e for e in F.extremal_rays(bl) if e.kind == "small"][0]
    with pytest.raises(ValidationError):
        mmp.contract_divisorial(bl, small)


def test_anticanonical_program_reaches_flip_model():
    bl = catalog.get("blpt-p1x4")
    model = catalog.get("fano-flip-model")
    for strat in ("first", "random", "scaling"):
        res = mmp.run_mori_program(bl, [1] * 9, strategy=strat, seed=7)
        assert res.outcome == "semiample", strat
        assert res.final == model, strat
        assert res.n_flips == 4 and res.n_contractions == 0, strat


def test_exceptional_divisor_contracts_to_line_power():
    bl = catalog.get("blpt-p1x4")
    res = mmp.run_mori_program(bl, exc_divisor(bl), strategy="first")
    assert res.outcome == "semiample"
    assert res.n_flips == 0 and res.n_contractions == 1
    assert res.removed_rays == [8]
    assert res.final == catalog.get("p1x4")


def test_flip_model_program_flips_then_contracts():
    fm = catalog.get("fano-flip-model")
    res = mmp.run_mori_program(fm, exc_divisor(fm), strategy="first")
    assert res.n_flips == 4 and res.n_contractions == 1
    assert res.steps[-1].action == "contract"
    assert res.final == catalog.get("p1x4")


def test_fiber_type_outcome():
    bl = catalog.get("blpt-p1x4")
    d = [-1, 0, 0, 0, 0, 0, 0, 0, 0]
    res = mmp.run_mori_program(bl, d, strategy="first")
    assert res.outcome == "fiber-type"
    assert res.fiber_ray is not None and res.fiber_ray.kind == "fiber"
    assert not mmp.divisor_in_effective_cone(bl, d)


def test_nef_divisor_needs_no_steps():
    p2 = catalog.get("p2")
    res = mmp.run_mori_program(p2, [1, 0, 0], strategy="scaling")
    assert res.outcome == "semiample" and not res.steps
    assert mmp.is_nef(p2, [1, 0, 0])
    assert not mmp.is_nef(catalog.get("blpt-p1x4"),
                          exc_divisor(catalog.get("blpt-p1x4")))


def test_default_ample_is_nef():
    for name in ("p2", "blpt-p1x4", "dp3"):
        fan = catalog.get(name)
        assert mmp.is_nef(fan, mmp.default_ample(fan))


def test_golden_traces():
    bl = catalog.get("blpt-p1x4")
    res = mmp.run_mori_program(bl, exc_divisor(bl), strategy="first")
    assert mmp.trace_text(res) == GOLDEN_CONTRACT_TRACE
    res2 = mmp.run_mori_program(catalog.get("p2"), [-1, 0, 0],
                                strategy="first")
    assert mmp.trace_text(res2) == GOLDEN_FIBER_TRACE


def test_trace_shape_scaling():
    fm = catalog.get("fano-flip-model")
    res = mmp.run_mori_program(fm, exc_divisor(fm), strategy="scaling")
    lines = mmp.trace_text(res).splitlines()
    assert lines[0] == "strategy scaling seed -"
    assert lines[1] == "start rays 9 cones 23"
    assert lines[-1] == "final outcome semiample rays 8 cones 16"
    flips = [l for l in lines if " flip " in l]
    assert len(flips) == 4
    for l in flips:
        assert "type (2,0)" in l and "degree -1" in l and "t 1/2" in l
    assert lines[-2].endswith("removed 8 t 1/4")


def test_trace_determinism_random_seed():
    bl = catalog.get("blpt-p1x4")
    r1 = mmp.run_mori_program(bl, [1] * 9, strategy="random", seed=3)
    r2 = mmp.run_mori_program(bl, [1] * 9, strategy="random", seed=3)
    assert mmp.trace_text(r1) == mmp.trace_text(r2)
    assert mmp.trace_text(r1).startswith("strategy random seed 3\n")


def test_random_seeds_all_terminate_equally():
    fm = catalog.get("fano-flip-model")
    d = exc_divisor(fm)
    for seed in range(6):
        res = mmp.run_mori_program(fm, d, strategy="random", seed=seed)
        assert res.outcome == "semiample"
        assert res.n_flips == 4 and res.n_contractions == 1
        assert res.final == catalog.get("p1x4")


def test_interactive_strategy_uses_chooser():
    fm = catalog.get("fano-flip-model")
    picks = []

    def choose(candidates, fan, divisor):
        picks.append(len(candidates))
        return len(candidates) - 1

    res = mmp.run_mori_program(fm, exc_divisor(fm), strategy="interactive",
                               choose=choose)
    assert res.outcome == "semiample"
    assert picks and picks[0] == 4
    assert res.final == catalog.get("p1x4")


def test_interactive_needs_chooser():
    with pytest.raises(ValidationError):
        mmp.run_mori_program(catalog.get("p2"), [-1, 0, 0],
                             strategy="interactive")


def test_unknown_strategy_rejected():
    with pytest.raises(ValidationError):
        mmp.run_mori_program(catalog.get("p2"), [1, 0, 0], strategy="best")


def test_divisor_length_checked():
    with pytest.raises(ValidationError):
        mmp.run_mori_program(catalog.get("p2"), [1, 0], strategy="first")


def test_step_cap_overflow():
    fm = catalog.get("fano-flip-model")
    with pytest.raises(CapOverflowError):
        mmp.run_mori_program(fm, exc_divisor(fm), strategy="first",
                             max_steps=2)


def test_scaling_rejects_non_ample():
    bl = catalog.get("blpt-p1x4")
    with pytest.raises(ValidationError):
        mmp.run_mori_program(bl, [1] * 9, strategy="scaling",
                             ample=exc_divisor(bl))


def test_effective_membership_brute():
    p2 = catalog.get("p2")
    assert mmp.divisor_in_effective_cone(p2, [1, 2, 0])
    assert not mmp.divisor_in_effective_cone(p2, [-1, 0, 0])
    bl = catalog.get("blpt-p1x4")
    assert mmp.divisor_in_effective_cone(bl, exc_divisor(bl))
