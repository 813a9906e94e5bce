import io
import json

import pytest

from toricmds import catalog, cli, fan as F, fano


def run_ok(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return out


def test_analyze_text(capsys):
    out = run_ok(capsys, ["analyze", "catalog:p2"])
    assert "rho 1" in out
    assert "smooth True" in out and "fano True" in out


def test_analyze_json(capsys):
    out = run_ok(capsys, ["analyze", "catalog:dp3", "--json"])
    payload = json.loads(out)
    assert payload["rho"] == 4
    assert payload["smooth"] and payload["fano"]


def test_list_catalog(capsys):
    out = run_ok(capsys, ["list-catalog"])
    for name in catalog.names():
        assert name in out
    payload = json.loads(run_ok(capsys, ["list-catalog", "--json"]))
    assert len(payload["catalog"]) == len(catalog.names())


def test_chambers_text_and_json(capsys):
    out = run_ok(capsys, ["chambers", "catalog:p1xp1"])
    assert "chambers 1" in out
    payload = json.loads(run_ok(capsys, ["chambers", "catalog:p1xp1",
                                         "--json"]))
    assert payload["chambers"] == 1
    assert payload["rows"][0]["index"] == 0


def test_chambers_dot_file(capsys, tmp_path):
    dot = tmp_path / "graph.dot"
    run_ok(capsys, ["chambers", "catalog:blpt-p1cubed", "--dot", str(dot)])
    text = dot.read_text()
    assert text.startswith("graph ") or text.startswith("digraph ")
    assert "--" in text or "->" in text


def test_chambers_cap_exit_code(capsys):
    code = cli.run(["chambers", "catalog:blpt-p1cubed", "--max", "2"])
    err = capsys.readouterr().err
    assert code == 4
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_chambers_cap_below_one_rejected(capsys, cap):
    # a cap below 1 leaves no room for the nef chamber itself
    assert cli.run(["chambers", "catalog:blpt-p1cubed", f"--max={cap}"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_mmp_semiample_exit_zero(capsys, tmp_path):
    trace = tmp_path / "run.trace"
    out = run_ok(capsys, [
        "mmp", "catalog:fano-flip-model",
        "--divisor=0,0,0,0,0,0,0,0,1", "--trace", str(trace),
    ])
    assert "final outcome semiample" in out
    assert trace.read_text() == out


def test_mmp_fiber_type_exit_five(capsys):
    code = cli.run(["mmp", "catalog:p2", "--divisor=-1,0,0"])
    out = capsys.readouterr().out
    assert code == 5
    assert "final outcome fiber-type" in out


def test_mmp_json(capsys):
    out = run_ok(capsys, [
        "mmp", "catalog:fano-flip-model",
        "--divisor=0,0,0,0,0,0,0,0,1", "--json",
    ])
    payload = json.loads(out)
    assert payload["outcome"] == "semiample"
    assert payload["flips"] == 4 and payload["contractions"] == 1
    assert payload["removed_rays"] == [8]


def test_mmp_random_seed_strategy(capsys):
    out = run_ok(capsys, [
        "mmp", "catalog:blpt-p3", "--divisor=0,0,0,0,1",
        "--strategy", "random:11",
    ])
    assert out.startswith("strategy random seed 11")


def test_mmp_interactive_reads_stdin(capsys, monkeypatch):
    feeds = iter(["0", "0", "0", "0", "0"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(feeds))
    out = run_ok(capsys, [
        "mmp", "catalog:fano-flip-model",
        "--divisor=0,0,0,0,0,0,0,0,1", "--strategy", "interactive",
    ])
    assert "final outcome semiample" in out
    # stdin at end of file before a choice is a usage error
    monkeypatch.undo()
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    code = cli.run([
        "mmp", "catalog:blpt-p1x4",
        "--divisor=0,0,0,0,0,0,0,0,1", "--strategy", "interactive",
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert "error: input ended" in err and "Traceback" not in err
    # the dialogue goes to stderr, so --json stdout stays one JSON document
    monkeypatch.setattr("sys.stdin", io.StringIO("0\n"))
    code = cli.run([
        "mmp", "catalog:blpt-p1x4",
        "--divisor=0,0,0,0,0,0,0,0,1", "--strategy", "interactive", "--json",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["outcome"] == "semiample"
    assert "candidate rays:" in captured.err


@pytest.mark.parametrize("argv", [
    ["chambers", "catalog:p1xp1", "--dot"],
    ["mmp", "catalog:p2", "--divisor=1,0,0", "--trace"],
])
def test_unwritable_output_file_exit_two(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "out.txt"
    assert cli.run(argv + [str(path)]) == 2
    err = capsys.readouterr().err
    assert "error: cannot write output file" in err and str(path) in err
    assert "Traceback" not in err


def test_mmp_divisor_length_error(capsys):
    code = cli.run(["mmp", "catalog:p2", "--divisor=1,2"])
    capsys.readouterr()
    assert code == 2


def test_mmp_fraction_divisor(capsys):
    out = run_ok(capsys, ["mmp", "catalog:p2", "--divisor=1/2,0,0"])
    assert "final outcome semiample" in out


def test_usage_error_exit_one(capsys):
    assert cli.run(["mmp", "catalog:p2"]) == 1
    capsys.readouterr()
    assert cli.run(["no-such-command"]) == 1
    capsys.readouterr()
    # a bad strategy is engine validation, not argparse usage
    assert cli.run(["mmp", "catalog:p2", "--divisor=1,0,0",
                    "--strategy", "bogus"]) == 2
    capsys.readouterr()


def test_unknown_instance_exit_two(capsys):
    assert cli.run(["analyze", "catalog:nope"]) == 2
    capsys.readouterr()
    assert cli.run(["analyze", "missing-file"]) == 2
    capsys.readouterr()


def test_unreadable_instance_file_exit_two(capsys, tmp_path, monkeypatch):
    bad = tmp_path / "latin1.fan"
    bad.write_bytes("fan caf\xe9 dim 1\n".encode("latin-1"))
    assert cli.run(["analyze", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "not UTF-8 text" in err and str(bad) in err
    assert cli.run(["analyze", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "cannot read instance file" in err and str(tmp_path) in err
    # the same wrapping applies to files found under TORICMDS_CATALOG_DIR
    monkeypatch.setenv("TORICMDS_CATALOG_DIR", str(tmp_path))
    assert cli.run(["analyze", "latin1"]) == 2
    assert "not UTF-8 text" in capsys.readouterr().err


def test_instance_from_file(capsys, tmp_path):
    path = tmp_path / "square.fan"
    path.write_text(catalog.write_fan_text("square",
                                           catalog.get("p1xp1")))
    out = run_ok(capsys, ["analyze", str(path)])
    assert "rho 2" in out


@pytest.mark.parametrize("rays, cones", [
    # walls paired, but two cones lie on the same side of ray 4
    ([(-3, -2), (-3, 1), (0, -1), (1, 0), (2, -3)],
     [(0, 1), (0, 4), (1, 3), (2, 3), (2, 4)]),
    # pentagram: walls paired on opposite sides, the cones wind twice
    ([(1, 0), (-4, 3), (1, -3), (1, 3), (-4, -3)],
     [(i, (i + 1) % 5) for i in range(5)]),
])
def test_overlapping_fan_file_exit_two(capsys, tmp_path, rays, cones):
    path = tmp_path / "overlap.fan"
    path.write_text("fan overlap dim 2\n"
                    + "".join(f"ray {x} {y}\n" for x, y in rays)
                    + "".join(f"cone {a} {b}\n" for a, b in cones))
    assert cli.run(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.strip()


# The cone over the non-regular "mother of all examples" triangulation,
# closed by one ray below: a complete simplicial fan with no ample class.
NON_PROJECTIVE_FAN = (
    "fan mother dim 3\n"
    + "".join(f"ray {x} {y} {z}\n" for x, y, z in [
        (-18, -12, 1), (18, -12, 1), (0, 24, 1), (-6, -4, 1), (6, -4, 1),
        (0, 8, 1), (0, 0, -1),
    ])
    + "".join(f"cone {a} {b} {c}\n" for a, b, c in [
        (0, 1, 3), (0, 2, 5), (0, 3, 5), (1, 2, 4), (1, 3, 4), (2, 4, 5),
        (3, 4, 5), (6, 0, 1), (6, 1, 2), (6, 0, 2),
    ])
)


def test_non_projective_fan(capsys, tmp_path):
    path = tmp_path / "mother.fan"
    path.write_text(NON_PROJECTIVE_FAN)
    _, fan = catalog.parse_fan_text(NON_PROJECTIVE_FAN)
    assert F.data(fan).is_projective is False
    assert F.data(fan).ample_class is None
    for argv in (
        ["analyze", str(path)],
        ["analyze", str(path), "--json"],
        ["chambers", str(path)],
        ["classify", str(path)],
        ["mmp", str(path), "--divisor=1,0,0,0,0,0,0"],
    ):
        assert cli.run(argv) == 2, argv
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err, argv
    out = run_ok(capsys, ["verify", str(path)])
    assert "skipped (not smooth Fano 4-folds): mother" in out


def test_instance_from_env_dir(capsys, tmp_path, monkeypatch):
    (tmp_path / "mine.fan").write_text(
        catalog.write_fan_text("mine", catalog.get("p2"))
    )
    monkeypatch.setenv("TORICMDS_CATALOG_DIR", str(tmp_path))
    out = run_ok(capsys, ["analyze", "mine"])
    assert "rho 1" in out


def test_classify_table(capsys):
    out = run_ok(capsys, ["classify", "catalog:fano-flip-model"])
    assert "skipped (rho < 6; rerun with --audit)" in out
    out = run_ok(capsys, ["classify", "catalog:fano-flip-model", "--audit"])
    assert "(3,0)^P3" in out


def test_classify_json(capsys):
    out = run_ok(capsys, ["classify", "catalog:blpt-p1x4", "--json"])
    payload = json.loads(out)
    rays = sorted(row["ray"] for row in payload["divisors"]
                  if not row["movable"])
    assert rays == [0, 2, 4, 6, 8]


def test_verify_single_instance(capsys):
    out = run_ok(capsys, ["verify", "catalog:p1x4"])
    assert "alarms: none" in out


def test_verify_skips_non_fano_fourfold(capsys):
    out = run_ok(capsys, ["verify", "catalog:p2"])
    assert "skipped" in out


def test_verify_requires_instance_or_flag(capsys):
    assert cli.run(["verify"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("instance", ["catalog:p1x4", "catalog:nosuch"])
def test_verify_rejects_instance_with_all_catalog(capsys, instance):
    assert cli.run(["verify", instance, "--all-catalog"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_verify_alarm_exit_three(capsys, monkeypatch):
    monkeypatch.setitem(fano.BOUND_LIMITS, "elementary-fiber-type", 0)
    code = cli.run(["verify", "catalog:p1x4"])
    out = capsys.readouterr().out
    assert code == 3
    assert "FALSIFIED" in out


def test_output_determinism(capsys):
    a = run_ok(capsys, ["mmp", "catalog:blpt-p1x4",
                        "--divisor=1,1,1,1,1,1,1,1,1",
                        "--strategy", "random:5"])
    b = run_ok(capsys, ["mmp", "catalog:blpt-p1x4",
                        "--divisor=1,1,1,1,1,1,1,1,1",
                        "--strategy", "random:5"])
    assert a == b
    va = run_ok(capsys, ["verify", "catalog:p2xp2"])
    vb = run_ok(capsys, ["verify", "catalog:p2xp2"])
    assert va == vb
