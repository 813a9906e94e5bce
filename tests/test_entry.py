"""The package and its command line, each started in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from toricmds import cli

SRC = str(Path(__file__).resolve().parents[1] / "src")


def fresh(args, env=None, **kwargs):
    """Run the interpreter on args with the package's source on its path."""
    env = dict(os.environ if env is None else env, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], env=env, timeout=60, **kwargs)


def test_import_loads_no_dataclass_machinery():
    # -S keeps site-packages hooks from loading modules of their own
    proc = fresh(
        ["-S", "-c", "import sys, toricmds; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout == "[]\n"


def test_main_module_prints_what_run_prints(capsys):
    assert cli.run(["list-catalog"]) == 0
    expected = capsys.readouterr().out
    proc = fresh(["-m", "toricmds", "list-catalog"], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == expected


@pytest.mark.parametrize("unbuffered", [True, False])
def test_closed_stdout_exits_without_traceback(unbuffered):
    # Unbuffered, the first print fails; buffered, the flush after the
    # command does.
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = fresh(["-m", "toricmds", "list-catalog"], env=env,
                     stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
