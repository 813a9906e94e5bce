"""Mutated fan files end in a documented exit code, never in a traceback.

Each example takes the text of a small catalog fan, applies a few line
mutations (rays perturbed, dropped, duplicated, zeroed or doubled; cones
pointed out of range, dropped or duplicated) and runs every subcommand that
reads an instance on the result, in-process through cli.run.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from toricmds import catalog, cli

SMALL = [n for n in catalog.names() if catalog.get(n).n_rays <= 8]

RAY_MUTATIONS = ["perturb", "drop", "duplicate", "zero", "double"]
CONE_MUTATIONS = ["out-of-range", "drop", "duplicate"]


def mutate(lines, data):
    """Apply one drawn mutation to a ray or cone line of lines, in place."""
    kind = data.draw(st.sampled_from(["ray", "cone"]))
    idx = [i for i, line in enumerate(lines) if line.startswith(kind + " ")]
    if not idx:
        return
    i = data.draw(st.sampled_from(idx))
    words = lines[i].split()
    head, nums = words[0], [int(x) for x in words[1:]]
    how = data.draw(st.sampled_from(RAY_MUTATIONS if kind == "ray" else CONE_MUTATIONS))
    if how == "drop":
        del lines[i]
        return
    if how == "duplicate":
        lines.insert(i, lines[i])
        return
    k = data.draw(st.integers(0, len(nums) - 1))
    if how == "perturb":
        nums[k] += data.draw(st.sampled_from([-1, 1]))
    elif how == "zero":
        nums = [0] * len(nums)
    elif how == "double":
        nums = [2 * x for x in nums]
    else:  # out-of-range
        n_rays = sum(1 for line in lines if line.startswith("ray "))
        nums[k] = data.draw(st.sampled_from([n_rays, n_rays + 3, -1]))
    lines[i] = " ".join([head, *map(str, nums)])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SMALL), st.data())
def test_mutated_fan_files_exit_with_a_documented_code(name, data):
    lines = catalog.write_fan_text(name, catalog.get(name)).splitlines()
    for _ in range(data.draw(st.integers(1, 3))):
        mutate(lines, data)
    n_rays = sum(1 for line in lines if line.startswith("ray "))
    divisor = data.draw(st.lists(st.integers(-2, 2), min_size=n_rays, max_size=n_rays))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutant.fan")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        commands = [
            ["analyze", path],
            ["chambers", path, "--max", "30"],
            ["mmp", path, "--divisor=" + ",".join(map(str, divisor))],
            ["classify", path, "--audit"],
            ["verify", path],
        ]
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.run(argv)
            assert 0 <= code <= 5, (argv, lines)
