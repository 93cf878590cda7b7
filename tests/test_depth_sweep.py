"""`tools/depth_sweep.py`: its case and sum lines, the HiGHS input
digests it prints under each case, which no hash seed may change, and
its gate for a change that only refutes checks without HiGHS
(`--refines`)."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "depth_sweep.py"
WALL = re.compile(r"\d+\.\d\d s")
# the slowest case a sum line names, which host noise may change
SLOWEST = re.compile(r", slowest .*")


def _masked(out: str) -> str:
    return SLOWEST.sub("", WALL.sub("- s", out))


def _sweep(*cases: str, hash_seed: str = "0", refines: Path | None = None,
           one_flag: bool = False) -> subprocess.Popen:
    """Run the tool on `cases`, each after its own `--case` flag, or all
    after one with `one_flag`."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    args = (["--case", *cases] if one_flag else
            [arg for case in cases for arg in ("--case", case)])
    if refines is not None:
        args += ["--refines", str(refines)]
    return subprocess.Popen(
        [sys.executable, str(SCRIPT), str(ROOT / "src"), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)


def _output(run: subprocess.Popen) -> str:
    out, err = run.communicate(timeout=300)
    assert run.returncode == 0, err
    return out


def test_depth_sweep_reports_one_case_and_its_sum():
    lines = _output(_sweep("direct:4:1:2")).splitlines()
    case, *digests, total = lines
    # rand3reg(4, 1) is K4, whose qubits each sit in three gates
    found = re.fullmatch(r"direct rand3reg\(4, 1\) 2x2: depth (\d+), "
                         r"(\d+) calls, (\d+) discarded, (\d+) witnessed, "
                         r"(\d+) grown, \d+\.\d\d s, schedule [0-9a-f]{64}",
                         case)
    assert found and int(found[1]) >= 3 and int(found[2]) >= 1
    # one digest per solver call, sorted
    assert len(digests) == int(found[2]) and digests == sorted(digests)
    assert all(re.fullmatch(r"  [0-9a-f]{64}", d) for d in digests)
    summed = re.fullmatch(
        rf"cases \(1 cases\): depth {found[1]}, {found[2]} calls, "
        rf"{found[3]} discarded, {found[4]} witnessed, {found[5]} grown, "
        r"(\d+\.\d\d) s, slowest direct rand3reg\(4, 1\) 2x2 (\d+\.\d\d) s",
        total)
    # the one case is the slowest, and its wall is the sum
    assert summed and summed[1] == summed[2]


def test_depth_sweep_does_not_depend_on_the_hash_seed():
    runs = [_sweep("direct:6:2:3", "pac:6:1:4", hash_seed=seed)
            for seed in ("1", "2")]
    outs = [_masked(_output(run)) for run in runs]
    headers = [line for line in outs[0].splitlines()
               if not line.startswith("  ")]
    assert [h.split(":")[0] for h in headers] == [
        "direct rand3reg(6, 2) 3x3", "pac rand3reg(6, 1) 4x4",
        "cases (2 cases)"]
    assert len(outs[0].splitlines()) > len(headers)
    assert outs[0] == outs[1]


def test_several_cases_may_follow_one_flag():
    cases = "direct:6:1:3", "direct:6:2:3"
    outs = [_masked(_output(_sweep(*cases, one_flag=one_flag)))
            for one_flag in (True, False)]
    assert [line.split(":")[0] for line in outs[0].splitlines()
            if not line.startswith("  ")] == [
        "direct rand3reg(6, 1) 3x3", "direct rand3reg(6, 2) 3x3",
        "cases (2 cases)"]
    assert outs[0] == outs[1]


PARENT = """\
direct rand3reg(6, 1) 3x3: depth 5, 3 calls, 1 discarded, 4 witnessed, \
0 grown, 0.12 s, schedule aa
  d1
  d2
  d2
pac rand3reg(12, 1) 8x8: depth 6, 1 calls, 0 discarded, 9 witnessed, \
0 grown, 0.50 s, schedule bb
  d3
cases (2 cases): depth 11, 4 calls, 1 discarded, 13 witnessed, 0 grown, \
0.62 s, slowest pac rand3reg(12, 1) 8x8 0.50 s
"""
CASE = ("direct rand3reg(6, 1) 3x3: depth 5, {calls} calls, {discarded} "
        "discarded, 4 witnessed, 0 grown, {wall} s, schedule aa")


def _tool(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import depth_sweep
    return depth_sweep


def test_read_output_keeps_each_case_and_its_digests(monkeypatch):
    cases = _tool(monkeypatch).read_output(PARENT)
    assert list(cases) == ["direct rand3reg(6, 1) 3x3",
                           "pac rand3reg(12, 1) 8x8"]
    line, digests = cases["direct rand3reg(6, 1) 3x3"]
    assert line.endswith("schedule aa")
    assert digests == {"d1": 1, "d2": 2}
    assert cases["pac rand3reg(12, 1) 8x8"][1] == {"d3": 1}


def test_fewer_calls_on_the_parent_inputs_refine_it(monkeypatch):
    tool = _tool(monkeypatch)
    parent = tool.read_output(PARENT)
    for calls, digests in ((3, ["d1", "d2", "d2"]), (1, ["d2"]), (0, [])):
        line = CASE.format(calls=calls, discarded=4 - calls, wall="9.87")
        assert tool.refines(line, digests, parent) is None


@pytest.mark.parametrize("line,digests,broken", [
    # another schedule, or another depth
    (CASE.format(calls=1, discarded=3, wall="0.12").replace("aa", "cc"),
     ["d1"], "line differs"),
    (CASE.format(calls=1, discarded=3, wall="0.12").replace("depth 5",
                                                             "depth 4"),
     ["d1"], "line differs"),
    # a problem the parent never handed HiGHS, or one it handed it less
    # often
    (CASE.format(calls=1, discarded=3, wall="0.12"), ["d4"], "never solved"),
    (CASE.format(calls=2, discarded=2, wall="0.12"), ["d1", "d1"],
     "never solved"),
    # more calls than the parent made
    (CASE.format(calls=4, discarded=0, wall="0.12"), ["d1", "d2"],
     "the parent made 3"),
    # a case the parent did not run
    (CASE.format(calls=1, discarded=3, wall="0.12").replace("(6, 1)",
                                                             "(6, 2)"),
     ["d1"], "not in the parent"),
], ids=["schedule", "depth", "new-input", "repeated-input", "more-calls",
        "unknown-case"])
def test_what_breaks_the_refinement_gate(monkeypatch, line, digests, broken):
    tool = _tool(monkeypatch)
    assert broken in tool.refines(line, digests, tool.read_output(PARENT))


def test_refines_exits_on_the_first_case_that_breaks_it(tmp_path):
    out = _output(_sweep("direct:4:1:2"))
    same = tmp_path / "same.txt"
    same.write_text(out)
    again = _output(_sweep("direct:4:1:2", refines=same))
    assert _masked(again) == _masked(out)
    # a parent that reached another schedule
    moved = tmp_path / "moved.txt"
    moved.write_text(re.sub(r"schedule [0-9a-f]{64}", "schedule " + "0" * 64,
                            out))
    run = _sweep("direct:4:1:2", "direct:6:2:3", refines=moved)
    stdout, stderr = run.communicate(timeout=300)
    assert run.returncode == 1
    assert "not a refinement: direct rand3reg(4, 1) 2x2" in stderr
    # it stops at the case, before the next one
    assert "rand3reg(6, 2)" not in stdout
