"""`tools/depth_sweep.py`: its case and sum lines, and the HiGHS input
digests it prints under each case, which no hash seed may change."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "depth_sweep.py"
WALL = re.compile(r"\d+\.\d\d s")


def _sweep(*cases: str, hash_seed: str = "0") -> subprocess.Popen:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    args = [arg for case in cases for arg in ("--case", case)]
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
    assert total.startswith(f"cases (1 cases): depth {found[1]}, "
                            f"{found[2]} calls, {found[3]} discarded, "
                            f"{found[4]} witnessed, {found[5]} grown, ")


def test_depth_sweep_does_not_depend_on_the_hash_seed():
    runs = [_sweep("direct:6:2:3", "pac:6:1:4", hash_seed=seed)
            for seed in ("1", "2")]
    outs = [WALL.sub("- s", _output(run)) for run in runs]
    headers = [line for line in outs[0].splitlines()
               if not line.startswith("  ")]
    assert [h.split(":")[0] for h in headers] == [
        "direct rand3reg(6, 2) 3x3", "pac rand3reg(6, 1) 4x4",
        "cases (2 cases)"]
    assert len(outs[0].splitlines()) > len(headers)
    assert outs[0] == outs[1]
