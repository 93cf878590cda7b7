import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "milp_digest.py"


def _digests(hash_seed: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.Popen(
        [sys.executable, str(SCRIPT), str(ROOT / "src"),
         "--case", "direct:6:2:3", "--case", "pac:6:1:4"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)


def test_digests_do_not_depend_on_the_hash_seed():
    runs = [_digests(seed) for seed in ("1", "2")]
    outs = []
    for run in runs:
        out, err = run.communicate(timeout=300)
        assert run.returncode == 0, err
        outs.append(out)
    headers = [line for line in outs[0].splitlines()
               if not line.startswith("  ")]
    assert [h.split(":")[0] for h in headers] == [
        "direct rand3reg(6, 2) 3x3", "pac rand3reg(6, 1) 4x4"]
    assert len(outs[0].splitlines()) > len(headers)
    assert outs[0] == outs[1]
