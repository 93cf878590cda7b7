import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "depth_sweep.py"


def test_depth_sweep_reports_one_case_and_its_sum():
    run = subprocess.run(
        [sys.executable, str(SCRIPT), str(ROOT / "src"),
         "--case", "direct:4:1:2"],
        capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    case, total = run.stdout.splitlines()
    # rand3reg(4, 1) is K4, whose qubits each sit in three gates
    found = re.fullmatch(r"direct rand3reg\(4, 1\) 2x2: depth (\d+), "
                         r"(\d+) calls, (\d+) discarded, (\d+) grown, "
                         r"\d+\.\d\d s, schedule [0-9a-f]{64}", case)
    assert found and int(found[1]) >= 3 and int(found[2]) >= 1
    assert total.startswith(f"cases (1 cases): depth {found[1]}, "
                            f"{found[2]} calls, {found[3]} discarded, "
                            f"{found[4]} grown, ")
