import itertools

import pytest

from atomc.arrays import ArraySpec
from atomc.circuits import Circuit, serialize_circuit
from atomc.cli import main
from atomc.schedule import schedule_from_json
from atomc.verifier import verify

K4 = Circuit(4, tuple(itertools.combinations(range(4), 2)), name="k4")


def test_cli_writes_a_verified_schedule(tmp_path):
    src = tmp_path / "k4.txt"
    src.write_text(serialize_circuit(K4))
    out = tmp_path / "k4.json"
    assert main([str(src), "--array", "2", "-o", str(out)]) == 0
    schedule, meta = schedule_from_json(out.read_text())
    assert meta["circuit"]["sha256"] == K4.digest()
    assert meta["array"] == 2 and meta["mode"] == "direct"
    assert verify(schedule, K4, ArraySpec(2)).ok


def test_cli_pac_writes_a_verified_schedule(tmp_path):
    two_triangles = Circuit(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5),
                                (3, 5)), name="two-triangles")
    src = tmp_path / "triangles.txt"
    src.write_text(serialize_circuit(two_triangles))
    out = tmp_path / "triangles.json"
    assert main([str(src), "--array", "4", "--mode", "pac",
                 "-o", str(out)]) == 0
    schedule, meta = schedule_from_json(out.read_text())
    assert meta["mode"] == "pac"
    assert verify(schedule, two_triangles, ArraySpec(4)).ok


def test_cli_writes_to_stdout_without_output(tmp_path, capsys):
    src = tmp_path / "k4.txt"
    src.write_text(serialize_circuit(K4))
    assert main([str(src), "--array", "2"]) == 0
    schedule, _ = schedule_from_json(capsys.readouterr().out)
    assert schedule.fired_multiset() == list(range(K4.num_gates))


def test_cli_reports_a_missing_circuit_file(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([str(tmp_path / "missing.txt"), "--array", "2"])
    assert exc.value.code == 1
    assert "atomc: error:" in capsys.readouterr().err


def test_cli_reports_an_unwritable_output_file(tmp_path, capsys):
    src = tmp_path / "k4.txt"
    src.write_text(serialize_circuit(K4))
    with pytest.raises(SystemExit) as exc:
        main([str(src), "--array", "2",
              "-o", str(tmp_path / "missing" / "k4.json")])
    assert exc.value.code == 1
    assert "atomc: error:" in capsys.readouterr().err
