import json

import pytest

from atomc.arrays import ArraySpec, full_region
from atomc.circuits import generate_rand3reg
from atomc.compiler import compile_circuit
from atomc.errors import ParseError
from atomc.schedule import (AOD, SLM, QubitState, Schedule, Stage,
                            schedule_from_json, schedule_to_json)


def _doc(schedule: Schedule, **overrides) -> str:
    header = dict(circuit_name="demo", circuit_digest="ab" * 32,
                  num_qubits=2, num_gates=1, array=3, mode="pac")
    header.update(overrides)
    return schedule_to_json(schedule, **header)


def test_roundtrip_hand_built_schedule():
    schedule = Schedule([
        Stage({0: QubitState(0, 0, SLM), 1: QubitState(1, 2, AOD, 1, 2)}),
        Stage({0: QubitState(0, 0, SLM), 1: QubitState(0, 0, AOD, 0, 0)},
              (0,)),
    ])
    text = _doc(schedule)
    back, meta = schedule_from_json(text)
    assert back.stages == schedule.stages
    assert meta == {"circuit": {"name": "demo", "sha256": "ab" * 32,
                                "qubits": 2, "gates": 1},
                    "array": 3, "mode": "pac"}
    assert _doc(back) == text  # deterministic bytes


def test_roundtrip_compiled_schedule():
    c = generate_rand3reg(6, 1)
    schedule = compile_circuit(c, full_region(ArraySpec(3))).schedule
    text = schedule_to_json(
        schedule, circuit_name=c.name, circuit_digest=c.digest(),
        num_qubits=c.num_qubits, num_gates=c.num_gates, array=3)
    back, meta = schedule_from_json(text)
    assert back.stages == schedule.stages
    assert back.depth == schedule.depth
    assert meta["circuit"]["sha256"] == c.digest()
    assert meta["mode"] == "direct"


def _not_integers():
    """(field, value, document) for each integer field of a valid document
    set to a float, a string or a bool."""
    schedule = Schedule([Stage({0: QubitState(0, 0, SLM),
                                1: QubitState(1, 2, AOD, 1, 2)}, (0,))])

    def edit(field, value):
        doc = json.loads(_doc(schedule))
        stage = doc["stages"][0]
        if field in ("format", "array"):
            doc[field] = value
        elif field == "gate":
            stage["gates"] = [value]
        else:  # a field of the movable-trap qubit
            stage["qubits"][1][field] = value
        return json.dumps(doc)

    for field, value in (("id", 1.0), ("x", 1.7), ("y", "1"), ("a", True),
                         ("c", 0.2), ("r", "2"), ("gate", 0.5),
                         ("array", 2.9), ("format", True)):
        yield field, value, edit(field, value)


def _bad_headers():
    """(field, value, document) for each header field of a valid document
    set to a value of the wrong kind or out of range, or left out (None)."""
    text = _doc(Schedule([Stage({0: QubitState(0, 0, SLM)})]))
    for field, value in (("mode", "nonsense"), ("mode", 5), ("circuit", 5),
                         ("circuit", ["demo"]), ("circuit", None),
                         ("name", 5), ("name", None), ("sha256", ["ab"]),
                         ("qubits", 2.0), ("qubits", None), ("gates", "1"),
                         ("gates", True), ("qubits", -4), ("gates", -1),
                         ("array", 1), ("array", -2)):
        doc = json.loads(text)
        holder = doc if field in ("mode", "circuit", "array") \
            else doc["circuit"]
        holder[field] = value
        if value is None:
            del holder[field]
        yield field, value, json.dumps(doc)


# a header that parses, so each stage case fails on its own defect
HEADER = ('"format": 1, "circuit": {"name": "demo", "sha256": "ab", '
          '"qubits": 1, "gates": 0}, "array": 2')


@pytest.mark.parametrize("text", [
    "not json",
    '{"format": 99, "stages": []}',
    pytest.param('{' + HEADER + ', "stages": [{"gates": []}]}',
                 id="a-stage-without-qubits"),
    # one qubit on two sites at once
    pytest.param('{' + HEADER + ', "stages": '
                 '[{"gates": [], "qubits": [{"id": 0, "x": 0, "y": 0, '
                 '"a": 0}, {"id": 0, "x": 1, "y": 1, "a": 0}]}]}',
                 id="a-qubit-listed-twice"),
    # an integer field whose JSON value is not an integer, which a
    # coercion would read as some other number
    *(pytest.param(text, id=f"{field}-{value}")
      for field, value, text in _not_integers()),
    # a header field a reader of `meta` would otherwise get as it stands
    *(pytest.param(text, id=f"{field}-{value}")
      for field, value, text in _bad_headers()),
])
def test_malformed_documents_are_rejected(text):
    with pytest.raises(ParseError):
        schedule_from_json(text)


def test_a_document_without_a_mode_reads_direct():
    doc = json.loads(_doc(Schedule([Stage({0: QubitState(0, 0, SLM)})])))
    del doc["mode"]
    _, meta = schedule_from_json(json.dumps(doc))
    assert meta["mode"] == "direct"
