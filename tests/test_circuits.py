import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomc.circuits import (Circuit, generate_rand3reg, parse_circuit,
                            serialize_circuit)
from atomc.errors import ParseError, QubitRangeError


def test_parse_basic():
    c = parse_circuit("4\n0 1\n2 3")
    assert c.num_qubits == 4
    assert c.gates == ((0, 1), (2, 3))


def test_parse_comments_and_blanks():
    c = parse_circuit("# header\n\n4\n0 1  # trailing\n\n2 3\n")
    assert c.gates == ((0, 1), (2, 3))


def test_parse_self_loop_rejected():
    with pytest.raises(ParseError):
        parse_circuit("2\n0 0")


def test_parse_range_error():
    with pytest.raises(QubitRangeError):
        parse_circuit("2\n0 5")


def test_parse_malformed_line_reports_lineno():
    with pytest.raises(ParseError) as err:
        parse_circuit("4\n0 1\n0 1 2")
    assert err.value.line == 3


def test_parse_bad_count():
    with pytest.raises(ParseError):
        parse_circuit("x\n0 1")
    with pytest.raises(ParseError):
        parse_circuit("")


@pytest.mark.parametrize("text", ["1_2\n0 1", "+2\n0 1", "\uff13\n0 1",
                                  "20\n0 1_2", "4\n+0 1", "4\n0 \uff13"])
def test_parse_only_ascii_integers(text):
    # int() would read "1_2" as 12, "+2" as 2 and the full-width "3" as 3
    with pytest.raises(ParseError):
        parse_circuit(text)


def test_parse_negative_numbers_are_reported_as_such():
    with pytest.raises(ParseError, match="negative qubit count"):
        parse_circuit("-2\n0 1")
    with pytest.raises(QubitRangeError):
        parse_circuit("2\n-1 0")


def test_single_qubit_gate_dropped_with_warning():
    with pytest.warns(UserWarning):
        c = parse_circuit("3\n0\n1 2")
    assert c.gates == ((1, 2),)


def test_duplicate_edges_preserved():
    c = parse_circuit("3\n0 1\n0 1")
    assert c.gates == ((0, 1), (0, 1))


def test_roundtrip_preserves_name_and_gates():
    c = Circuit(5, ((0, 1), (1, 2), (0, 1)), name="pair_chain")
    assert parse_circuit(serialize_circuit(c)) == c


@given(st.integers(2, 30), st.integers(0, 2**32), st.data())
@settings(max_examples=50, deadline=None)
def test_roundtrip_random_circuits(n, seed, data):
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1])
    gates = tuple(data.draw(st.lists(pairs, max_size=12)))
    c = Circuit(n, gates, name=f"rnd{seed % 97}")
    assert parse_circuit(serialize_circuit(c)) == c


def test_rand3reg_k4():
    # K4 is the unique 3-regular graph on 4 vertices
    for seed in range(5):
        c = generate_rand3reg(4, seed)
        assert sorted(c.gates) == sorted(
            itertools.combinations(range(4), 2))


def test_rand3reg_counts():
    c = generate_rand3reg(60, 0)
    assert c.num_qubits == 60
    assert c.num_gates == 90  # 3n/2


def test_rand3reg_deterministic():
    a = generate_rand3reg(10, 7)
    b = generate_rand3reg(10, 7)
    assert a.gates == b.gates


def test_rand3reg_odd_rejected():
    with pytest.raises(ValueError):
        generate_rand3reg(5, 0)
    with pytest.raises(ValueError):
        generate_rand3reg(2, 0)


@given(st.integers(2, 20), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_rand3reg_is_simple_and_cubic(half_n, seed):
    n = 2 * half_n
    c = generate_rand3reg(n, seed)
    # recount incidences from the gate list
    incident = [0] * n
    seen = set()
    for u, v in c.gates:
        assert u != v
        key = (min(u, v), max(u, v))
        assert key not in seen
        seen.add(key)
        incident[u] += 1
        incident[v] += 1
    assert incident == [3] * n
