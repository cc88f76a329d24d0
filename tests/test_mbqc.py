"""Brickwork patterns: angle arithmetic, flow dependencies, and the
reference evaluator against an independent circuit-model oracle."""

import numpy as np
import pytest

from q2pc import mbqc, qsim
from q2pc.mbqc import (BrickworkPattern, OutcomeBoard, accumulate_dependencies,
                       compute_delta, compute_phi_prime)
from q2pc.primitives import coin_source
from q2pc.qsim import Angle8


def tv(a, b):
    keys = set(a) | set(b)
    return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)


def rand_state(n, i):
    c = coin_source(bytes([i]) * 32, "st")
    amps = np.array([complex(c.uniform() - 0.5, c.uniform() - 0.5)
                     for _ in range(1 << n)])
    amps /= np.linalg.norm(amps)
    return qsim.make_state(n, amps)


INPUTS_1 = [qsim.basis_state(1, 0), qsim.basis_state(1, 1), qsim.plus_state(),
            qsim.plus_state(Angle8(2)), rand_state(1, 7)]
INPUTS_2 = [qsim.basis_state(2, 0), qsim.basis_state(2, 3),
            qsim.tensor(qsim.plus_state(), qsim.plus_state(Angle8(2))),
            rand_state(2, 9)]


# ------------------------------------------------------- angle arithmetic

def test_phi_prime_identity_case():
    assert compute_phi_prime(Angle8(2), 0, 0) == Angle8(2)


def test_phi_prime_negation():
    assert compute_phi_prime(Angle8(2), 1, 0) == Angle8(6)


def test_phi_prime_both_flips():
    assert compute_phi_prime(Angle8(1), 1, 1) == Angle8(3)


def test_delta_zero_case():
    assert compute_delta(Angle8(0), Angle8(0), 0) == Angle8(0)


def test_delta_wraps():
    assert compute_delta(Angle8(2), Angle8(2), 1) == Angle8(0)


def test_delta_matches_two_level_formula():
    # with phi' = 2b, theta = 2*theta2, r: delta = 2*((b + theta2 + 2r) mod 4)
    for b in (0, 1):
        for th2 in (0, 1):
            for r in (0, 1):
                d = compute_delta(Angle8(2 * b), Angle8(2 * th2), r)
                assert int(d) == 2 * ((b + th2 + 2 * r) % 4)


def test_angle_ops_stay_in_angle8():
    for phi in range(8):
        for sx in (0, 1):
            for sz in (0, 1):
                assert isinstance(compute_phi_prime(Angle8(phi), sx, sz), Angle8)
                assert isinstance(compute_delta(Angle8(phi), Angle8(sz), sx), Angle8)


# ---------------------------------------------------------- dependencies

def test_empty_dependencies():
    pat = mbqc.identity_pattern()
    assert accumulate_dependencies(OutcomeBoard(), pat, (0, 0)) == (0, 0)


def test_single_x_dependency():
    pat = mbqc.identity_pattern()
    board = OutcomeBoard()
    board.record((0, 0), 1)
    assert accumulate_dependencies(board, pat, (0, 1)) == (1, 0)


def test_unmeasured_dependency_raises():
    pat = mbqc.identity_pattern()
    with pytest.raises(mbqc.MbqcError):
        accumulate_dependencies(OutcomeBoard(), pat, (0, 1))


def test_linear_chain_dependencies_match_teleport_flow():
    pat = mbqc.rz_pattern(Angle8(3))
    assert pat.x_dep((0, 1)) == ((0, 0),)
    assert pat.x_dep((0, 2)) == ((0, 1),)
    assert pat.z_dep((0, 2)) == ((0, 0),)
    assert pat.z_dep((0, 1)) == ()


def test_bridge_adds_cross_wire_z_dependency():
    pat = mbqc.brick_pattern(Angle8(1), Angle8(5))
    assert pat.z_dep((0, 1)) == ((1, 0),)
    assert pat.z_dep((1, 1)) == ((0, 0),)


def test_double_measurement_rejected():
    board = OutcomeBoard()
    board.record((0, 0), 0)
    with pytest.raises(mbqc.MbqcError):
        board.record((0, 0), 1)


# ------------------------------------------------------------- evaluator

def test_identity_wire_is_deterministic():
    pat = mbqc.identity_pattern()
    for bit in (0, 1):
        law = mbqc.reference_evaluate(pat, qsim.basis_state(1, bit))
        assert abs(law.get((bit,), 0.0) - 1.0) < 1e-9


def test_all_zero_pattern_on_plus_is_deterministic_zero():
    # odd-length all-zero wires end in the X basis: |+> reads 0 always
    for m in (1, 3):
        phi = (tuple(Angle8(0) for _ in range(m)),)
        law = mbqc.reference_evaluate(BrickworkPattern(1, m, phi),
                                      qsim.plus_state())
        assert abs(law.get((0,), 0.0) - 1.0) < 1e-9


def test_rx_teleport_matches_rotated_z_measurement():
    for a in range(8):
        pat = mbqc.rx_teleport_pattern(Angle8(a))
        for st in INPUTS_1:
            rot = qsim.apply_gate(st, ("RX", Angle8(-Angle8(a))), 0)
            p1 = float(abs(rot.amplitudes[1]) ** 2)
            law = mbqc.reference_evaluate(pat, st)
            assert abs(law.get((1,), 0.0) - p1) < 1e-9


@pytest.mark.parametrize("name", sorted(mbqc.PATTERN_LIBRARY))
def test_library_pattern_matches_circuit_oracle(name):
    fac = mbqc.PATTERN_LIBRARY[name]
    if name in ("identity", "hadamard"):
        pats = [fac()]
    elif name == "brick":
        pats = [fac(Angle8(a), Angle8(b)) for a, b in [(0, 0), (1, 3), (2, 5)]]
    else:
        pats = [fac(Angle8(a)) for a in (0, 1, 3, 6)]
    for pat in pats:
        for st in (INPUTS_2 if pat.n == 2 else INPUTS_1):
            assert tv(mbqc.reference_evaluate(pat, st),
                      mbqc.circuit_model_law(pat, st)) < 1e-9


def test_flow_determinism_per_branch():
    """Deterministic patterns give the same output in every branch: walk the
    identity wire manually and check both intermediate outcomes agree."""
    pat = mbqc.identity_pattern()
    st = qsim.basis_state(1, 1)
    full = mbqc.entangled_graph_state(pat, st)
    for first in qsim.enumerate_branches(full, [(0, Angle8(0))]):
        assert not first.impossible and abs(first.probability - 0.5) < 1e-9
        board = OutcomeBoard()
        board.record((0, 0), first.outcomes[0])
        sX, sZ = accumulate_dependencies(board, pat, (0, 1))
        ang = compute_phi_prime(Angle8(0), sX, sZ)
        _zero, one = qsim.enumerate_branches(first.residual, [(0, ang)])
        assert abs(one.probability - 1.0) < 1e-9  # corrected outcome always 1


def test_budget_exceeded():
    phi = tuple(tuple(Angle8(0) for _ in range(13)) for _ in range(2))
    pat = BrickworkPattern(2, 13, phi)
    with pytest.raises(mbqc.MbqcError):
        mbqc.entangled_graph_state(pat, qsim.basis_state(2, 0))


# ------------------------------------------------------------- validation

def test_nonzero_input_column_angle_rejected():
    with pytest.raises(mbqc.MbqcError):
        BrickworkPattern(1, 2, ((Angle8(1), Angle8(0)),))


def test_bad_bridge_rejected():
    with pytest.raises(mbqc.MbqcError):
        BrickworkPattern(1, 2, ((Angle8(0), Angle8(0)),), bridges=((0, 1),))


def test_shape_mismatch_rejected():
    with pytest.raises(mbqc.MbqcError):
        BrickworkPattern(2, 2, ((Angle8(0), Angle8(0)),))


# ---------------------------------------------------------- serialization

def test_pattern_json_roundtrip():
    pat = mbqc.brick_pattern(Angle8(3), Angle8(6))
    again = mbqc.pattern_from_json(mbqc.pattern_to_json(pat))
    assert again == pat


def test_pattern_json_version_checked():
    with pytest.raises(mbqc.MbqcError):
        mbqc.pattern_from_json('{"format": 99, "n": 1, "m": 1, "phi": [[0]]}')
