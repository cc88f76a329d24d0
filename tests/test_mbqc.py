"""Brickwork patterns: angle arithmetic, flow dependencies, and the
reference evaluator against an independent circuit-model oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from q2pc import mbqc, qsim
from q2pc.mbqc import BrickworkPattern, blind_delta, flow_bits
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
    assert blind_delta(Angle8(2), 0, 0) == Angle8(2)


def test_phi_prime_negation():
    assert blind_delta(Angle8(2), 1, 0) == Angle8(6)


def test_phi_prime_both_flips():
    assert blind_delta(Angle8(1), 1, 1) == Angle8(3)


def test_delta_zero_case():
    assert blind_delta(Angle8(0), 0, 0, Angle8(0), 0) == Angle8(0)


def test_delta_wraps():
    assert blind_delta(Angle8(2), 0, 0, Angle8(2), 1) == Angle8(0)


def test_delta_matches_two_level_formula():
    # with phi' = 2b, theta = 2*theta2, r: delta = 2*((b + theta2 + 2r) mod 4)
    for b in (0, 1):
        for th2 in (0, 1):
            for r in (0, 1):
                d = blind_delta(Angle8(2 * b), 0, 0, Angle8(2 * th2), r)
                assert int(d) == 2 * ((b + th2 + 2 * r) % 4)


def test_angle_ops_stay_in_angle8():
    for phi in range(8):
        for sx in (0, 1):
            for sz in (0, 1):
                assert isinstance(blind_delta(Angle8(phi), sx, sz), Angle8)
                assert isinstance(blind_delta(Angle8(phi), 0, 0, Angle8(sz), sx),
                                  Angle8)


# ---------------------------------------------------------- dependencies

def test_empty_dependencies():
    pat = mbqc.identity_pattern()
    assert flow_bits(pat, 0, 0) == (0, 0)


def test_single_x_dependency():
    pat = mbqc.identity_pattern()
    # site (0, 0) measured with corrected outcome 1
    assert flow_bits(pat, 1, 1) == (1, 0)


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


@st.composite
def flow_cases(draw):
    """A random brickwork pattern, preparation angles and masks, and a few
    corrected-outcome strings, one bit per site in measurement order."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 8 // n))
    phi = tuple(tuple(Angle8(0 if j == 0 else draw(st.integers(0, 7)))
                      for j in range(m)) for _ in range(n))
    bridges = tuple((i, j) for j in range(1, m)
                    for i in range(j % 2, n - 1, 2) if draw(st.booleans()))
    pattern = BrickworkPattern(n, m, phi, bridges)
    thetas = {s: draw(st.integers(0, 7)) for s in pattern.sites()}
    masks = {s: draw(st.integers(0, 1)) for s in pattern.sites()}
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=n * m,
                                  max_size=n * m), min_size=1, max_size=6))
    return pattern, thetas, masks, rows


def oracle_delta(pattern, site, outcomes, theta, r):
    """The flow by hand: outcomes maps each measured site to its corrected
    bit; sum the dependencies, flip and shift phi, add theta and r*pi."""
    sX = sum(outcomes[d] for d in pattern.x_dep(site)) % 2
    sZ = sum(outcomes[d] for d in pattern.z_dep(site)) % 2
    phi = int(pattern.phi[site[0]][site[1]])
    return sX, sZ, ((-phi if sX else phi) + 4 * sZ + theta + 4 * r) % 8


@settings(max_examples=100, deadline=None)
@given(flow_cases())
def test_flow_bits_and_blind_delta_match_a_dict_walk(case):
    pattern, thetas, masks, rows = case
    for k, site in enumerate(pattern.sites()):
        theta, r = thetas[site], masks[site]
        expected = [oracle_delta(pattern, site,
                                 dict(zip(pattern.sites()[:k], row)), theta, r)
                    for row in rows]
        # each row's history holds site l at bit k-1-l
        histories = [sum(bit << (k - 1 - l) for l, bit in enumerate(row[:k]))
                     for row in rows]
        for s_bar, (sX, sZ, delta) in zip(histories, expected):
            assert flow_bits(pattern, k, s_bar) == (sX, sZ)
            got = blind_delta(pattern.phi[site[0]][site[1]], sX, sZ, theta, r)
            assert isinstance(got, Angle8) and got == delta
        sX, sZ = flow_bits(pattern, k, np.array(histories, dtype=np.int64))
        assert np.array_equal(sX, [e[0] for e in expected])
        assert np.array_equal(sZ, [e[1] for e in expected])
        deltas = blind_delta(pattern.phi[site[0]][site[1]], sX, sZ, theta, r)
        assert np.array_equal(deltas, [e[2] for e in expected])
    for row in rows:
        history = sum(bit << (len(row) - 1 - l) for l, bit in enumerate(row))
        assert mbqc.output_bits(pattern.n, history) == tuple(row[-pattern.n:])


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
        sX, sZ = flow_bits(pat, 1, first.outcomes[0])
        ang = blind_delta(Angle8(0), sX, sZ)
        _zero, one = qsim.enumerate_branches(first.residual, [(0, ang)])
        assert abs(one.probability - 1.0) < 1e-9  # corrected outcome always 1


@st.composite
def graph_cases(draw):
    """A 1x1 to 3x4 pattern with random bridges (repeats allowed), an input
    column of basis states and |+theta> states, and either the default |+>
    sites or |+theta> prepared ones."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    spots = [(i, j) for i in range(n - 1) for j in range(m)]
    bridges = draw(st.lists(st.sampled_from(spots), max_size=4)) if spots else []
    pattern = BrickworkPattern(n, m, ((Angle8(0),) * m,) * n, tuple(bridges))
    one_qubit = st.one_of(st.integers(0, 1).map(lambda b: qsim.basis_state(1, b)),
                          st.integers(0, 7).map(lambda a: qsim.plus_state(Angle8(a))))
    psi = draw(one_qubit)
    for _ in range(n - 1):
        psi = qsim.tensor(psi, draw(one_qubit))
    prepared = None
    if draw(st.booleans()):
        prepared = {s: qsim.plus_state(Angle8(draw(st.integers(0, 7))))
                    for s in pattern.sites()[n:]}
    return pattern, psi, prepared


def sequential_graph_state(pattern, psi, prepared):
    """Oracle: one qsim.tensor per site, then one CZ gate per edge."""
    n, m = pattern.n, pattern.m
    state = psi
    for site in pattern.sites()[n:]:
        state = qsim.tensor(state, qsim.plus_state() if prepared is None
                            else prepared[site])
    for j in range(m - 1):
        for i in range(n):
            state = qsim.apply_gate(state, "CZ", (j * n + i, (j + 1) * n + i))
    for (i, j) in pattern.bridges:
        state = qsim.apply_gate(state, "CZ", (j * n + i, j * n + i + 1))
    return state


@settings(max_examples=150, deadline=None)
@given(graph_cases())
def test_graph_state_matches_the_gate_by_gate_build(case):
    pattern, psi, prepared = case
    got = mbqc.entangled_graph_state(pattern, psi, prepared)
    want = sequential_graph_state(pattern, psi, prepared)
    assert got.num_qubits == want.num_qubits
    assert np.array_equal(got.amplitudes, want.amplitudes)


def test_budget_exceeded():
    phi = tuple(tuple(Angle8(0) for _ in range(13)) for _ in range(2))
    pat = BrickworkPattern(2, 13, phi)
    with pytest.raises(mbqc.MbqcError):
        mbqc.entangled_graph_state(pat, qsim.basis_state(2, 0))


# ------------------------------------------------------------- validation

def test_nonzero_input_column_angle_rejected():
    with pytest.raises(mbqc.MbqcError):
        BrickworkPattern(1, 2, ((Angle8(1), Angle8(0)),))


@pytest.mark.parametrize("angle", [2.5, "3", True])
def test_non_integer_angle_rejected(angle):
    # stored as given or refused, never truncated to phi = 2
    with pytest.raises(qsim.QsimError):
        BrickworkPattern(1, 2, ((Angle8(0), angle),))


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
