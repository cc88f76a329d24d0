import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from q2pc import lattice, qsim, rsp
from q2pc import primitives as pr
from q2pc.profiles import get_profile
from q2pc.qsim import (Angle8, StateVector, apply_gate, basis_state,
                       enumerate_branches, make_state, measure, plus_state,
                       tensor)

SEED = b"\x02" * 32


def coins(tag="q"):
    return pr.coin_source(SEED, tag)


def test_angle8_wraps():
    assert Angle8(9) == 1
    assert Angle8(3) + Angle8(7) == 2
    assert -Angle8(3) == 5
    assert Angle8(2) - 5 == 5
    assert (Angle8(3) * 2) == 6
    assert Angle8(6).is_even and not Angle8(3).is_even
    assert Angle8(np.int64(-3)) == 5


@pytest.mark.parametrize("value", [2.5, np.float64(2.0), "3", True, np.bool_(True),
                                   None, [2]])
def test_angle8_refuses_non_integers(value):
    # an angle is a count of pi/4: nothing is truncated to one, so a state
    # never silently uses a different angle
    with pytest.raises(qsim.QsimError):
        Angle8(value)
    with pytest.raises(qsim.QsimError):
        plus_state(value)


def test_h_on_zero():
    st_ = apply_gate(basis_state(1, 0), "H", 0)
    assert np.allclose(st_.amplitudes, [1 / math.sqrt(2)] * 2)


def test_cz_on_11():
    st_ = apply_gate(basis_state(2, 0b11), "CZ", (0, 1))
    assert np.allclose(st_.amplitudes, [0, 0, 0, -1])


def test_rz_quarter_turn():
    st_ = apply_gate(plus_state(), ("RZ", Angle8(2)), 0)
    assert qsim.overlap(st_, plus_state(Angle8(2))) > 1 - 1e-12


def test_rx_equals_hrzh():
    for a in range(8):
        direct = apply_gate(plus_state(Angle8(3)), ("RX", Angle8(a)), 0)
        composed = plus_state(Angle8(3))
        for g in ("H", ("RZ", Angle8(a)), "H"):
            composed = apply_gate(composed, g, 0)
        p_direct = np.abs(direct.amplitudes) ** 2
        p_composed = np.abs(composed.amplitudes) ** 2
        assert np.allclose(p_direct, p_composed, atol=1e-12)


ONE_QUBIT_GATES = ["H", "X", "Z"] + [(kind, Angle8(a))
                                     for kind in ("RZ", "RX") for a in range(8)]


def tensordot_gate(state, mat, q):
    """Reference one-qubit gate: contract the matrix with the qubit's axis
    by np.tensordot, then move that axis back."""
    n = state.num_qubits
    tens = np.tensordot(mat, state.amplitudes.reshape((2,) * n),
                        axes=([1], [n - 1 - q]))
    return np.ascontiguousarray(np.moveaxis(tens, 0, n - 1 - q).reshape(-1))


@pytest.mark.parametrize("n", range(1, 9))
def test_one_qubit_gate_is_byte_equal_to_tensordot(n):
    rng = np.random.default_rng(n)
    state = make_state(n, rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n))
    for gate in ONE_QUBIT_GATES:
        mat, _arity = qsim._gate_matrix(gate)
        for q in range(n):
            got = apply_gate(state, gate, q).amplitudes
            assert got.tobytes() == tensordot_gate(state, mat, q).tobytes()


@pytest.mark.parametrize("gate", ["H", "X", "Z", ("RZ", Angle8(3)), ("RX", Angle8(5))])
def test_shared_gate_matrices_are_read_only(gate):
    mat, _arity = qsim._gate_matrix(gate)
    assert qsim._gate_matrix(gate)[0] is mat
    with pytest.raises(ValueError):
        mat[0, 0] = mat[0, 0]


def test_gate_errors():
    with pytest.raises(qsim.QsimError):
        apply_gate(basis_state(1, 0), "H", 1)
    with pytest.raises(qsim.QsimError):
        apply_gate(basis_state(2, 0), "CZ", (0,))
    with pytest.raises(qsim.QsimError):
        apply_gate(basis_state(2, 0), "CZ", (1, 1))
    # an unhashable or malformed gate, or an angle that is not an integer
    for gate in ("SWAP", ["RZ", 1], ("RY", 1), ("RZ",), ("RZ", 2.5), ("RX", "1"),
                 ("RZ", None)):
        with pytest.raises(qsim.QsimError):
            apply_gate(basis_state(1, 0), gate, 0)


def test_measure_basis_state():
    out, post = measure(basis_state(1, 1), 0, "Z", coins())
    assert out == 1 and post.num_qubits == 0


def test_measure_product_state():
    st_ = tensor(plus_state(), basis_state(1, 0))  # qubit 0: |+>, qubit 1: |0>
    out, post = measure(st_, 0, "Z", coins())
    assert out in (0, 1)
    assert np.allclose(np.abs(post.amplitudes) ** 2, [1, 0])


def branch_probabilities(state, qubit, basis):
    return [b.probability for b in enumerate_branches(state, [(qubit, basis)])]


def test_measure_iplus_half_half():
    p0, p1 = branch_probabilities(plus_state(Angle8(2)), 0, "Z")
    assert abs(p0 - 0.5) < 1e-12 and abs(p1 - 0.5) < 1e-12


def test_in_plane_eigenstate():
    for a in range(8):
        assert branch_probabilities(plus_state(Angle8(a)), 0, Angle8(a))[0] > 1 - 1e-9
        assert branch_probabilities(plus_state(Angle8(a)), 0, Angle8(a + 4))[1] > 1 - 1e-9


def test_in_plane_orthogonal_angle():
    p0, _p1 = branch_probabilities(plus_state(Angle8(2)), 0, Angle8(0))
    assert abs(p0 - 0.5) < 1e-12


def test_in_plane_matches_rotate_then_measure():
    st_ = make_state(1, [0.6, 0.8j])
    for a in range(8):
        rotated = apply_gate(apply_gate(st_, ("RZ", Angle8(-a)), 0), "H", 0)
        p0, _p1 = branch_probabilities(st_, 0, Angle8(a))
        assert abs(p0 - float(abs(rotated.amplitudes[0]) ** 2)) < 1e-12


def test_enumerate_single_qubit():
    branches = enumerate_branches(basis_state(1, 0), [(0, "Z")])
    by_out = {b.outcomes: b for b in branches}
    assert by_out[(0,)].probability == pytest.approx(1.0)
    assert by_out[(1,)].probability == 0.0 and by_out[(1,)].impossible


def test_enumerate_bell():
    bell = make_state(2, [1, 0, 0, 1])
    branches = enumerate_branches(bell, [(0, "Z"), (1, "Z")])
    probs = {b.outcomes: b.probability for b in branches}
    assert probs[(0, 0)] == pytest.approx(0.5)
    assert probs[(1, 1)] == pytest.approx(0.5)
    assert probs[(0, 1)] == 0.0 and probs[(1, 0)] == 0.0


def test_enumerate_matches_sampling():
    # 3-qubit circuit: sampled frequencies track enumerated probabilities
    st_ = tensor(tensor(plus_state(Angle8(2)), plus_state()), basis_state(1, 0))
    st_ = apply_gate(st_, "CZ", (0, 1))
    st_ = apply_gate(st_, "CZ", (1, 2))
    plan = [(0, "Z"), (1, Angle8(2)), (2, "Z")]
    branches = enumerate_branches(st_, plan)
    assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-9)
    n = 10_000
    src = coins("samp")
    freq: dict[tuple, int] = {}
    for _ in range(n):
        cur = st_
        live = [0, 1, 2]
        outs = []
        for q, basis in plan:
            idx = live.index(q)
            live.pop(idx)
            o, cur = measure(cur, idx, basis, src)
            outs.append(o)
        t = tuple(outs)
        freq[t] = freq.get(t, 0) + 1
    for b in branches:
        p = b.probability
        bound = 3 * math.sqrt(max(p * (1 - p), 1e-12) / n) + 1e-9
        assert abs(freq.get(b.outcomes, 0) / n - p) <= max(bound, 0.02)


@st.composite
def branch_cases(draw):
    """A state of <= 5 qubits, sparse enough that some branches are
    impossible, and a plan over some of its qubits in random order, each
    measured in Z or in-plane at a random angle."""
    n = draw(st.integers(1, 5))
    values = st.sampled_from((0, 0, 0, 1, -1, 1j, 0.5 - 0.25j, -0.75 + 1j))
    amps = draw(st.lists(values, min_size=1 << n, max_size=1 << n))
    if not any(amps):
        amps[draw(st.integers(0, (1 << n) - 1))] = 1
    qubits = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
    bases = st.one_of(st.just("Z"), st.integers(0, 7).map(Angle8))
    return make_state(n, amps), [(q, draw(bases)) for q in qubits]


def oracle_branches(state, qubit, basis):
    """Both outcomes of one measurement, [(probability, post state or
    None)], shared with no qsim measurement code: rotate an in-plane basis
    onto Z by Rz(-angle) then H, and slice the amplitudes whose index has
    the qubit's bit equal to the outcome."""
    if basis != "Z":
        state = apply_gate(apply_gate(state, ("RZ", -basis), qubit), "H", qubit)
    bit = (np.arange(1 << state.num_qubits) >> qubit) & 1
    out = []
    for outcome in (0, 1):
        sub = state.amplitudes[bit == outcome]
        p = float(np.sum(np.abs(sub) ** 2))
        out.append((p, StateVector(state.num_qubits - 1, sub / math.sqrt(p)))
                   if p >= 1e-12 else (0.0, None))
    return out


def branch_by_branch(state, plan):
    """Oracle: each branch walked on its own with oracle_branches, one plan
    step at a time; (outcomes, probability, post state or None)."""
    level = [((), 1.0, state, list(range(state.num_qubits)))]
    for q, basis in plan:
        nxt = []
        for outs, prob, st_, live in level:
            if st_ is None:
                nxt += [(outs + (o,), 0.0, None, live) for o in (0, 1)]
                continue
            cur = live.index(q)
            rest = live[:cur] + live[cur + 1:]
            nxt += [(outs + (o,), prob * p, post, rest)
                    for o, (p, post) in enumerate(oracle_branches(st_, cur, basis))]
        level = nxt
    return [(outs, prob, st_) for outs, prob, st_, _live in level]


@settings(max_examples=150, deadline=None)
@given(branch_cases())
def test_enumerate_branches_matches_branch_by_branch_oracle(case):
    state, plan = case
    got = enumerate_branches(state, plan)
    want = branch_by_branch(state, plan)
    assert [b.outcomes for b in got] == [outs for outs, _p, _st in want]
    for b, (_outs, p, post) in zip(got, want):
        assert abs(b.probability - p) <= 1e-12
        assert b.impossible == (post is None)
        if post is not None:
            assert qsim.overlap(b.residual, post) >= 1 - 1e-12


class FixedUniform:
    """Coins whose every uniform() draw is one forced value."""

    def __init__(self, value):
        self.value = value

    def uniform(self):
        return self.value


@settings(max_examples=150, deadline=None)
@given(branch_cases(), st.binary(min_size=32, max_size=32))
def test_measure_matches_the_oracle_step_by_step(case, seed):
    """Walk the plan with sampled measurements: each outcome is 1 iff the
    replayed uniform() is below the oracle's P(1), each post state is the
    oracle's, and forcing the impossible outcome of a step raises."""
    state, plan = case
    live = list(range(state.num_qubits))
    src, replay = pr.coin_source(seed, "m"), pr.coin_source(seed, "m")
    for q, basis in plan:
        cur = live.index(q)
        del live[cur]
        want = oracle_branches(state, cur, basis)
        for outcome, forced in ((0, 2.0), (1, -1.0)):
            if want[outcome][1] is None:
                with pytest.raises(qsim.QsimError):
                    measure(state, cur, basis, FixedUniform(forced))
        outcome, post = measure(state, cur, basis, src)
        assert outcome == int(replay.uniform() < want[1][0])
        assert qsim.overlap(post, want[outcome][1]) >= 1 - 1e-12
        state = post


def test_measure_rejects_unknown_qubits_and_bases():
    for qubit in (-1, 1):
        with pytest.raises(qsim.QsimError):
            measure(plus_state(), qubit, "Z", coins())
    with pytest.raises(qsim.QsimError):
        measure(plus_state(), 0, "Y", coins())


def test_enumerate_branches_rejects_unknown_qubits_and_bases():
    with pytest.raises(qsim.QsimError):
        enumerate_branches(plus_state(), [(1, "Z")])
    # an angle must be an integer: 2.5 is not measured at 2
    for basis in ("Y", 2.5, np.float64(2.0), True, None, np.array([2.5]), 2 ** 70):
        with pytest.raises(qsim.QsimError):
            enumerate_branches(plus_state(), [(0, basis)])
        with pytest.raises(qsim.QsimError):
            qsim.split_branches(plus_state().amplitudes.reshape(1, -1),
                                np.zeros(1, dtype=np.int64), 0, basis)


def test_qubit_budget():
    with pytest.raises(qsim.QsimError):
        StateVector(25, np.zeros(1 << 25, dtype=np.complex128))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7))
def test_norm_preserved_property(a, b, c):
    st_ = tensor(plus_state(Angle8(a)), plus_state(Angle8(b)))
    st_ = apply_gate(st_, "CZ", (0, 1))
    st_ = apply_gate(st_, ("RZ", Angle8(c)), 0)
    st_ = apply_gate(st_, ("RX", Angle8(b)), 1)
    assert abs(float(np.sum(np.abs(st_.amplitudes) ** 2)) - 1.0) < 1e-9


# ------------------------------------------- kernel arithmetic (float view)

# (rows, qubits per row) up to the 14-qubit preimage register
KERNEL_SHAPES = [(1, 14), (3, 9), (16, 4), (5, 1)]
TEXTBOOK_PHASES = np.exp(-0.25j * math.pi * np.arange(8))


def random_rows(rows, n, seed=7):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(rows, 1 << n)) + 1j * rng.normal(size=(rows, 1 << n))


def textbook_children(amps, qubit, basis):
    """The children of every row, with numpy's complex division by sqrt(2)."""
    rows, width = amps.shape
    parts = amps.reshape(rows, width >> (qubit + 1), 2, 1 << qubit)
    lo, hi = parts[:, :, 0, :], parts[:, :, 1, :]
    if isinstance(basis, str):
        kids = (lo, hi)
    else:
        phased = hi * TEXTBOOK_PHASES[np.asarray(basis) & 7].reshape(-1, 1, 1)
        kids = ((lo + phased) / math.sqrt(2), (lo - phased) / math.sqrt(2))
    return np.stack(kids, axis=1).reshape(2 * rows, width >> 1)


@pytest.mark.parametrize("rows,n", KERNEL_SHAPES)
def test_split_branches_values_equal_the_textbook_division(rows, n):
    # the kernel scales by 1/sqrt(2) on the float64 view; every value must
    # be the complex division's, not merely close to it
    amps = random_rows(rows, n)
    history = np.arange(rows, dtype=np.int64)
    per_row = np.random.default_rng(n).integers(0, 8, size=rows)
    bases = ["Z", *(Angle8(a) for a in range(8)), per_row]
    for qubit in sorted({0, n // 2, n - 1}):
        for basis in bases:
            got, hist = qsim.split_branches(amps, history, qubit, basis)
            assert np.array_equal(hist, ((history << 1)[:, None] | (0, 1)).reshape(-1))
            assert np.array_equal(got, textbook_children(amps, qubit, basis))


@pytest.mark.parametrize("basis", ["Z", Angle8(0), Angle8(3)])
def test_scaled_states_equal_the_textbook_division(basis):
    amps = random_rows(1, 14)[0]
    state = make_state(14, amps)
    flat = amps.view(np.float64)
    assert np.array_equal(state.amplitudes,
                          amps / math.sqrt(np.einsum("i,i->", flat, flat)))
    for qubit in (0, 13):
        outcome, post = measure(state, qubit, basis, coins(f"scale/{qubit}"))
        kids = textbook_children(state.amplitudes.reshape(1, -1), qubit, basis)
        # the kernel's probabilities: one einsum pass over the rows' floats
        p = np.einsum("ij,ij->i", kids.view(np.float64), kids.view(np.float64))
        assert np.array_equal(post.amplitudes, kids[outcome] / math.sqrt(p[outcome]))
    small = make_state(6, random_rows(1, 6)[0])
    plan = [(2, basis), (5, Angle8(5))]
    rows = textbook_children(textbook_children(small.amplitudes.reshape(1, -1),
                                               2, basis), 4, Angle8(5))
    for branch, row in zip(enumerate_branches(small, plan), rows):
        assert np.array_equal(branch.residual.amplitudes,
                              row / math.sqrt(branch.probability))


def test_measurement_path_makes_no_blas_call(monkeypatch):
    # OpenBLAS threads dot products above 10**4 amplitudes, and its worker
    # competes with the two protocol threads; the kernel's norms are einsum
    pk = lattice.gen_regular(get_profile("tiny").params, coins("blas/key")).public
    lattice.image_census(pk)
    amps = random_rows(1, 14)[0]
    amps /= np.linalg.norm(amps)

    def refuse(*_args, **_kwargs):
        raise AssertionError("BLAS call on amplitudes")
    for name in ("dot", "vdot", "inner"):
        monkeypatch.setattr(np, name, refuse)
    state = StateVector(14, amps)
    measure(state, 0, Angle8(0), coins("blas/m"))
    measure(state, 7, "Z", coins("blas/z"))
    qsim.split_branches(amps.reshape(2, -1), np.zeros(2, dtype=np.int64), 5,
                        np.array([1, 6]))
    # raw: the finishing H Rz is a one-qubit gate (apply_gate), not a measurement
    out = rsp.rsp_bob_quantum(pk, coins("blas/rsp"), raw=True)
    assert out.state.num_qubits == 1
