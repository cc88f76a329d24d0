"""Interactive protocols: OQFE output law against the rotated-measurement
oracle, message hygiene on the wire, malicious-mode agreement and aborts,
blind pattern evaluation against the circuit reference, and output delivery."""

import itertools
import threading

import numpy as np
import pytest

from q2pc import channel, harness, lattice, mbqc, protocols, qsim, rsp, zk
from q2pc.primitives import coin_source
from q2pc.profiles import get_profile
from q2pc.qsim import Angle8

TINY = get_profile("tiny").params


def seeded(i):
    return bytes([i % 256, i // 256]) + bytes(30)


INPUTS = {
    "zero": qsim.basis_state(1, 0),
    "one": qsim.basis_state(1, 1),
    "plus": qsim.plus_state(),
    "iplus": qsim.plus_state(Angle8(2)),
    "random": qsim.StateVector(
        1, np.array([0.6, 0.48 + 0.64j]) / np.sqrt(0.36 + 0.64)),
}


# --------------------------------------------------------- local OQFE algebra

def test_delta_formula():
    for b, theta2, r_a in itertools.product((0, 1), repeat=3):
        assert int(protocols.oqfe_delta(b, theta2, r_a)) == \
            2 * ((b + theta2 + 2 * r_a) % 4)


def test_decode_uses_m0_only_when_b_is_one():
    assert protocols.oqfe_decode(0, 1, 1, 1, 0) == 0
    assert protocols.oqfe_decode(1, 1, 1, 1, 0) == 1


def test_bob_branches_form_a_distribution():
    psi_a = qsim.plus_state(Angle8(3))
    for name, psi in INPUTS.items():
        branches = protocols.oqfe_bob_branches(psi, psi_a, Angle8(4))
        assert len(branches) == 8   # (m0, m1, s_bar) triples
        assert abs(sum(p for *_x, p in branches) - 1.0) < 1e-12


@pytest.mark.parametrize("name", sorted(INPUTS))
@pytest.mark.parametrize("b", [0, 1])
def test_output_law_matches_rotated_measurement(name, b):
    # full enumeration over theta bits, mask, and both measurement branches
    real = harness.oqfe_output_law_exact(INPUTS[name], b)
    ideal = harness.born_rx_law(INPUTS[name], b)
    assert harness.tv_distance(real, ideal) <= 1e-9


def test_rotated_oracle_hand_case():
    # Rx(-pi/2) sends |+_{pi/2}> to |1>, so b=1 on that input is deterministic
    law = harness.born_rx_law(INPUTS["iplus"], 1)
    assert law[1] > 1 - 1e-12


# --------------------------------------------------------- interactive OQFE

def run_oqfe(b, psi, seed, mode="sh"):
    return protocols.oqfe_run(b, psi, TINY, seed, mode=mode,
                              backend=rsp.rsp_bob_shortcut)


def test_semi_honest_deterministic_cases():
    for i in range(4):
        a, _bob, _ae, _be = run_oqfe(0, INPUTS["zero"], seeded(i))
        assert a.s_b == 0
        a, _bob, _ae, _be = run_oqfe(0, INPUTS["one"], seeded(i + 50))
        assert a.s_b == 1
        a, _bob, _ae, _be = run_oqfe(1, INPUTS["iplus"], seeded(i + 100))
        assert a.s_b == 1


def test_semi_honest_views_are_consistent():
    a, bob, _ae, _be = run_oqfe(1, INPUTS["plus"], seeded(7))
    assert (a.y, a.w_meas) == (tuple(bob.y), tuple(bob.w_meas))
    assert (a.m0, a.s_bar, a.delta) == (bob.m0, bob.s_bar, bob.delta)
    assert a.s_b == a.s_bar ^ a.theta1 ^ a.r_a ^ (a.m0 & 1)


def test_m1_never_transits():
    # the only bits Bob sends after delta are (m0, s_bar); the full message
    # list is fixed and m1 appears in no payload
    _a, _bob, ae, be = run_oqfe(1, INPUTS["plus"], seeded(9))
    types = [m.msg_type for m in ae.transcript.messages]
    assert types == ["rsp.key", "rsp.meas", "oqfe.delta", "oqfe.result"]
    result = [m for m in be.transcript.messages
              if m.msg_type == "oqfe.result"][0]
    assert len(channel.canonical_decode(result.payload)) == 2


def test_malicious_mode_adds_only_setup_messages():
    _a, _bob, ae, _be = run_oqfe(0, INPUTS["plus"], seeded(11), mode="mal")
    types = [m.msg_type for m in ae.transcript.messages]
    assert types == ["q2pc.commit", "q2pc.coin", "rsp.key", "zk.token",
                     "rsp.meas", "oqfe.delta", "oqfe.result"]


def test_malicious_mode_honest_runs_stay_correct():
    # the key is coin-tossed instead of local, but the quantum phase and the
    # decode identity are the same as in the semi-honest mode
    for i in range(3):
        mal, bob, _e3, _e4 = run_oqfe(1, INPUTS["iplus"], seeded(i + 20),
                                      mode="mal")
        assert mal.s_b == 1   # deterministic input for b=1
        assert (mal.y, mal.w_meas) == (tuple(bob.y), tuple(bob.w_meas))
        assert mal.s_b == mal.s_bar ^ mal.theta1 ^ mal.r_a ^ mal.m0


def test_bad_key_aborts_at_keygen_proof():
    phase = harness.cheating_experiment(harness.cheating_alice_bad_key)
    assert phase == "keygen-proof"


def test_wrong_commitment_aborts_at_keygen_proof():
    phase = harness.cheating_experiment(
        harness.cheating_alice_wrong_commitment)
    assert phase == "keygen-proof"


# ------------------------------------------------------------------- Q2PC

def run_q2pc(pattern, psi, seed):
    a, bob, _ae, _be = protocols.q2pc_run(pattern, psi, TINY, seed,
                                          backend=rsp.rsp_bob_shortcut)
    return a.output, bob


def test_q2pc_identity_pattern_is_deterministic():
    pat = mbqc.PATTERN_LIBRARY["identity"]()
    for i in range(3):
        out, _ = run_q2pc(pat, INPUTS["one"], seeded(i + 200))
        assert out == (1,)
        out, _ = run_q2pc(pat, INPUTS["zero"], seeded(i + 210))
        assert out == (0,)


def test_q2pc_rotation_pattern_is_deterministic():
    # Rx(-pi/2) on |+_{pi/2}> gives |1>
    pat = mbqc.PATTERN_LIBRARY["rx_teleport"](Angle8(2))
    for i in range(3):
        out, _ = run_q2pc(pat, INPUTS["iplus"], seeded(i + 220))
        assert out == (1,)


def test_q2pc_sampled_law_tracks_reference():
    pat = mbqc.PATTERN_LIBRARY["hadamard"]()
    ref = mbqc.circuit_model_law(pat, INPUTS["one"])
    counts = {}
    n = 60
    for i in range(n):
        out, _ = run_q2pc(pat, INPUTS["one"], seeded(i + 300))
        counts[out] = counts.get(out, 0) + 1
    emp = {k: v / n for k, v in counts.items()}
    assert harness.tv_distance(emp, ref) < 0.2  # coarse gate; exact TV is
    # established by branch enumeration in the acceptance tests


def test_q2pc_per_site_flow_sends_proof_before_outcome():
    pat = mbqc.PATTERN_LIBRARY["rx_teleport"](Angle8(1))
    _out, _bob, ae, _be = protocols.q2pc_run(pat, INPUTS["plus"], TINY,
                                             seeded(5),
                                             backend=rsp.rsp_bob_shortcut)
    types = [m.msg_type for m in ae.transcript.messages]
    site_token = types.index("zk.token", types.index("q2pc.outcome"))
    assert types[site_token:site_token + 3] == \
        ["zk.token", "q2pc.delta", "q2pc.outcome"]


class _TamperingEndpoint:
    """Flips a byte of the Nth send of one message type, delegating the rest."""

    def __init__(self, inner, msg_type, index):
        self._inner, self._type, self._index = inner, msg_type, index
        self._seen = 0

    def send(self, msg_type, value):
        if msg_type == self._type:
            if self._seen == self._index:
                value = bytes([value[0] ^ 1]) + value[1:]
            self._seen += 1
        self._inner.send(msg_type, value)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def test_tampered_blind_angle_proof_aborts_before_measurement():
    pat = mbqc.PATTERN_LIBRARY["rx_teleport"](Angle8(1))
    sid = b"\x21" * 16
    a_ep, b_ep = channel.inproc_pair(sid)
    acoins, bcoins = coin_source(seeded(6), "alice"), coin_source(seeded(6), "bob")
    auth = zk.ZkAuthority()
    box = {}

    def bob():
        try:
            protocols.q2pc_bob(b_ep, INPUTS["plus"], TINY, bcoins,
                               rsp.rsp_bob_shortcut, auth)
        except BaseException as exc:
            box["exc"] = exc
            b_ep.close()

    th = threading.Thread(target=bob)
    th.start()
    # token index 1: after the keygen token list, the pattern's one site
    tampered = _TamperingEndpoint(a_ep, "zk.token", 1)
    with pytest.raises((channel.PeerClosedError, protocols.ProtocolError)):
        protocols.q2pc_alice(tampered, pat, TINY, acoins, auth)
    th.join()
    assert isinstance(box["exc"], protocols.ProtocolAbort)
    assert box["exc"].phase == "measurement"
    # abort-before-leak: the tampered site's outcome never went on the wire
    sites = [channel.canonical_decode(m.payload)
             for m in b_ep.transcript.messages if m.msg_type == "q2pc.outcome"]
    assert ["site", 0, 1] not in [s[:3] for s in sites]


def test_bob_input_width_mismatch_is_an_mbqc_error():
    two_qubits = qsim.tensor(qsim.plus_state(), qsim.plus_state())
    with pytest.raises(mbqc.MbqcError):
        protocols.q2pc_run(mbqc.identity_pattern(), two_qubits, TINY,
                           seeded(1), backend=rsp.rsp_bob_shortcut)


@pytest.mark.parametrize("pattern, width", [
    (mbqc.identity_pattern(), 2),                                  # width mismatch
    (mbqc.BrickworkPattern(1, 25, ((Angle8(0),) * 25,)), 1)])      # 25 > 24 qubits
def test_bob_checks_the_pattern_before_any_rsp_run(pattern, width):
    psi = qsim.basis_state(width, 0)
    auth = zk.ZkAuthority()
    bob_eps = []

    def bob(ep):
        bob_eps.append(ep)
        return protocols.q2pc_bob(ep, psi, TINY, coin_source(seeded(2), "bob"),
                                  rsp.rsp_bob_shortcut, auth)

    with pytest.raises(mbqc.MbqcError):
        protocols.run_pair(
            lambda ep: protocols.q2pc_alice(ep, pattern, TINY,
                                            coin_source(seeded(2), "alice"), auth),
            bob, bytes(16))
    sent = [msg.msg_type for msg in bob_eps[0].transcript.messages]
    assert sent == ["q2pc.commit"]


def test_run_pair_fails_closed_on_unexpected_alice_error():
    bob_threads, outcome = [], {}

    def alice(ep):
        raise RuntimeError("injected")

    def bob(ep):
        bob_threads.append(threading.current_thread())
        ep.expect("never.sent")

    def drive():
        try:
            protocols.run_pair(alice, bob, bytes(16))
        except RuntimeError as exc:
            outcome["exc"] = exc

    driver = threading.Thread(target=drive, daemon=True)
    driver.start()
    driver.join(timeout=30)
    assert not driver.is_alive(), "run_pair left Bob blocked"
    assert str(outcome["exc"]) == "injected"
    assert not bob_threads[0].is_alive()


# --------------------------------------------------------- output delivery

def xor_func(x_a, y_b):
    out = bytes(a ^ b for a, b in zip(x_a, y_b))
    return x_a, out


def test_output_delivery_honest():
    res = protocols.output_delivery_run(xor_func, b"\x0f\x0f", b"\xf0\x0f",
                                        coin_source(seeded(1), "deliver"))
    assert not res.rejected
    assert res.y_bob == b"\xff\x00"
    assert res.y_alice == b"\x0f\x0f"


def test_output_delivery_detects_tampering():
    res = protocols.output_delivery_run(xor_func, b"\x0f\x0f", b"\xf0\x0f",
                                        coin_source(seeded(2), "deliver"),
                                        tamper=True)
    assert res.rejected and res.y_bob is None


def test_output_delivery_empty_payload():
    res = protocols.output_delivery_run(lambda x, y: (x, b""), b"a", b"",
                                        coin_source(seeded(3), "deliver"))
    assert not res.rejected
    assert res.y_bob == b""
