"""Interactive protocols: OQFE output law against the rotated-measurement
oracle, message hygiene on the wire, malicious-mode agreement and aborts,
and blind pattern evaluation against the circuit reference."""

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
        branches = protocols.oqfe_bob_branches(psi, [(psi_a, Angle8(4))])
        assert branches.shape == (1, 2, 2, 2)   # [row, m0, m1, s_bar]
        assert abs(branches.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_batched_bob_branches_equal_one_walk_per_row(name):
    # every row of one batched walk against qsim.enumerate_branches on that
    # row's state, for all four RSP angles theta and every even delta
    rows = [(qsim.plus_state(Angle8(theta)), Angle8(delta))
            for theta in (0, 2, 4, 6) for delta in (0, 2, 4, 6)]
    law = protocols.oqfe_bob_branches(INPUTS[name], rows)
    assert law.shape == (len(rows), 2, 2, 2)
    for row, (psi_a, delta) in zip(law, rows):
        plan = [(0, Angle8(0)), (1, delta), (2, "Z")]
        for br in qsim.enumerate_branches(protocols.oqfe_bob_state(INPUTS[name], psi_a),
                                          plan):
            m0, m1, z = br.outcomes
            assert row[m0, m1, z ^ m1] == br.probability


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


class _Rewriting:
    """An endpoint with each msg_type value it sends rewritten by
    script(value); one message still goes out per send, so the channel's
    sequence numbers stay intact and only the protocol can object."""

    def __init__(self, inner, msg_type, script):
        self._inner, self._type, self._script = inner, msg_type, script

    def send(self, msg_type, value):
        if msg_type == self._type:
            value = self._script(value)
        self._inner.send(msg_type, value)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _repeat_first_site(value):
    return ("site", 0, 0, value[3]) if value[1:3] == (1, 0) else value


def _swap_measured_sites(value):
    swap = {(0, 1): (1, 1), (1, 1): (0, 1)}
    return ("site", *swap.get(value[1:3], value[1:3]), value[3])


def _non_bit_outcome(value):
    return value[:3] + (2,) if value[1:3] == (0, 0) else value


@pytest.mark.parametrize("script, phase, site, cause", [
    (_repeat_first_site, "input-column", (1, 0), "outcome out of order"),
    (_swap_measured_sites, "measurement", (0, 1), "outcome out of order"),
    (_non_bit_outcome, "input-column", (0, 0), "outcome is not a bit")],
    ids=["repeated", "reordered", "not-a-bit"])
def test_alice_aborts_on_a_repeated_reordered_or_non_bit_outcome(
        script, phase, site, cause):
    pattern = mbqc.brick_pattern(Angle8(1), Angle8(3))
    psi = qsim.tensor(INPUTS["plus"], INPUTS["plus"])
    auth = zk.ZkAuthority()
    with pytest.raises(protocols.ProtocolAbort) as info:
        protocols.run_pair(
            lambda ep: protocols.q2pc_alice(ep, pattern, TINY,
                                            coin_source(seeded(3), "alice"), auth),
            lambda ep: protocols.q2pc_bob(
                _Rewriting(ep, "q2pc.outcome", lambda value: (
                    script(tuple(value)) if value[0] == "site" else value)),
                psi, TINY, coin_source(seeded(3), "bob"), rsp.rsp_bob_shortcut, auth),
            bytes(16))
    assert (info.value.phase, info.value.site, info.value.cause) == (phase, site, cause)


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


def test_run_pair_releases_bob_when_alice_returns_early():
    # Alice sends her key, reads Bob's RSP report and returns without ever
    # sending delta: Bob must see the closed channel, not wait forever
    alice_eps, bob_threads, outcome = [], [], {}

    def alice(ep):
        alice_eps.append(ep)
        kp = lattice.gen_regular(TINY, coin_source(seeded(5), "gen"))
        ep.send("rsp.key", kp.public.to_bytes())
        ep.expect("rsp.meas")

    def bob(ep):
        bob_threads.append(threading.current_thread())
        return protocols.oqfe_sh_bob(ep, INPUTS["plus"], TINY,
                                     coin_source(seeded(5), "bob"), rsp.rsp_bob_shortcut)

    def drive():
        try:
            protocols.run_pair(alice, bob, bytes(16))
        except channel.PeerClosedError as exc:
            outcome["exc"] = exc

    driver = threading.Thread(target=drive, daemon=True)
    driver.start()
    driver.join(timeout=30)
    if driver.is_alive():
        alice_eps[0].close()   # release Bob, so the failed run still ends
        pytest.fail("run_pair left Bob blocked")
    assert isinstance(outcome["exc"], channel.PeerClosedError)
    assert not bob_threads[0].is_alive()


KEY_WORDS = TINY.m * TINY.n + TINY.m
MALFORMED_KEYS = {
    "word-over-int64": b"\xff" * (8 * KEY_WORDS),
    "not-bytes": 7,
    "words-not-reduced": (9).to_bytes(8, "little") * KEY_WORDS,
}


@pytest.mark.parametrize("payload", MALFORMED_KEYS.values(), ids=MALFORMED_KEYS.keys())
def test_semi_honest_bob_aborts_on_a_malformed_key(payload):
    def alice(ep):
        ep.send("rsp.key", payload)
        ep.expect("oqfe.result")   # Bob must abort before any RSP report

    with pytest.raises(protocols.ProtocolAbort) as info:
        protocols.run_pair(
            alice,
            lambda ep: protocols.oqfe_sh_bob(ep, INPUTS["plus"], TINY,
                                             coin_source(seeded(6), "bob"),
                                             rsp.rsp_bob_shortcut),
            bytes(16))
    assert (info.value.phase, info.value.site, info.value.cause) == \
        ("rsp", None, "malformed public key")


def _rewriter(party, msg_type, script):
    """wrap(side, ep): ep, rewritten by script if side is party."""
    def wrap(side, ep):
        return _Rewriting(ep, msg_type, script) if side == party else ep
    return wrap


def run_rewritten_oqfe(party, msg_type, script, mode="sh"):
    """An OQFE session (semi-honest or malicious-Alice) whose alice or bob
    rewrites each msg_type value it sends by script(value)."""
    wrap = _rewriter(party, msg_type, script)
    alice, bob = {"sh": (protocols.oqfe_sh_alice, protocols.oqfe_sh_bob),
                  "mal": (protocols.oqfe_mal_alice, protocols.oqfe_mal_bob)}[mode]
    escrow = () if mode == "sh" else (zk.ZkAuthority(),)
    return protocols.run_pair(
        lambda ep: alice(wrap("alice", ep), 1, TINY,
                         coin_source(seeded(9), "alice"), *escrow),
        lambda ep: bob(wrap("bob", ep), INPUTS["plus"], TINY,
                       coin_source(seeded(9), "bob"), rsp.rsp_bob_shortcut, *escrow),
        bytes(16))


def run_rewritten_q2pc(party, msg_type, script):
    """A blind rx_teleport run (one RSP site, (0, 1)) whose alice or bob
    rewrites each msg_type value it sends by script(value)."""
    wrap = _rewriter(party, msg_type, script)
    pattern = mbqc.PATTERN_LIBRARY["rx_teleport"](Angle8(1))
    auth = zk.ZkAuthority()
    return protocols.run_pair(
        lambda ep: protocols.q2pc_alice(wrap("alice", ep), pattern, TINY,
                                        coin_source(seeded(9), "alice"), auth),
        lambda ep: protocols.q2pc_bob(wrap("bob", ep), INPUTS["plus"], TINY,
                                      coin_source(seeded(9), "bob"),
                                      rsp.rsp_bob_shortcut, auth),
        bytes(16))


def aborts_at(run) -> tuple:
    with pytest.raises(protocols.ProtocolAbort) as info:
        run()
    return info.value.phase, info.value.site


@pytest.mark.parametrize("delta", ["x", None, [1], "3", True, 2 ** 40, 3, -2, 8],
                         ids=["str", "none", "list", "numeric-str", "bool", "huge",
                              "odd", "negative", "eight"])
def test_bob_aborts_on_a_malformed_delta(delta):
    with pytest.raises(protocols.ProtocolAbort) as info:
        run_rewritten_oqfe("alice", "oqfe.delta", lambda _value: delta)
    assert (info.value.phase, info.value.site) == ("measurement", None)


MALFORMED_REPORTS = {
    "none": lambda y, w: None,
    "triple": lambda y, w: (y, w, 0),
    "y-strings": lambda y, w: ([str(v) for v in y], w),
    "y-unreduced": lambda y, w: ([y[0] + TINY.q] + y[1:], w),
    "w-two": lambda y, w: (y, [2] + w[1:]),
    "w-bool": lambda y, w: (y, [bool(w[0])] + w[1:]),
}


@pytest.mark.parametrize("script", MALFORMED_REPORTS.values(),
                         ids=MALFORMED_REPORTS.keys())
def test_alice_aborts_on_a_malformed_rsp_report(script):
    with pytest.raises(protocols.ProtocolAbort) as info:
        run_rewritten_oqfe("bob", "rsp.meas", lambda value: script(*value))
    assert (info.value.phase, info.value.site) == ("rsp", None)


@pytest.mark.parametrize("result", [(5, 7), (0, 2), (True, 0), None, [0], "01",
                                    (0, 0, 0)],
                         ids=["not-bits", "two", "bool", "none", "one", "str", "triple"])
def test_alice_aborts_on_a_malformed_result(result):
    with pytest.raises(protocols.ProtocolAbort) as info:
        run_rewritten_oqfe("bob", "oqfe.result", lambda _value: result)
    assert (info.value.phase, info.value.site, info.value.cause) == \
        ("measurement", None, "result is not two bits")


# ------------------------------------------- proof tokens on the wire

NOT_A_TOKEN = {"none": lambda token: None, "int": lambda token: 5,
               "wrapped": lambda token: [token]}


@pytest.mark.parametrize("forge", NOT_A_TOKEN.values(), ids=NOT_A_TOKEN.keys())
def test_a_token_that_is_not_bytes_aborts(forge):
    # the verifier judges whatever arrives: a rejection, never a ZkError
    assert aborts_at(lambda: run_rewritten_oqfe(
        "alice", "zk.token", forge, mode="mal")) == ("keygen-proof", None)
    # q2pc: the first zk.token is the keygen token list, then one blind-angle
    # token per site
    assert aborts_at(lambda: run_rewritten_q2pc(
        "alice", "zk.token", lambda value: [forge(value[0]), *value[1:]]
        if isinstance(value, list) else value)) == ("keygen-proof", (0, 1))
    assert aborts_at(lambda: run_rewritten_q2pc(
        "alice", "zk.token", lambda value: value if isinstance(value, list)
        else forge(value))) == ("measurement", (0, 1))


# ------------------------------------ q2pc parties refuse malformed values

def _merge(script):
    return lambda value: script(value) if value[0] == "merge" else value


def _site(script):
    return lambda value: script(value) if value[0] == "site" else value


MALFORMED_OUTCOMES = {
    "merge-none": (_merge(lambda v: None), "rsp", (0, 1)),
    "merge-u-str": (_merge(lambda v: (*v[:3], "x", v[4])), "rsp", (0, 1)),
    "merge-u-eight": (_merge(lambda v: (*v[:3], 8, v[4])), "rsp", (0, 1)),
    "merge-t-five": (_merge(lambda v: (*v[:4], 5)), "rsp", (0, 1)),
    "merge-t-bool": (_merge(lambda v: (*v[:4], bool(v[4]))), "rsp", (0, 1)),
    "merge-short": (_merge(lambda v: v[:4]), "rsp", (0, 1)),
    "site-none": (_site(lambda v: None), "input-column", (0, 0)),
    "site-bool": (_site(lambda v: (*v[:3], bool(v[3]))), "input-column", (0, 0)),
}


@pytest.mark.parametrize("script, phase, site", MALFORMED_OUTCOMES.values(),
                         ids=MALFORMED_OUTCOMES.keys())
def test_q2pc_alice_aborts_on_a_malformed_outcome_report(script, phase, site):
    assert aborts_at(lambda: run_rewritten_q2pc(
        "bob", "q2pc.outcome", script)) == (phase, site)


MALFORMED_SHARES = {"none": None, "short": b"\x00" * 31, "str": "0" * 32,
                    "list": [b"\x00" * 32]}


@pytest.mark.parametrize("share", MALFORMED_SHARES.values(), ids=MALFORMED_SHARES.keys())
def test_alice_aborts_on_a_malformed_coin_share(share):
    assert aborts_at(lambda: run_rewritten_oqfe(
        "bob", "q2pc.coin", lambda _value: share, mode="mal")) == ("setup", None)
    assert aborts_at(lambda: run_rewritten_q2pc(
        "bob", "q2pc.coin", lambda value: [share, *value[1:]])) == ("setup", None)


@pytest.mark.parametrize("script", [lambda v: None, lambda v: v[:1]], ids=["none", "one"])
def test_q2pc_alice_aborts_on_a_malformed_coin_list(script):
    assert aborts_at(lambda: run_rewritten_q2pc("bob", "q2pc.coin", script)) == \
        ("setup", None)


def _skeleton(script):
    return lambda value: (script(value[0]), *value[1:])


MALFORMED_ALICE_VALUES = {
    "commit-none": ("q2pc.commit", lambda v: None, ("setup", None)),
    "commit-pair": ("q2pc.commit", lambda v: v[:2], ("setup", None)),
    "skeleton-n-str": ("q2pc.commit", _skeleton(lambda k: ("1", *k[1:])),
                       ("setup", None)),
    "bridges-none": ("q2pc.commit", _skeleton(lambda k: (*k[:2], None, k[3])),
                     ("setup", None)),
    "com-phi-none": ("q2pc.commit", lambda v: (v[0], None, v[2]), ("setup", None)),
    "keys-none": ("rsp.key", lambda v: None, ("keygen-proof", None)),
    "tokens-int": ("zk.token", lambda v: 5 if isinstance(v, list) else v,
                   ("keygen-proof", None)),
    "delta-none": ("q2pc.delta", lambda v: None, ("measurement", (0, 1))),
    "delta-four": ("q2pc.delta", lambda v: v[:4], ("measurement", (0, 1))),
}


@pytest.mark.parametrize("msg_type, script, where", MALFORMED_ALICE_VALUES.values(),
                         ids=MALFORMED_ALICE_VALUES.keys())
def test_q2pc_bob_aborts_on_a_malformed_value(msg_type, script, where):
    assert aborts_at(lambda: run_rewritten_q2pc("alice", msg_type, script)) == where


@pytest.mark.parametrize("mode", ["sh", "mal"])
def test_oqfe_session_builds_one_image_table_per_key(mode, monkeypatch):
    lattice.image_census.cache_clear()
    requested, built = [], []
    census_fn, census_init = lattice.image_census, lattice.ImageCensus.__init__

    def counting_census(pk):
        requested.append(pk.K.tobytes() + pk.y0.tobytes())
        return census_fn(pk)

    def counting_init(self, pk):
        built.append(pk.K.tobytes() + pk.y0.tobytes())
        census_init(self, pk)

    monkeypatch.setattr(lattice, "image_census", counting_census)
    monkeypatch.setattr(lattice.ImageCensus, "__init__", counting_init)
    protocols.oqfe_run(1, INPUTS["plus"], TINY, seeded(7), mode,
                       rsp.rsp_bob_quantum, zk.ZkAuthority())
    assert built == list(dict.fromkeys(requested))
