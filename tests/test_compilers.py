"""Compilers: consistency-checked blind evaluation and the encrypted
proof-of-quantum-knowledge, with every scripted deviation rejected."""

import pytest

from q2pc import channel, compilers, mbqc, protocols, qsim, zk
from q2pc.profiles import get_profile
from q2pc.qsim import Angle8
from test_protocols import _Rewriting

TINY = get_profile("tiny").params
PAT = mbqc.PATTERN_LIBRARY["rx_teleport"](Angle8(2))
IPLUS = qsim.plus_state(Angle8(2))


def seeded(i):
    return bytes([i % 256, i // 256]) + bytes(30)


# ------------------------------------------------------ state descriptions

def test_description_roundtrip():
    for psi in (qsim.basis_state(1, 1), IPLUS,
                qsim.plus_state(Angle8(3))):
        back = compilers.state_from_description(compilers.describe_state(psi))
        assert qsim.overlap(psi, back) >= 1 - 1e-9


def test_malformed_description_rejected():
    with pytest.raises(compilers.CompilerError):
        compilers.state_from_description(channel.canonical_encode([1, 5, 5]))


# ------------------------------------------------------ full-sim compiler

def test_fullsim_honest_run_matches_inner_output():
    # the pattern sends |+_{pi/2}> to |1> deterministically, so equality
    # with the inner protocol law is exact
    for i in range(5):
        res, _bob = compilers.fullsim_run(PAT, IPLUS, TINY, seeded(i))
        assert res.accepted and res.phase == "complete"
        assert res.output == (1,)


def test_fullsim_wrong_description_rejected():
    res, _ = compilers.fullsim_run(PAT, IPLUS, TINY, seeded(10),
                                   deviation="wrong-description")
    assert not res.accepted and res.phase == "consistency"


def test_fullsim_tampered_inner_message_rejected():
    res, _ = compilers.fullsim_run(PAT, IPLUS, TINY, seeded(11),
                                   deviation="tamper-message")
    assert not res.accepted and res.phase == "consistency"


def test_fullsim_bad_opening_rejected():
    res, _ = compilers.fullsim_run(PAT, IPLUS, TINY, seeded(12),
                                   deviation="bad-opening")
    assert not res.accepted and res.phase == "consistency"


def test_fullsim_garbage_commitment_aborts_before_inner_run():
    with pytest.raises(protocols.ProtocolAbort) as exc:
        compilers.fullsim_run(PAT, IPLUS, TINY, seeded(13),
                              deviation="garbage-commitment")
    assert exc.value.phase == "description-proof"


@pytest.mark.parametrize("commitments", [None, (b"a",), (b"a", "b"), b"ab"],
                         ids=["none", "one", "str", "bytes"])
def test_fullsim_alice_aborts_on_malformed_commitments(commitments):
    sid, acoins, bcoins = protocols.seeded_session(seeded(14), bob="bob-outer")
    auth = zk.ZkAuthority()
    with pytest.raises(protocols.ProtocolAbort) as exc:
        protocols.run_pair(
            lambda ep: compilers.fullsim_alice(ep, PAT, TINY, acoins, auth),
            lambda ep: compilers.fullsim_bob(
                _Rewriting(ep, "fs.commit", lambda _value: commitments),
                IPLUS, TINY, bcoins, auth),
            sid)
    assert (exc.value.phase, exc.value.site) == ("description-proof", None)


# --------------------------------------------------- toy inner proof system

def test_toy_instance_needs_enough_rounds():
    with pytest.raises(compilers.CompilerError):
        compilers.toy_instance(3, 4, rounds=2)


def test_toy_verifier_reconstructs_and_checks_hash():
    inst = compilers.toy_instance(0b0110, 4, rounds=7)
    seed = b"\x01" * 32
    challenges = [compilers.toy_challenge(seed, 4, i) for i in range(7)]
    answers = [bin(0b0110 & c).count("1") & 1 for c in challenges]
    ok, w = compilers.toy_verifier_accept(inst, challenges, answers)
    assert ok and w == 0b0110
    bad = list(answers)
    bad[5] ^= 1
    ok, w = compilers.toy_verifier_accept(inst, challenges, bad)
    assert not ok and w is None


def test_toy_prover_answers_from_measured_state():
    from q2pc.primitives import coin_source
    state = compilers.toy_witness_state(0b101, 3)
    challenges = [1, 2, 4, 0b111]
    ans = compilers.toy_prover_answers(state, challenges,
                                       coin_source(b"\x02" * 32, "m"))
    assert ans == [1, 0, 1, 0]


# ------------------------------------------------------- zkpoqk compiler

def run_zkpoqk(i, **kwargs):
    return compilers.zkpoqk_run(0b1011, 4, seeded(i + 400), rounds=6, **kwargs)


@pytest.mark.parametrize("challenge", ["x", None, True, -1, 16, [1]],
                         ids=["str", "none", "bool", "negative", "wide", "list"])
def test_zkpoqk_prover_aborts_on_a_malformed_challenge(challenge):
    instance = compilers.toy_instance(11, 4, 6)
    sid, pcoins, vcoins = protocols.seeded_session(seeded(15), "prover", "verifier")
    auth = zk.ZkAuthority()
    with pytest.raises(protocols.ProtocolAbort) as exc:
        protocols.run_pair(
            lambda ep: compilers.zkpoqk_prover(ep, compilers.toy_witness_state(11, 4),
                                               instance, pcoins, auth),
            lambda ep: compilers.zkpoqk_verifier(
                _Rewriting(ep, "zkpoqk.vmsg", lambda _value: challenge),
                instance, vcoins, auth),
            sid)
    assert (exc.value.phase, exc.value.site) == ("challenge", None)


def test_zkpoqk_honest_accepts():
    for i in range(5):
        session, _pe, _ve = run_zkpoqk(i)
        assert session.accepted and session.phase == "complete"


def test_zkpoqk_extraction_recovers_witness():
    session, _pe, _ve = run_zkpoqk(9)
    assert compilers.zkpoqk_extract(session) == 0b1011


def test_zkpoqk_extracted_witness_satisfies_relation():
    from q2pc.primitives import sha256
    session, _pe, _ve = run_zkpoqk(10)
    w = compilers.zkpoqk_extract(session)
    assert sha256(w.to_bytes(1, "little")) == session.instance.target


def test_zkpoqk_wrong_key_rejected():
    session, _pe, _ve = run_zkpoqk(11, deviation="wrong-key")
    assert not session.accepted and session.phase == "consistency"


def test_zkpoqk_random_encryptions_rejected():
    for i in range(10):
        session, _pe, _ve = run_zkpoqk(20 + i, deviation="random-encryptions")
        assert not session.accepted


def test_zkpoqk_extraction_requires_acceptance():
    session, _pe, _ve = run_zkpoqk(12, deviation="wrong-key")
    with pytest.raises(compilers.CompilerError):
        compilers.zkpoqk_extract(session)


def test_zkpoqk_no_cleartext_prover_messages():
    session, p_ep, v_ep = run_zkpoqk(13)
    sk_bytes, _dec = zk.extract(session.pok_session)
    from q2pc.primitives import SymKey, otp_decrypt
    key = SymKey(sk_bytes)
    plaintexts = [
        otp_decrypt(key, enc, compilers._round_nonce(session.session_id, i))
        for i, enc in enumerate(session.enc_list)]
    frames = b"".join(channel.frame_message(m)
                      for ep in (p_ep, v_ep) for m in ep.transcript.messages)
    for plain in plaintexts:
        assert plain not in frames


def test_zkpoqk_round_nonces_are_distinct():
    sid = b"\x0a" * 16
    nonces = {compilers._round_nonce(sid, i) for i in range(50)}
    assert len(nonces) == 50


# -------------------------------------------------- message independence

def test_shipped_verifier_is_message_independent():
    assert compilers.check_message_independence(compilers.toy_verifier_fn, 6)


def test_adaptive_verifier_is_caught():
    def adaptive(seed, i, received):
        prefix = received[-1] if received else b""
        return prefix + bytes([i])
    assert not compilers.check_message_independence(adaptive, 3)


def test_zero_round_verifier_vacuously_independent():
    def never(seed, i, received):
        raise AssertionError("should not be called")
    assert compilers.check_message_independence(never, 0)
