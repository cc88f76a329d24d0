"""Ideal zero-knowledge backend: completeness, soundness, extraction,
statement binding, simulation, and the concrete relations."""

import pytest

from q2pc import lattice, zk
from q2pc.compilers import rel_opening
from q2pc.channel import canonical_encode
from q2pc.primitives import coin_source, commit, xor_bytes
from q2pc.profiles import get_profile
from q2pc.qsim import Angle8

TINY = get_profile("tiny").params


def fresh_auth():
    return zk.ZkAuthority()


def test_commitment_relation_honest_accept():
    coins = coin_source(b"\x01" * 32, "zk")
    com, dec = commit(b"hello", coins)
    _, verdict = zk.run_proof(rel_opening(), (com,), (b"hello", dec), fresh_auth())
    assert verdict == "accept"


def test_commitment_relation_wrong_message_rejects():
    coins = coin_source(b"\x01" * 32, "zk")
    com, dec = commit(b"hello", coins)
    _, verdict = zk.run_proof(rel_opening(), (com,), (b"other", dec), fresh_auth())
    assert verdict == "reject"


def test_completeness_many_random_sessions():
    rel = rel_opening()
    coins = coin_source(b"\x02" * 32, "zk")
    for i in range(200):
        msg = coins.take_bytes(8)
        com, dec = commit(msg, coins)
        session, verdict = zk.run_proof(rel, (com,), (msg, dec), fresh_auth())
        assert verdict == "accept"
        assert zk.extract(session) == (msg, dec)


def test_extract_before_accept_raises():
    rel = rel_opening()
    auth = fresh_auth()
    session = zk.new_session(rel, (b"x",), "verifier", auth)
    with pytest.raises(zk.ZkError):
        zk.extract(session)


def test_extract_after_reject_raises():
    rel = rel_opening()
    coins = coin_source(b"\x03" * 32, "zk")
    com, dec = commit(b"m", coins)
    session, verdict = zk.run_proof(rel, (com,), (b"wrong", dec), fresh_auth())
    assert verdict == "reject"
    with pytest.raises(zk.ZkError):
        zk.extract(session)


def test_statement_binding_replayed_token_rejected():
    rel = rel_opening()
    auth = fresh_auth()
    coins = coin_source(b"\x04" * 32, "zk")
    com, dec = commit(b"m", coins)
    other_com, _ = commit(b"m2", coins)
    msgs = zk.prove(zk.new_session(rel, (com,), "prover", auth), (b"m", dec))
    other = zk.new_session(rel, (other_com,), "verifier", auth)
    assert zk.verify(other, msgs) == "reject"


def test_simulated_token_byte_identical_and_verifies():
    rel = rel_opening()
    coins = coin_source(b"\x08" * 32, "zk")
    com, dec = commit(b"w", coins)
    statement = (com,)
    auth1, auth2 = fresh_auth(), fresh_auth()
    honest = zk.prove(zk.new_session(rel, statement, "prover", auth1), (b"w", dec))
    rel_sim = zk.Relation(rel.name, rel.predicate,
                          decide=lambda s: True)  # ideal backend knows truth
    simulated = zk.simulate(rel_sim, statement, auth2)
    assert honest == simulated
    ver = zk.new_session(rel_sim, statement, "verifier", auth2)
    assert zk.verify(ver, simulated) == "accept"


def test_simulate_on_false_statement_rejects():
    rel = zk.Relation("always-false", lambda s, w: False, decide=lambda s: False)
    auth = fresh_auth()
    msgs = zk.simulate(rel, (1, 2), auth)
    ver = zk.new_session(rel, (1, 2), "verifier", auth)
    assert zk.verify(ver, msgs) == "reject"


def test_simulated_proof_not_extractable():
    rel = zk.Relation("truthy", lambda s, w: True, decide=lambda s: True)
    auth = fresh_auth()
    msgs = zk.simulate(rel, 7, auth)
    ver = zk.new_session(rel, 7, "verifier", auth)
    assert zk.verify(ver, msgs) == "accept"
    with pytest.raises(zk.ZkError):
        zk.extract(ver)


def test_keygen_relation_accepts_honest_and_rejects_tampered():
    rel = zk.rel_keygen(TINY)
    coins = coin_source(b"\x05" * 32, "zk")
    r_a = coins.take_bytes(32)
    r_b = coins.take_bytes(32)
    com_f, dec_f = commit(r_a, coins)
    kp = lattice.gen_regular(TINY, coin_source(xor_bytes(r_a, r_b), "gen"))
    derived = lattice.gen_from_shares(TINY, r_a, r_b)
    assert derived.public.to_bytes() == kp.public.to_bytes()
    good = (com_f, r_b, kp.public.to_bytes())
    _, verdict = zk.run_proof(rel, good, (r_a, dec_f), fresh_auth())
    assert verdict == "accept"
    # Bob's share flipped after the commitment: key derivation mismatch
    bad = (com_f, bytes([r_b[0] ^ 1]) + r_b[1:], kp.public.to_bytes())
    _, verdict = zk.run_proof(rel, bad, (r_a, dec_f), fresh_auth())
    assert verdict == "reject"
    # key not derived from the committed coins
    kp2 = lattice.gen_regular(TINY, coin_source(b"\x06" * 32, "gen"))
    bad2 = (com_f, r_b, kp2.public.to_bytes())
    _, verdict = zk.run_proof(rel, bad2, (r_a, dec_f), fresh_auth())
    assert verdict == "reject"


def test_delta_relation_all_angle_combinations():
    from q2pc import mbqc
    rel = zk.rel_delta()
    coins = coin_source(b"\x07" * 32, "zk")
    for phi in range(8):
        for sX in (0, 1):
            for sZ in (0, 1):
                for theta in (0, 3):
                    for r in (0, 1):
                        com, dec = commit(canonical_encode(phi), coins)
                        delta = mbqc.blind_delta(Angle8(phi), sX, sZ,
                                                 Angle8(theta), r)
                        st = (int(delta), sZ, sX, com)
                        _, v = zk.run_proof(rel, st, (phi, dec, theta, r), fresh_auth())
                        assert v == "accept"
                        bad = (int(delta + Angle8(1)), sZ, sX, com)
                        _, v = zk.run_proof(rel, bad, (phi, dec, theta, r), fresh_auth())
                        assert v == "reject"


def test_predicate_exception_treated_as_reject():
    rel = zk.Relation("boom", lambda s, w: 1 / 0)
    _, verdict = zk.run_proof(rel, 1, 2, fresh_auth())
    assert verdict == "reject"


def test_sessions_and_simulations_need_an_explicit_authority():
    # no process-wide escrow to fall back on: a forgotten authority fails
    # at the call instead of mixing witnesses across runs
    rel = zk.Relation("truthy", lambda s, w: True, decide=lambda s: True)
    with pytest.raises(TypeError):
        zk.new_session(rel, 7, "prover")
    with pytest.raises(TypeError):
        zk.ZkSession(rel, 7, "verifier")
    with pytest.raises(TypeError):
        zk.simulate(rel, 7)
    with pytest.raises(TypeError):
        zk.run_proof(rel, 7, None)
    # None is no authority either, caught before prove() or verify()
    with pytest.raises(zk.ZkError):
        zk.new_session(rel, 7, "prover", None)
    with pytest.raises(zk.ZkError):
        zk.new_session(rel, 7, "verifier", None)
    with pytest.raises(zk.ZkError):
        zk.simulate(rel, 7, None)
