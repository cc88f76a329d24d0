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


def run_proof(relation, statement, witness, authority):
    """Prover then verifier; returns the verifier session and its verdict."""
    token = zk.prove(relation, statement, witness, authority)
    session = zk.ZkSession(relation, statement, authority)
    return session, zk.verify(session, token)


def test_commitment_relation_honest_accept():
    coins = coin_source(b"\x01" * 32, "zk")
    com, dec = commit(b"hello", coins)
    _, verdict = run_proof(rel_opening(), (com,), (b"hello", dec), fresh_auth())
    assert verdict == "accept"


def test_commitment_relation_wrong_message_rejects():
    coins = coin_source(b"\x01" * 32, "zk")
    com, dec = commit(b"hello", coins)
    _, verdict = run_proof(rel_opening(), (com,), (b"other", dec), fresh_auth())
    assert verdict == "reject"


def test_completeness_many_random_sessions():
    rel = rel_opening()
    coins = coin_source(b"\x02" * 32, "zk")
    for i in range(200):
        msg = coins.take_bytes(8)
        com, dec = commit(msg, coins)
        session, verdict = run_proof(rel, (com,), (msg, dec), fresh_auth())
        assert verdict == "accept"
        assert zk.extract(session) == (msg, dec)


def test_extract_before_accept_raises():
    rel = rel_opening()
    auth = fresh_auth()
    session = zk.ZkSession(rel, (b"x",), auth)
    with pytest.raises(zk.ZkError):
        zk.extract(session)


def test_extract_after_reject_raises():
    rel = rel_opening()
    coins = coin_source(b"\x03" * 32, "zk")
    com, dec = commit(b"m", coins)
    session, verdict = run_proof(rel, (com,), (b"wrong", dec), fresh_auth())
    assert verdict == "reject"
    with pytest.raises(zk.ZkError):
        zk.extract(session)


def test_statement_binding_replayed_token_rejected():
    rel = rel_opening()
    auth = fresh_auth()
    coins = coin_source(b"\x04" * 32, "zk")
    com, dec = commit(b"m", coins)
    other_com, _ = commit(b"m2", coins)
    token = zk.prove(rel, (com,), (b"m", dec), auth)
    other = zk.ZkSession(rel, (other_com,), auth)
    assert zk.verify(other, token) == "reject"


NOT_THE_TOKEN = {
    "none": lambda token: None,
    "int": lambda token: 5,
    "str": lambda token: token.hex(),
    "empty-list": lambda token: [],
    "wrapped": lambda token: [token],
    "extended": lambda token: token + b"\x00",
}


@pytest.mark.parametrize("forge", NOT_THE_TOKEN.values(), ids=NOT_THE_TOKEN.keys())
def test_verify_rejects_any_value_but_the_statements_token(forge):
    # a peer's value is judged, never trusted to be bytes: anything but the
    # one token for this statement is a rejection, not an exception
    rel = zk.Relation("truthy", lambda s, w: True)
    auth = fresh_auth()
    token = zk.prove(rel, 7, "w", auth)
    value = forge(token)
    session = zk.ZkSession(rel, 7, auth)
    assert zk.verify(session, value) == "reject"
    assert session.verdict == "reject"
    assert zk.verify(session, token) == "accept"


def test_simulated_token_byte_identical_and_verifies():
    rel = rel_opening()
    coins = coin_source(b"\x08" * 32, "zk")
    com, dec = commit(b"w", coins)
    statement = (com,)
    auth1, auth2 = fresh_auth(), fresh_auth()
    honest = zk.prove(rel, statement, (b"w", dec), auth1)
    rel_sim = zk.Relation(rel.name, rel.predicate,
                          decide=lambda s: True)  # ideal backend knows truth
    simulated = zk.simulate(rel_sim, statement, auth2)
    assert honest == simulated
    ver = zk.ZkSession(rel_sim, statement, auth2)
    assert zk.verify(ver, simulated) == "accept"


def test_simulate_on_false_statement_rejects():
    rel = zk.Relation("always-false", lambda s, w: False, decide=lambda s: False)
    auth = fresh_auth()
    token = zk.simulate(rel, (1, 2), auth)
    ver = zk.ZkSession(rel, (1, 2), auth)
    assert zk.verify(ver, token) == "reject"


def test_simulated_proof_not_extractable():
    rel = zk.Relation("truthy", lambda s, w: True, decide=lambda s: True)
    auth = fresh_auth()
    token = zk.simulate(rel, 7, auth)
    ver = zk.ZkSession(rel, 7, auth)
    assert zk.verify(ver, token) == "accept"
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
    _, verdict = run_proof(rel, good, (r_a, dec_f), fresh_auth())
    assert verdict == "accept"
    # Bob's share flipped after the commitment: key derivation mismatch
    bad = (com_f, bytes([r_b[0] ^ 1]) + r_b[1:], kp.public.to_bytes())
    _, verdict = run_proof(rel, bad, (r_a, dec_f), fresh_auth())
    assert verdict == "reject"
    # key not derived from the committed coins
    kp2 = lattice.gen_regular(TINY, coin_source(b"\x06" * 32, "gen"))
    bad2 = (com_f, r_b, kp2.public.to_bytes())
    _, verdict = run_proof(rel, bad2, (r_a, dec_f), fresh_auth())
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
                        _, v = run_proof(rel, st, (phi, dec, theta, r), fresh_auth())
                        assert v == "accept"
                        bad = (int(delta + Angle8(1)), sZ, sX, com)
                        _, v = run_proof(rel, bad, (phi, dec, theta, r), fresh_auth())
                        assert v == "reject"


def test_predicate_exception_treated_as_reject():
    rel = zk.Relation("boom", lambda s, w: 1 / 0)
    _, verdict = run_proof(rel, 1, 2, fresh_auth())
    assert verdict == "reject"


def test_sessions_and_simulations_need_an_explicit_authority():
    # no process-wide escrow to fall back on: a forgotten authority fails
    # at the call instead of mixing witnesses across runs
    rel = zk.Relation("truthy", lambda s, w: True, decide=lambda s: True)
    with pytest.raises(TypeError):
        zk.prove(rel, 7, "w")
    with pytest.raises(TypeError):
        zk.ZkSession(rel, 7)
    with pytest.raises(TypeError):
        zk.simulate(rel, 7)
    with pytest.raises(TypeError):
        run_proof(rel, 7, None)
    # None (or any non-authority) is no authority either, caught at the
    # call rather than inside verify()
    for not_an_authority in (None, "authority"):
        with pytest.raises(zk.ZkError):
            zk.prove(rel, 7, "w", not_an_authority)
        with pytest.raises(zk.ZkError):
            zk.ZkSession(rel, 7, not_an_authority)
        with pytest.raises(zk.ZkError):
            zk.simulate(rel, 7, not_an_authority)
