"""Two generic protocol compilers with desk-scale instantiations.

The full-simulation compiler wraps the blind pattern evaluation: Bob first
commits to a classical description of his quantum input and to an inner-run
seed, proves knowledge of the openings, runs the inner protocol, and
finally proves a consistency statement saying a deterministic Bob with the
committed input and seed, fed Alice's recorded messages, would have emitted
exactly the recorded Bob messages.  The ideal zero-knowledge backend can
evaluate that predicate directly by replaying the inner Bob state machine
against the transcript.

The proof-of-quantum-knowledge compiler takes an inner proof system whose
verifier is message-independent, and makes it zero-knowledge by encrypting
every prover message under a committed one-time key, with a final proof
that the ciphertexts decrypt to an accepting inner transcript.  The inner
system shipped here is a stand-in with a quantum-held witness: the witness
is a basis state whose bits hash to a public target, and the verifier asks
seed-derived parity questions whose first rounds are the unit vectors, so
its acceptance check reconstructs the witness and checks the hash.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import channel, protocols, qsim, rsp, zk
from .channel import Endpoint, canonical_decode, canonical_encode
from .lattice import LatticeParams
from .primitives import (CoinSource, SymKey, coin_source, commit,
                         fresh_sym_key, otp_decrypt, otp_encrypt, sha256,
                         verify_commitment)
from .qsim import StateVector


class CompilerError(Exception):
    pass


# ----------------------------------------------------- state descriptions

_DESC_SCALE = 10 ** 12


def describe_state(psi: StateVector) -> bytes:
    """Canonical classical description: fixed-point amplitude grid."""
    parts = [psi.num_qubits]
    for a in psi.amplitudes:
        parts.append(int(round(a.real * _DESC_SCALE)))
        parts.append(int(round(a.imag * _DESC_SCALE)))
    return canonical_encode(parts)


def state_from_description(desc: bytes) -> StateVector:
    parts = canonical_decode(desc)
    n, flat = parts[0], parts[1:]
    amps = np.array([complex(flat[2 * i], flat[2 * i + 1]) / _DESC_SCALE
                     for i in range(len(flat) // 2)])
    norm = np.linalg.norm(amps)
    if not (1 << n) == len(amps) or abs(norm - 1.0) > 1e-6:
        raise CompilerError("malformed state description")
    return StateVector(n, amps / norm)


def rel_opening() -> zk.Relation:
    """Knowledge of a commitment opening; the committed message stays hidden
    (it lives in the witness, not the statement)."""
    def predicate(statement, witness):
        (com,) = statement
        msg, dec = witness
        return verify_commitment(com, dec, msg)
    return zk.Relation("commitment-opening", predicate)


# ------------------------------------------------- full-simulation compiler

class _ReplayEndpoint:
    """Endpoint stand-in for replaying one party against recorded peer
    messages; records what the replayed party would send."""

    def __init__(self, session_id: bytes, incoming: list):
        self.session_id = session_id
        self._incoming = list(incoming)
        self.sent: list = []

    def send(self, msg_type: str, value) -> None:
        self.sent.append([msg_type, canonical_encode(value)])

    def expect(self, msg_type: str):
        if not self._incoming:
            raise CompilerError("replay ran out of peer messages")
        mtype, payload = self._incoming.pop(0)
        if mtype != msg_type:
            raise CompilerError(f"replay expected {msg_type}, got {mtype}")
        return channel.Message(self.session_id, 0, "alice", mtype, payload)


def _sent_messages(transcript: channel.Transcript, sender: str) -> list:
    """Per-sender (type, payload) list, identical on both endpoints."""
    return [[m.msg_type, m.payload] for m in transcript.messages
            if m.sender == sender and not m.msg_type.startswith("fs.")]


def _inner_bob(ep, psi: StateVector, params: LatticeParams, seed: bytes,
               authority: zk.ZkAuthority) -> protocols.Q2pcBobResult:
    """The deterministic inner Bob: q2pc_bob on the committed seed's "bob"
    coins with the shortcut backend.  fullsim_bob runs it live and
    rel_fullsim replays it, so the two sides of the consistency proof are
    one function of the same inputs."""
    return protocols.q2pc_bob(ep, psi, params, coin_source(seed, "bob"),
                              rsp.rsp_bob_shortcut, authority)


def rel_fullsim(params: LatticeParams,
                authority: zk.ZkAuthority) -> zk.Relation:
    """Inner-run consistency: the committed description and seed determine a
    Bob whose replay against the recorded Alice messages reproduces the
    recorded Bob messages exactly."""
    def predicate(statement, witness):
        com_y, com_seed, sid, alice_msgs, bob_msgs = statement
        y_desc, dec_y, seed, dec_seed = witness
        if not (verify_commitment(com_y, dec_y, y_desc)
                and verify_commitment(com_seed, dec_seed, seed)):
            return False
        psi = state_from_description(y_desc)
        replay = _ReplayEndpoint(sid, alice_msgs)
        try:
            _inner_bob(replay, psi, params, seed, authority)
        except (protocols.ProtocolError, CompilerError, channel.ChannelError):
            return False
        return replay.sent == [list(m) for m in bob_msgs]
    return zk.Relation("fullsim-consistency", predicate)


@dataclass
class FullSimResult:
    output: tuple
    accepted: bool
    phase: str                    # "complete" or the rejecting phase


def fullsim_alice(ep: Endpoint, pattern, params: LatticeParams,
                  coins: CoinSource, authority: zk.ZkAuthority) -> FullSimResult:
    commitments = ep.expect("fs.commit").value()
    if not protocols._is_seq(commitments, 2, bytes):
        raise protocols.ProtocolAbort("description-proof", None,
                                      "commitments are not two byte strings")
    com_y, com_seed = commitments
    token = ep.expect("fs.zk").value()
    if zk.verify(zk.ZkSession(rel_opening(), (com_y,), authority), token) != "accept":
        raise protocols.ProtocolAbort("description-proof", None,
                                      "input description proof rejected")
    inner = protocols.q2pc_alice(ep, pattern, params, coins, authority)
    statement = (com_y, com_seed, ep.session_id,
                 _sent_messages(ep.transcript, "alice"),
                 _sent_messages(ep.transcript, "bob"))
    final = ep.expect("fs.zk").value()
    fsession = zk.ZkSession(rel_fullsim(params, authority), statement, authority)
    ok = zk.verify(fsession, final) == "accept"
    return FullSimResult(inner.output, ok, "complete" if ok else "consistency")


def _orthogonal_state(psi: StateVector) -> StateVector:
    """A unit vector orthogonal to psi; the scripted wrong-description
    deviation uses it so the replayed run diverges with certainty whenever
    the true input makes any inner measurement deterministic."""
    a = psi.amplitudes
    j = int(np.argmax(np.abs(a)))
    if abs(abs(a[j]) - 1.0) < 1e-12:
        v = np.zeros_like(a)
        v[(j + 1) % len(a)] = 1.0
    else:
        v = -np.conjugate(a[j]) * a
        v[j] += 1.0
        v = v / np.linalg.norm(v)
    return StateVector(psi.num_qubits, v)


def fullsim_bob(ep: Endpoint, psi_in: StateVector, params: LatticeParams,
                coins: CoinSource, authority: zk.ZkAuthority,
                deviation: str | None = None):
    seed = coins.child("innerseed").take_bytes(32)
    y_desc = describe_state(psi_in)
    if deviation == "wrong-description":
        y_desc = describe_state(_orthogonal_state(psi_in))
    com_y, dec_y = commit(y_desc, coins.child("comy"))
    com_seed, dec_seed = commit(seed, coins.child("comseed"))
    ep.send("fs.commit", (com_y, com_seed))
    opening = (y_desc, dec_y)
    if deviation == "garbage-commitment":
        opening = (y_desc, dec_seed)
    ep.send("fs.zk", zk.prove(rel_opening(), (com_y,), opening, authority))
    inner_ep = _OutcomeFlipper(ep) if deviation == "tamper-message" else ep
    result = _inner_bob(inner_ep, psi_in, params, seed, authority)
    statement = (com_y, com_seed, ep.session_id,
                 _sent_messages(ep.transcript, "alice"),
                 _sent_messages(ep.transcript, "bob"))
    witness = (y_desc, dec_y, seed, dec_seed)
    if deviation == "bad-opening":
        witness = (y_desc, dec_seed, seed, dec_seed)
    ep.send("fs.zk", zk.prove(rel_fullsim(params, authority), statement,
                              witness, authority))
    return result


class _OutcomeFlipper:
    """Flips every site outcome bit on the wire, leaving the rest of the
    endpoint behavior untouched."""

    def __init__(self, inner):
        self._inner = inner

    def send(self, msg_type, value):
        if msg_type == "q2pc.outcome" and value[0] == "site":
            value = (value[0], value[1], value[2], value[3] ^ 1)
        self._inner.send(msg_type, value)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def fullsim_run(pattern, psi_in: StateVector, params: LatticeParams,
                seed: bytes, deviation: str | None = None):
    """Single-process compiled run; returns (FullSimResult, bob result)."""
    sid, acoins, bcoins = protocols.seeded_session(seed, bob="bob-outer")
    auth = zk.ZkAuthority()
    alice = lambda ep: fullsim_alice(ep, pattern, params, acoins, auth)
    bob = lambda ep: fullsim_bob(ep, psi_in, params, bcoins, auth, deviation)
    a, b, _ae, _be = protocols.run_pair(alice, bob, sid)
    return a, b


# -------------------------------------------- proof-of-quantum-knowledge

@dataclass(frozen=True)
class ToyCpoqk:
    """Stand-in inner proof system: the witness is the n-qubit basis state
    |w> with sha256(w) equal to the public target; the verifier's questions
    are parity masks derived from its seed and the round index only."""
    nbits: int
    rounds: int
    target: bytes

    def __post_init__(self):
        if self.rounds < self.nbits:
            raise CompilerError("need at least nbits rounds to reconstruct")


def toy_instance(w: int, nbits: int, rounds: int | None = None) -> ToyCpoqk:
    rounds = nbits if rounds is None else rounds
    return ToyCpoqk(nbits, rounds, sha256(w.to_bytes((nbits + 7) // 8, "little")))


def toy_witness_state(w: int, nbits: int) -> StateVector:
    return qsim.basis_state(nbits, w)


def toy_challenge(seed: bytes, nbits: int, index: int) -> int:
    """Round challenge from the verifier seed and round index alone; the
    first nbits rounds are the unit vectors, guaranteeing reconstruction."""
    if index < nbits:
        return 1 << index
    return coin_source(seed, f"challenge/{index}").bits(nbits)


def toy_prover_answers(state: StateVector, challenges: list,
                       coins: CoinSource) -> list:
    """Measure the witness register once, then answer the parity questions."""
    w = 0
    for q in range(state.num_qubits):
        bit, state = qsim.measure(state, 0, "Z", coins)
        w |= bit << q
    return [bin(w & c).count("1") & 1 for c in challenges]


def toy_verifier_accept(instance: ToyCpoqk, challenges: list,
                        answers: list) -> tuple[bool, int | None]:
    """Reconstruct w from the unit-vector rounds, check every other parity
    and the hash; returns (accept, w or None)."""
    if len(answers) != instance.rounds:
        return False, None
    w = sum(answers[k] << k for k in range(instance.nbits))
    for c, a in zip(challenges, answers):
        if bin(w & c).count("1") & 1 != a:
            return False, None
    if sha256(w.to_bytes((instance.nbits + 7) // 8, "little")) != instance.target:
        return False, None
    return True, w


def _round_nonce(session_id: bytes, index: int) -> bytes:
    return session_id + index.to_bytes(4, "little")


def _round_plaintext(index: int, answer: int) -> bytes:
    return canonical_encode(["cpoqk-answer", index, answer])


def rel_zkpoqk(instance: ToyCpoqk) -> zk.Relation:
    """Final consistency: the ciphertexts decrypt, under the committed key
    and the round nonces, to answers the inner verifier accepts."""
    def predicate(statement, witness):
        com_sk, sid, ch_list, enc_list = statement
        sk_bytes, dec_sk = witness
        if not verify_commitment(com_sk, dec_sk, sk_bytes):
            return False
        key = SymKey(sk_bytes)
        answers = []
        for i, enc in enumerate(enc_list):
            plain = otp_decrypt(key, enc, _round_nonce(sid, i))
            try:
                tag, idx, ans = canonical_decode(plain)
            except (channel.ChannelError, ValueError):
                return False
            if tag != "cpoqk-answer" or idx != i or ans not in (0, 1):
                return False
            answers.append(ans)
        ok, _w = toy_verifier_accept(instance, list(ch_list), answers)
        return ok
    return zk.Relation("zkpoqk-consistency", predicate)


@dataclass
class ZkpoqkSession:
    instance: ToyCpoqk
    accepted: bool
    phase: str
    com_sk: bytes = b""
    challenges: list = field(default_factory=list)
    enc_list: list = field(default_factory=list)
    pok_session: zk.ZkSession | None = None
    final_session: zk.ZkSession | None = None
    session_id: bytes = b""


def zkpoqk_prover(ep: Endpoint, state: StateVector, instance: ToyCpoqk,
                  coins: CoinSource, authority: zk.ZkAuthority,
                  deviation: str | None = None) -> None:
    sk = fresh_sym_key(coins.child("sk"))
    enc_key = sk
    if deviation == "wrong-key":
        enc_key = fresh_sym_key(coins.child("rogue"))
    com_sk, dec_sk = commit(sk.sk, coins.child("comsk"))
    ep.send("zkpoqk.comsk", com_sk)
    ep.send("zk.token", zk.prove(rel_opening(), (com_sk,), (sk.sk, dec_sk),
                                 authority))
    challenges = [ep.expect("zkpoqk.vmsg").value()
                  for _ in range(instance.rounds)]
    if not all(type(c) is int and 0 <= c < 1 << instance.nbits for c in challenges):
        raise protocols.ProtocolAbort("challenge", None,
                                      f"a challenge is not {instance.nbits} bits")
    answers = toy_prover_answers(state, challenges, coins.child("measure"))
    enc_list = []
    for i, answer in enumerate(answers):
        if deviation == "random-encryptions":
            enc = coins.child(f"noise/{i}").take_bytes(
                len(_round_plaintext(i, 0)))
        else:
            enc = otp_encrypt(enc_key, _round_plaintext(i, answer),
                              _round_nonce(ep.session_id, i))
        enc_list.append(enc)
        ep.send("zkpoqk.enc", enc)
    statement = (com_sk, ep.session_id, challenges, enc_list)
    ep.send("zkpoqk.final", zk.prove(rel_zkpoqk(instance), statement,
                                     (sk.sk, dec_sk), authority))


def zkpoqk_verifier(ep: Endpoint, instance: ToyCpoqk, coins: CoinSource,
                    authority: zk.ZkAuthority) -> ZkpoqkSession:
    com_sk = ep.expect("zkpoqk.comsk").value()
    token = ep.expect("zk.token").value()
    pok = zk.ZkSession(rel_opening(), (com_sk,), authority)
    if zk.verify(pok, token) != "accept":
        return ZkpoqkSession(instance, False, "key-proof", com_sk,
                             pok_session=pok, session_id=ep.session_id)
    vseed = coins.child("challenge-seed").take_bytes(32)
    challenges = [toy_challenge(vseed, instance.nbits, i)
                  for i in range(instance.rounds)]
    for c in challenges:
        ep.send("zkpoqk.vmsg", c)
    enc_list = [ep.expect("zkpoqk.enc").value() for _ in range(instance.rounds)]
    final_token = ep.expect("zkpoqk.final").value()
    statement = (com_sk, ep.session_id, challenges, enc_list)
    fsession = zk.ZkSession(rel_zkpoqk(instance), statement, authority)
    ok = zk.verify(fsession, final_token) == "accept"
    return ZkpoqkSession(instance, ok, "complete" if ok else "consistency",
                         com_sk, challenges, enc_list, pok, fsession,
                         ep.session_id)


def zkpoqk_run(w: int, nbits: int, seed: bytes, rounds: int | None = None,
               deviation: str | None = None,
               authority: zk.ZkAuthority | None = None):
    """Single-process compiled proof; returns (ZkpoqkSession, endpoints)."""
    instance = toy_instance(w, nbits, rounds)
    auth = authority or zk.ZkAuthority()
    sid, pcoins, vcoins = protocols.seeded_session(seed, "prover", "verifier")
    prover = lambda ep: zkpoqk_prover(ep, toy_witness_state(w, nbits),
                                      instance, pcoins, auth, deviation)
    verifier = lambda ep: zkpoqk_verifier(ep, instance, vcoins, auth)
    _p, session, p_ep, v_ep = protocols.run_pair(prover, verifier, sid)
    return session, p_ep, v_ep


def zkpoqk_extract(session: ZkpoqkSession) -> int:
    """Chained extraction: pull the key out of the key-knowledge proof,
    decrypt the round ciphertexts, and run the inner reconstruction."""
    if not session.accepted:
        raise CompilerError("extraction requires an accepted session")
    sk_bytes, _dec = zk.extract(session.pok_session)
    key = SymKey(sk_bytes)
    answers = []
    for i, enc in enumerate(session.enc_list):
        plain = otp_decrypt(key, enc, _round_nonce(session.session_id, i))
        _tag, _idx, ans = canonical_decode(plain)
        answers.append(ans)
    ok, w = toy_verifier_accept(session.instance, session.challenges, answers)
    if not ok:
        raise CompilerError("decrypted transcript does not reconstruct")
    return w


def check_message_independence(verifier_fn, rounds: int,
                               seed: bytes = b"\x00" * 32) -> bool:
    """verifier_fn(seed, index, received_so_far) -> bytes; true iff the
    emitted messages are byte-identical across two different prover-message
    sequences under the same seed."""
    histories = ([b"\x00"] * rounds,
                 [bytes([i + 1]) for i in range(rounds)])
    outputs = []
    for h in histories:
        out = []
        for i in range(rounds):
            out.append(verifier_fn(seed, i, h[:i]))
        outputs.append(out)
    return outputs[0] == outputs[1]


def toy_verifier_fn(seed: bytes, index: int, _received) -> bytes:
    """The shipped verifier as a message-independence candidate (nbits=4)."""
    return canonical_encode(toy_challenge(seed, 4, index))
