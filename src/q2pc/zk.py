"""Zero-knowledge argument-of-knowledge interface with an ideal-functionality
backend: trusted relation evaluation plus in-process witness escrow.

An honest or dishonest prover deposits its witness with the shared authority
and sends a single opaque token; the token is a deterministic hash of the
relation name and the statement, so a simulated proof (no witness) is
byte-identical to an honest one, and a token produced for one statement
never verifies under another.  verify() asks the authority to evaluate the
relation predicate on the escrowed witness; for simulated proofs it falls
back to the relation's own statement decider when one exists (the ideal
functionality knows whether the statement is true).  extract() returns the
escrowed witness -- the extractor's power against a convincing prover,
exact here because the backend is ideal.

The escrow lives in one process, so protocols that exercise extraction run
on the in-process transport.  The interface passes message sequences, not
single values, so a concrete argument system can be dropped in later.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from . import lattice, mbqc
from .channel import canonical_encode
from .primitives import coin_source, sha256, verify_commitment, xor_bytes
from .qsim import Angle8

_SIMULATED = object()


class ZkError(Exception):
    pass


@dataclass(frozen=True)
class Relation:
    name: str
    predicate: Callable           # (statement, witness) -> bool
    decide: Callable | None = None  # (statement) -> bool, for simulated proofs


class ZkAuthority:
    """Trusted in-process party holding witness escrow, keyed by token."""

    def __init__(self):
        self._escrow: dict[bytes, object] = {}

    def deposit(self, token: bytes, witness) -> None:
        self._escrow[token] = witness

    def lookup(self, token: bytes):
        return self._escrow.get(token)


_DEFAULT_AUTHORITY = ZkAuthority()


def default_authority() -> ZkAuthority:
    return _DEFAULT_AUTHORITY


def proof_token(relation: Relation, statement) -> bytes:
    name = relation.name.encode("utf-8")
    return sha256(b"zk-token\x00" + len(name).to_bytes(2, "little") + name
                  + sha256(canonical_encode(statement)))


@dataclass
class ZkSession:
    relation: Relation
    statement: object
    role: str                     # "prover" | "verifier"
    authority: ZkAuthority = field(default_factory=default_authority)
    verdict: str = "pending"


def new_session(relation: Relation, statement, role: str,
                authority: ZkAuthority | None = None) -> ZkSession:
    if role not in ("prover", "verifier"):
        raise ZkError(f"unknown role {role!r}")
    return ZkSession(relation, statement, role,
                     authority or default_authority())


def prove(session: ZkSession, witness) -> list[bytes]:
    """Escrow the witness, emit the attestation token (a dishonest prover may
    deposit a false witness; verify rejects it)."""
    if session.role != "prover":
        raise ZkError("prove() is the prover's move")
    token = proof_token(session.relation, session.statement)
    session.authority.deposit(token, witness)
    return [token]


def simulate(relation: Relation, statement,
             authority: ZkAuthority | None = None) -> list[bytes]:
    """Witness-free proof; byte-identical token to an honest prover's."""
    token = proof_token(relation, statement)
    (authority or default_authority()).deposit(token, _SIMULATED)
    return [token]


def verify(session: ZkSession, messages) -> str:
    if len(messages) != 1 or not isinstance(messages[0], bytes):
        raise ZkError("malformed proof message sequence")
    token = messages[0]
    if token != proof_token(session.relation, session.statement):
        session.verdict = "reject"   # statement binding
        return session.verdict
    witness = session.authority.lookup(token)
    if witness is None:
        session.verdict = "reject"
        return session.verdict
    if witness is _SIMULATED:
        if session.relation.decide is None:
            session.verdict = "reject"
        else:
            session.verdict = "accept" if session.relation.decide(session.statement) else "reject"
        return session.verdict
    try:
        ok = bool(session.relation.predicate(session.statement, witness))
    except Exception:
        ok = False
    session.verdict = "accept" if ok else "reject"
    return session.verdict


def extract(session: ZkSession):
    """The ideal extractor: witness of any accepted (non-simulated) proof."""
    if session.verdict != "accept":
        raise ZkError("extraction requires an accepted proof")
    witness = session.authority.lookup(proof_token(session.relation, session.statement))
    if witness is None or witness is _SIMULATED:
        raise ZkError("no extractable witness (simulated proof)")
    return witness


def run_proof(relation: Relation, statement, witness,
              authority: ZkAuthority | None = None) -> tuple[ZkSession, str]:
    """Both roles in sequence; returns the verifier session and its verdict."""
    auth = authority or default_authority()
    msgs = prove(new_session(relation, statement, "prover", auth), witness)
    ver = new_session(relation, statement, "verifier", auth)
    return ver, verify(ver, msgs)


# ---------------------------------------------------------- the relations

def rel_keygen(params: lattice.LatticeParams) -> Relation:
    """Statement (com_f, r_f_bob, pk_bytes); witness (r_f_alice, dec_f): the
    commitment opens to Alice's coin share, and the keypair regenerated from
    the combined coins has exactly the claimed public key."""
    def predicate(statement, witness):
        com_f, r_f_bob, pk_bytes = statement
        r_f_alice, dec_f = witness
        if not verify_commitment(com_f, dec_f, r_f_alice):
            return False
        if len(r_f_alice) != len(r_f_bob):
            return False
        kp = lattice.gen_regular(params,
                                 coin_source(xor_bytes(r_f_alice, r_f_bob), "gen"))
        return kp.public.to_bytes() == pk_bytes
    return Relation("key-generation", predicate)


def rel_delta() -> Relation:
    """Statement (delta, sZ, sX, com); witness (phi, dec, theta, r): com opens
    to the plain angle phi and delta = phi' + theta + r*pi with
    phi' = (-1)^sX phi + sZ*pi."""
    def predicate(statement, witness):
        delta, sZ, sX, com = statement
        phi, dec, theta, r = witness
        if not verify_commitment(com, dec, canonical_encode(int(phi))):
            return False
        phi_prime = mbqc.compute_phi_prime(Angle8(phi), sX, sZ)
        return Angle8(delta) == mbqc.compute_delta(phi_prime, Angle8(theta), r)
    return Relation("blind-angle", predicate)
