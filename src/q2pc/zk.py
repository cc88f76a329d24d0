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
on the in-process transport.  There is no global escrow: every proof,
session and simulation names its ZkAuthority, and a run creates its own,
so witnesses of one run never meet those of another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import lattice, mbqc
from .channel import canonical_encode
from .primitives import sha256, verify_commitment
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


def proof_token(relation: Relation, statement) -> bytes:
    name = relation.name.encode("utf-8")
    return sha256(b"zk-token\x00" + len(name).to_bytes(2, "little") + name
                  + sha256(canonical_encode(statement)))


def _check_authority(authority) -> None:
    # fail at the call, not later inside prove() or verify()
    if not isinstance(authority, ZkAuthority):
        raise ZkError(f"a ZkAuthority is required, got {type(authority).__name__}")


@dataclass
class ZkSession:
    """The verifier's view of one proof; verify() records its verdict."""
    relation: Relation
    statement: object
    authority: ZkAuthority
    verdict: str = "pending"

    def __post_init__(self):
        _check_authority(self.authority)


def prove(relation: Relation, statement, witness,
          authority: ZkAuthority) -> bytes:
    """Escrow the witness, return the attestation token (a dishonest prover
    may deposit a false witness; verify rejects it)."""
    _check_authority(authority)
    token = proof_token(relation, statement)
    authority.deposit(token, witness)
    return token


def simulate(relation: Relation, statement, authority: ZkAuthority) -> bytes:
    """Witness-free proof; byte-identical token to an honest prover's."""
    _check_authority(authority)
    token = proof_token(relation, statement)
    authority.deposit(token, _SIMULATED)
    return token


def verify(session: ZkSession, token) -> str:
    """"accept" or "reject" for the token received, stored on the session;
    any value but the statement's token is rejected (statement binding)."""
    rel, statement = session.relation, session.statement
    witness = None
    if isinstance(token, bytes) and token == proof_token(rel, statement):
        witness = session.authority.lookup(token)
    if witness is _SIMULATED:
        ok = rel.decide is not None and bool(rel.decide(statement))
    else:
        try:
            ok = witness is not None and bool(rel.predicate(statement, witness))
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
        kp = lattice.gen_from_shares(params, r_f_alice, r_f_bob)
        return kp.public.to_bytes() == pk_bytes
    return Relation("key-generation", predicate)


def rel_delta() -> Relation:
    """Statement (delta, sZ, sX, com); witness (phi, dec, theta, r): com opens
    to the plain angle phi and delta = mbqc.blind_delta(phi, sX, sZ, theta,
    r), the angle Alice sends."""
    def predicate(statement, witness):
        delta, sZ, sX, com = statement
        phi, dec, theta, r = witness
        if not verify_commitment(com, dec, canonical_encode(int(phi))):
            return False
        return Angle8(delta) == mbqc.blind_delta(phi, sX, sZ, theta, r)
    return Relation("blind-angle", predicate)
