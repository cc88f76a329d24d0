"""Classical crypto building blocks: hash commitments, PRG-stream encryption
and deterministic coin sources.

All randomness in the repository flows through CoinSource so that every
protocol run is replayable from a 32-byte seed.  The hash is SHA-256
throughout; the PRG is the SHA-256 counter stream.  Commitments are
com = H(msg || dec) with a fresh 32-byte dec: computationally binding and
hiding under standard hash assumptions, which is all the protocols need
(no ZK circuit ever runs over the commitment, so no algebraic structure
is required).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

HASH_LEN = 32
COM_DEC_LEN = 32
SYM_KEY_LEN = 32


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


class NonceReuseError(Exception):
    """A (key, nonce) pair was used twice for stream encryption."""


class CoinSource:
    """Deterministic stream of bits / bounded integers / bytes.

    Expansion is SHA-256 over (seed || tag || counter); distinct domain tags
    give independent streams from one seed.  Single-owner: not thread safe.
    """

    def __init__(self, seed: bytes, domain_tag: str):
        if len(seed) != 32:
            raise ValueError("seed must be 32 bytes")
        self._key = sha256(seed + b"|" + domain_tag.encode())
        self._tag = domain_tag
        self._counter = 0
        self._buf = b""

    def take_bytes(self, n: int) -> bytes:
        while len(self._buf) < n:
            block = sha256(self._key + self._counter.to_bytes(8, "little"))
            self._counter += 1
            self._buf += block
        out, self._buf = self._buf[:n], self._buf[n:]
        return out

    def bit(self) -> int:
        return self.take_bytes(1)[0] & 1

    def bits(self, k: int) -> int:
        """k random bits as an integer (bit i from byte stream, LSB first)."""
        if k == 0:
            return 0
        nbytes = (k + 7) // 8
        v = int.from_bytes(self.take_bytes(nbytes), "little")
        return v & ((1 << k) - 1)

    def randint(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        k = max(1, (bound - 1).bit_length())
        while True:
            v = self.bits(k)
            if v < bound:
                return v

    def uniform(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return self.bits(53) / float(1 << 53)

    def child(self, tag: str) -> "CoinSource":
        """Independent sub-source; used to give protocol phases their own streams."""
        return CoinSource(self._key, "child|" + tag)


def coin_source(seed: bytes, domain_tag: str) -> CoinSource:
    return CoinSource(seed, domain_tag)


# ---------------------------------------------------------------- commitments

def commit(msg: bytes, randomness: CoinSource) -> tuple[bytes, bytes]:
    dec = randomness.take_bytes(COM_DEC_LEN)
    com = sha256(msg + dec)
    return com, dec


def verify_commitment(com: bytes, dec: bytes, msg: bytes) -> bool:
    return sha256(msg + dec) == com


# ----------------------------------------------------------------- encryption

@dataclass
class SymKey:
    sk: bytes
    _used_nonces: set = field(default_factory=set, repr=False, compare=False)

    def __post_init__(self):
        if len(self.sk) != SYM_KEY_LEN:
            raise ValueError("SymKey must be exactly 32 bytes")


def _prg_stream(key: bytes, nonce: bytes, n: int) -> bytes:
    out = b""
    i = 0
    while len(out) < n:
        out += sha256(b"prg|" + key + b"|" + nonce + b"|" + i.to_bytes(8, "little"))
        i += 1
    return out[:n]


def otp_encrypt(key: SymKey, msg: bytes, nonce: bytes) -> bytes:
    if nonce in key._used_nonces:
        raise NonceReuseError(f"nonce {nonce.hex()} already used under this key")
    key._used_nonces.add(nonce)
    stream = _prg_stream(key.sk, nonce, len(msg))
    return bytes(a ^ b for a, b in zip(msg, stream))


def otp_decrypt(key: SymKey, ciphertext: bytes, nonce: bytes) -> bytes:
    # decryption does not consume the nonce: the receiver may re-derive
    stream = _prg_stream(key.sk, nonce, len(ciphertext))
    return bytes(a ^ b for a, b in zip(ciphertext, stream))


def fresh_sym_key(randomness: CoinSource) -> SymKey:
    return SymKey(randomness.take_bytes(SYM_KEY_LEN))


def xor_bytes(a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        raise ValueError("length mismatch")
    return bytes(x ^ y for x, y in zip(a, b))
