import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from q2pc import primitives as pr


SEED = b"\x01" * 32


def test_coin_source_deterministic():
    a = pr.coin_source(SEED, "t")
    b = pr.coin_source(SEED, "t")
    assert a.bits(1024) == b.bits(1024)


def test_coin_source_distinct_tags():
    a = pr.coin_source(SEED, "tag-a")
    b = pr.coin_source(SEED, "tag-b")
    assert a.bits(128) != b.bits(128)


def test_coin_source_bounded_uniform():
    src = pr.coin_source(SEED, "u")
    counts = [0] * 4
    n = 10_000
    for _ in range(n):
        v = src.randint(4)
        assert 0 <= v < 4
        counts[v] += 1
    # chi-squared against uniform, 3 dof; 11.34 is the 0.01 cutoff
    chi2 = sum((c - n / 4) ** 2 / (n / 4) for c in counts)
    assert chi2 < 11.34


def test_child_sources_independent():
    src = pr.coin_source(SEED, "parent")
    assert src.child("x").bits(128) != src.child("y").bits(128)


def test_commit_roundtrip():
    src = pr.coin_source(SEED, "c")
    com, dec = pr.commit(b"hello", src)
    assert pr.verify_commitment(com, dec, b"hello")
    assert not pr.verify_commitment(com, dec, b"hellp")


def test_commit_flipped_bit_rejects():
    src = pr.coin_source(SEED, "c2")
    for i in range(1000):
        msg = src.take_bytes(8)
        com, dec = pr.commit(msg, src)
        flipped = bytes([msg[0] ^ 1]) + msg[1:]
        assert not pr.verify_commitment(com, dec, flipped)


def test_commit_randomized():
    src = pr.coin_source(SEED, "c3")
    coms = {pr.commit(b"m", src)[0] for _ in range(1000)}
    assert len(coms) == 1000


def test_otp_roundtrip_and_empty():
    src = pr.coin_source(SEED, "k")
    key = pr.fresh_sym_key(src)
    ct = pr.otp_encrypt(key, b"payload", b"n0")
    assert pr.otp_decrypt(key, ct, b"n0") == b"payload"
    assert pr.otp_encrypt(key, b"", b"n1") == b""


def test_otp_nonce_reuse_rejected():
    key = pr.fresh_sym_key(pr.coin_source(SEED, "k2"))
    pr.otp_encrypt(key, b"a", b"n")
    with pytest.raises(pr.NonceReuseError):
        pr.otp_encrypt(key, b"b", b"n")


def test_otp_streams_differ_across_nonces():
    src = pr.coin_source(SEED, "k3")
    key = pr.fresh_sym_key(src)
    m = b"\x00" * 32
    streams = {pr.otp_encrypt(key, m, i.to_bytes(4, "little")) for i in range(1000)}
    assert len(streams) == 1000


@settings(max_examples=50)
@given(st.binary(min_size=0, max_size=4096))
def test_otp_mac_roundtrip_property(msg):
    src = pr.coin_source(SEED, "prop")
    key = pr.fresh_sym_key(src)
    assert pr.otp_decrypt(key, pr.otp_encrypt(key, msg, b"x"), b"x") == msg


def test_binding_smoke():
    # birthday smoke over full digests; a collision here means the hash broke
    src = pr.coin_source(SEED, "bind")
    seen = {}
    for i in range(100_000):
        com = pr.sha256(i.to_bytes(8, "little"))
        assert com not in seen
        seen[com] = i
