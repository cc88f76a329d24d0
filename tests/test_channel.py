"""Channel layer: canonical encoding, framing, seq accounting, transcripts,
and transport equivalence."""

import socket
import struct
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from q2pc import channel, qsim
from q2pc.channel import (Message, Transcript, canonical_decode,
                          canonical_encode, first_divergence, frame_message,
                          inproc_pair, unframe_message)

SID = bytes(range(16))


# ------------------------------------------------------ canonical encoding

def test_roundtrip_basic_values():
    for v in (0, -5, 1 << 40, b"", b"abc", "hi", True, False, None,
              (1, b"x", ("y", 2)), []):
        got = canonical_decode(canonical_encode(v))
        want = tuple(v) if isinstance(v, list) else v
        assert got == want


classical = st.recursive(
    st.integers(min_value=-(1 << 62), max_value=(1 << 62)) | st.binary(max_size=64)
    | st.text(max_size=32) | st.booleans() | st.none(),
    lambda inner: st.lists(inner, max_size=4).map(tuple), max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(classical)
def test_roundtrip_property(value):
    assert canonical_decode(canonical_encode(value)) == value


def test_int_outside_64_bits_fails_closed():
    for value in (1 << 70, 1 << 63, -(1 << 63) - 1, (1, [1 << 64])):
        with pytest.raises(channel.ChannelError):
            canonical_encode(value)
    for value in ((1 << 63) - 1, -(1 << 63)):
        assert canonical_decode(canonical_encode(value)) == value


BAD_UTF8_ITEM = b"s" + (1).to_bytes(4, "little") + b"\xff"
DEEP_LISTS = (b"l" + (1).to_bytes(4, "little")) * 5000 + b"n"
BAD_UTF8_MSG_TYPE = (30).to_bytes(4, "big") + SID + bytes(8) + b"\x00" \
    + (3).to_bytes(2, "little") + b"\xff\xfe\xfd"


def test_malformed_payloads_raise_channel_error():
    for data in (BAD_UTF8_ITEM, DEEP_LISTS, DEEP_LISTS[5:]):
        with pytest.raises(channel.ChannelError):
            canonical_decode(data)
    with pytest.raises(channel.ChannelError):
        unframe_message(BAD_UTF8_MSG_TYPE)
    nested = ()
    for _ in range(channel.MAX_NESTING - 1):   # the innermost () is a list too
        nested = (nested,)
    assert canonical_decode(canonical_encode(nested)) == nested


def test_encode_refuses_what_decode_refuses():
    nested = ()
    for _ in range(channel.MAX_NESTING - 1):   # 64 levels: the innermost () counts
        nested = (nested,)
    assert canonical_decode(canonical_encode(nested)) == nested
    with pytest.raises(channel.ChannelError, match="nested too deeply"):
        canonical_encode((nested,))            # 65 levels
    with pytest.raises(channel.ChannelError, match="nested too deeply"):
        canonical_decode(b"l" + (1).to_bytes(4, "little") + canonical_encode(nested))


def _framed(body: bytes) -> bytes:
    return len(body).to_bytes(4, "big") + body


@settings(max_examples=400, deadline=None)
@given(st.binary(max_size=96) | st.binary(min_size=27, max_size=96).map(_framed))
@example(BAD_UTF8_ITEM)
@example(DEEP_LISTS)
@example(BAD_UTF8_MSG_TYPE)
def test_decoders_fail_closed_on_arbitrary_bytes(data):
    for decode in (canonical_decode, unframe_message):
        try:
            decode(data)
        except channel.ChannelError:
            pass


def test_statevector_has_no_serializer():
    with pytest.raises(TypeError):
        canonical_encode(qsim.plus_state())
    with pytest.raises(TypeError):
        canonical_encode((1, qsim.basis_state(1, 0)))
    with pytest.raises(TypeError):
        canonical_encode(1.5)


# ------------------------------------------------------------- framing

def test_frame_roundtrip():
    msg = Message(SID, 3, channel.ALICE, "oqfe.delta", canonical_encode((1, 2)))
    assert unframe_message(frame_message(msg)) == msg


def test_frame_length_mismatch_rejected():
    msg = frame_message(Message(SID, 0, channel.BOB, "t", b""))
    with pytest.raises(channel.FramingError):
        unframe_message(msg + b"\x00")


# ------------------------------------------------------------- endpoints

def test_loopback_send_recv():
    alice, bob = inproc_pair(SID)
    alice.send("delta", (4, b"pay"))
    msg = bob.expect("delta")
    assert msg.value() == (4, b"pay")
    assert msg.sender == channel.ALICE


def test_seq_alternation_agrees():
    alice, bob = inproc_pair(SID)
    for i in range(5):
        alice.send("a", i)
        assert bob.recv().seq == 2 * i
        bob.send("b", i)
        assert alice.recv().seq == 2 * i + 1


def test_out_of_order_injection_detected():
    alice, bob = inproc_pair(SID)
    fake = Message(SID, 7, channel.ALICE, "x", b"")
    bob._transport._in.put(frame_message(fake))
    with pytest.raises(channel.TamperError):
        bob.recv()


def test_wrong_session_detected():
    alice, bob = inproc_pair(SID)
    fake = Message(b"\xff" * 16, 0, channel.ALICE, "x", b"")
    bob._transport._in.put(frame_message(fake))
    with pytest.raises(channel.TamperError):
        bob.recv()


def test_peer_close_raises():
    alice, bob = inproc_pair(SID)
    alice.close()
    with pytest.raises(channel.PeerClosedError):
        bob.recv()


def test_stress_order_preserved():
    alice, bob = inproc_pair(SID)
    n = 10000
    for i in range(n):
        alice.send("n", i)
    for i in range(n):
        assert bob.recv().value() == i


# ------------------------------------------------------------ transcripts

def _run_session(values):
    alice, bob = inproc_pair(SID)
    for i, v in enumerate(values):
        if i % 2 == 0:
            alice.send("m", v)
            bob.recv()
        else:
            bob.send("m", v)
            alice.recv()
    return alice.transcript, bob.transcript


def test_both_parties_capture_identical_transcripts():
    ta, tb = _run_session([1, b"two", (3, 3)])
    assert first_divergence(ta, tb) is None


def test_transcript_file_roundtrip():
    ta, _ = _run_session([5, 6])
    ta.meta["profile"] = "tiny"
    again = Transcript.loads(ta.dumps())
    assert again.session_id == SID
    assert again.meta["profile"] == "tiny"
    assert first_divergence(ta, again) is None


def test_first_divergence_reported():
    ta, _ = _run_session([1, 2, 3])
    tb, _ = _run_session([1, 9, 3])
    assert first_divergence(ta, tb) == 1


def test_empty_transcript_file_rejected():
    for text in ("",
                 "not json\n",
                 "[1, 2]\n",                      # header not an object
                 '{"meta": 1}\n',                 # no session_id
                 '{"session_id": 7}\n',
                 '{"session_id": "zz"}\n',
                 '{"session_id": "00"}\nnot-hex\n'):
        with pytest.raises(channel.ChannelError):
            Transcript.loads(text)


def test_length_divergence_reported():
    ta, _ = _run_session([1, 2])
    tb, _ = _run_session([1, 2, 3])
    assert first_divergence(ta, tb) == 2


# ---------------------------------------------------------------- tcp

def test_tcp_transport_matches_inproc_bytes():
    host, port = "127.0.0.1", 39517
    results = {}

    def bob_side():
        bob = channel.tcp_listen(SID, channel.BOB, host, port)
        msg = bob.recv()
        bob.send("pong", msg.value() + 1)
        results["bob"] = bob.transcript
        bob.close()

    th = threading.Thread(target=bob_side)
    th.start()
    import time
    alice = None
    for _ in range(50):
        try:
            alice = channel.tcp_connect(SID, channel.ALICE, host, port)
            break
        except OSError:
            time.sleep(0.05)
    assert alice is not None
    alice.send("ping", 41)
    assert alice.expect("pong").value() == 42
    th.join()
    assert first_divergence(alice.transcript, results["bob"]) is None

    # inproc run of the same exchange yields byte-identical frames
    a2, b2 = inproc_pair(SID)
    a2.send("ping", 41)
    b2.recv()
    b2.send("pong", 42)
    a2.recv()
    assert first_divergence(alice.transcript, a2.transcript) is None


def test_tcp_oversized_frame_fails_closed():
    """A peer announcing a 4 GiB frame is refused before any body is read;
    the receive timeout turns a transport that trusts the length (and
    waits for the body) into a failure instead of a hang."""
    sender, receiver = socket.socketpair()
    receiver.settimeout(5)
    try:
        sender.sendall(struct.pack(">I", 2 ** 32 - 1))
        ep = channel.Endpoint(SID, channel.BOB, channel._TcpTransport(receiver))
        with pytest.raises(channel.ChannelError, match="MAX_FRAME_BYTES"):
            ep.recv()
    finally:
        sender.close()
        receiver.close()
