"""Classical channel between Alice and Bob: ordered, reliable, classical-only,
with two transports (in-process queues, TCP) and full transcript capture.

Only classical values can transit: payloads are built by canonical_encode,
which accepts ints, bytes, strings, booleans, None, and (possibly nested)
lists/tuples of those, and raises TypeError for anything else -- there is no
serializer for quantum state types, so quantum data cannot leak through the
channel by construction.  Ints must fit in signed 64 bits, and both encoding
and decoding refuse lists nested deeper than MAX_NESTING; out-of-range
values, over-deep lists and malformed bytes raise ChannelError.

Wire format, designed for bit-exact replay: a 4-byte big-endian frame length,
then session_id (16 bytes), seq (8 bytes LE), sender (1 byte, 0=alice
1=bob), msg_type (2-byte LE length + UTF-8), payload bytes.  seq counts all
messages on the session (sent plus received at each endpoint), so the two
endpoints of an alternating protocol agree on it; a gap or repeat raises
TamperError.

Transcript files are diff-able: one JSON header line, then one lowercase-hex
framed message per line.
"""

from __future__ import annotations

import json
import queue
import socket
import struct
from dataclasses import dataclass, field

ALICE = "alice"
BOB = "bob"
_SENDER_CODE = {ALICE: 0, BOB: 1}
_SENDER_NAME = {0: ALICE, 1: BOB}
MAX_NESTING = 64


class ChannelError(Exception):
    pass


class PeerClosedError(ChannelError):
    pass


class FramingError(ChannelError):
    pass


class TamperError(ChannelError):
    """Sequence gap or reordering: evidence of channel manipulation."""


# ------------------------------------------------------ canonical encoding

def canonical_encode(value, _depth: int = 0) -> bytes:
    """Self-describing classical-only encoding; rejects non-classical types
    and, as the decoder does, lists nested deeper than MAX_NESTING."""
    if value is None:
        return b"n"
    if isinstance(value, bool):
        return b"t" if value else b"f"
    if isinstance(value, int):
        try:
            return b"i" + int(value).to_bytes(8, "little", signed=True)
        except OverflowError:
            raise ChannelError("integer outside the signed 64-bit range") from None
    if isinstance(value, bytes):
        return b"b" + len(value).to_bytes(4, "little") + value
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return b"s" + len(raw).to_bytes(4, "little") + raw
    if isinstance(value, (list, tuple)):
        if _depth >= MAX_NESTING:
            raise ChannelError("payload lists nested too deeply")
        body = b"".join(canonical_encode(v, _depth + 1) for v in value)
        return b"l" + len(value).to_bytes(4, "little") + body
    raise TypeError(
        f"only classical values can transit the channel, not {type(value).__name__}")


def _decode_one(data: bytes, pos: int, depth: int = 0):
    tag = data[pos:pos + 1]
    pos += 1
    if tag == b"n":
        return None, pos
    if tag == b"t":
        return True, pos
    if tag == b"f":
        return False, pos
    if tag == b"i":
        return int.from_bytes(data[pos:pos + 8], "little", signed=True), pos + 8
    if tag in (b"b", b"s"):
        ln = int.from_bytes(data[pos:pos + 4], "little")
        raw = data[pos + 4:pos + 4 + ln]
        if len(raw) != ln:
            raise FramingError("truncated payload item")
        return (raw if tag == b"b" else _utf8(raw)), pos + 4 + ln
    if tag == b"l":
        if depth >= MAX_NESTING:
            raise FramingError("payload lists nested too deeply")
        count = int.from_bytes(data[pos:pos + 4], "little")
        pos += 4
        items = []
        for _ in range(count):
            item, pos = _decode_one(data, pos, depth + 1)
            items.append(item)
        return tuple(items), pos
    raise FramingError(f"unknown payload tag {tag!r}")


def _utf8(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise FramingError("invalid UTF-8 in payload") from None


def canonical_decode(data: bytes):
    value, pos = _decode_one(data, 0)
    if pos != len(data):
        raise FramingError("trailing bytes in payload")
    return value


# --------------------------------------------------------------- messages

@dataclass(frozen=True)
class Message:
    session_id: bytes
    seq: int
    sender: str
    msg_type: str
    payload: bytes

    def value(self):
        return canonical_decode(self.payload)


def frame_message(msg: Message) -> bytes:
    mt = msg.msg_type.encode("utf-8")
    body = (msg.session_id + msg.seq.to_bytes(8, "little")
            + bytes([_SENDER_CODE[msg.sender]])
            + len(mt).to_bytes(2, "little") + mt + msg.payload)
    return len(body).to_bytes(4, "big") + body


def unframe_message(frame: bytes) -> Message:
    if len(frame) < 4:
        raise FramingError("short frame")
    ln = int.from_bytes(frame[:4], "big")
    body = frame[4:]
    if len(body) != ln or ln < 16 + 8 + 1 + 2:
        raise FramingError("frame length mismatch")
    session_id = body[:16]
    seq = int.from_bytes(body[16:24], "little")
    sender_code = body[24]
    if sender_code not in _SENDER_NAME:
        raise FramingError("bad sender code")
    mt_len = int.from_bytes(body[25:27], "little")
    if 27 + mt_len > ln:
        raise FramingError("truncated message type")
    mt = _utf8(body[27:27 + mt_len])
    payload = body[27 + mt_len:]
    return Message(session_id, seq, _SENDER_NAME[sender_code], mt, payload)


# -------------------------------------------------------------- transcript

@dataclass
class Transcript:
    session_id: bytes
    meta: dict = field(default_factory=dict)
    messages: list = field(default_factory=list)   # Message, session order

    def append(self, msg: Message):
        self.messages.append(msg)

    def dumps(self) -> str:
        header = dict(self.meta)
        header["session_id"] = self.session_id.hex()
        lines = [json.dumps(header, sort_keys=True)]
        lines += [frame_message(m).hex() for m in self.messages]
        return "\n".join(lines) + "\n"

    @staticmethod
    def loads(text: str) -> "Transcript":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ChannelError("empty transcript file")
        header = json.loads(lines[0])
        t = Transcript(bytes.fromhex(header.pop("session_id")), header)
        for ln in lines[1:]:
            t.append(unframe_message(bytes.fromhex(ln)))
        return t


def first_divergence(a: Transcript, b: Transcript):
    """None if byte-identical, else the first differing seq number."""
    fa = [frame_message(m) for m in a.messages]
    fb = [frame_message(m) for m in b.messages]
    for i, (x, y) in enumerate(zip(fa, fb)):
        if x != y:
            return a.messages[i].seq
    if len(fa) != len(fb):
        longer = a if len(fa) > len(fb) else b
        return longer.messages[min(len(fa), len(fb))].seq
    return None


# -------------------------------------------------------------- endpoints

class Endpoint:
    """One party's end of a session channel; blocking send/recv, transcript
    capture of both directions, strict seq accounting."""

    def __init__(self, session_id: bytes, role: str, transport):
        if role not in _SENDER_CODE:
            raise ChannelError(f"unknown role {role!r}")
        self.session_id = session_id
        self.role = role
        self._transport = transport
        self._next_seq = 0
        self.transcript = Transcript(session_id)

    def send(self, msg_type: str, value) -> None:
        payload = canonical_encode(value)
        msg = Message(self.session_id, self._next_seq, self.role, msg_type, payload)
        self._next_seq += 1
        self.transcript.append(msg)
        self._transport.send_bytes(frame_message(msg))

    def recv(self) -> Message:
        frame = self._transport.recv_bytes()
        msg = unframe_message(frame)
        if msg.session_id != self.session_id:
            raise TamperError("message from a different session")
        if msg.sender == self.role:
            raise TamperError("received a message carrying our own sender id")
        if msg.seq != self._next_seq:
            raise TamperError(f"sequence gap: expected {self._next_seq}, got {msg.seq}")
        self._next_seq += 1
        self.transcript.append(msg)
        return msg

    def expect(self, msg_type: str) -> Message:
        msg = self.recv()
        if msg.msg_type != msg_type:
            raise ChannelError(f"expected {msg_type!r}, got {msg.msg_type!r}")
        return msg

    def close(self):
        self._transport.close()


class _InprocTransport:
    def __init__(self, out_q: queue.Queue, in_q: queue.Queue):
        self._out = out_q
        self._in = in_q
        self._closed = False

    def send_bytes(self, data: bytes):
        if self._closed:
            raise PeerClosedError("endpoint closed")
        self._out.put(data)

    def recv_bytes(self) -> bytes:
        data = self._in.get()
        if data is None:
            raise PeerClosedError("peer closed the channel")
        return data

    def close(self):
        if not self._closed:
            self._closed = True
            self._out.put(None)


def inproc_pair(session_id: bytes) -> tuple[Endpoint, Endpoint]:
    """(alice endpoint, bob endpoint) over in-process queues."""
    a2b: queue.Queue = queue.Queue()
    b2a: queue.Queue = queue.Queue()
    alice = Endpoint(session_id, ALICE, _InprocTransport(a2b, b2a))
    bob = Endpoint(session_id, BOB, _InprocTransport(b2a, a2b))
    return alice, bob


class _TcpTransport:
    def __init__(self, sock: socket.socket):
        self._sock = sock

    def send_bytes(self, data: bytes):
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise PeerClosedError(str(exc)) from exc

    def _recv_exact(self, n: int) -> bytes:
        buf = b""
        while len(buf) < n:
            chunk = self._sock.recv(n - len(buf))
            if not chunk:
                raise PeerClosedError("peer closed the connection")
            buf += chunk
        return buf

    def recv_bytes(self) -> bytes:
        head = self._recv_exact(4)
        (ln,) = struct.unpack(">I", head)
        return head + self._recv_exact(ln)

    def close(self):
        try:
            self._sock.close()
        except OSError:
            pass


def tcp_listen(session_id: bytes, role: str, host: str, port: int) -> Endpoint:
    """Block for one connection; Bob is conventionally the listener."""
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    srv.bind((host, port))
    srv.listen(1)
    conn, _ = srv.accept()
    srv.close()
    return Endpoint(session_id, role, _TcpTransport(conn))


def tcp_connect(session_id: bytes, role: str, host: str, port: int) -> Endpoint:
    sock = socket.create_connection((host, port))
    return Endpoint(session_id, role, _TcpTransport(sock))
