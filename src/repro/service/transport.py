"""Network transport: length-prefixed, checksummed JSON frames over TCP.

This is the wire layer that lets :class:`~repro.service.scheduler.
CampaignService` and its workers live in different processes on
different hosts.  One frame is::

    +-------+----------------+----------------+----------------+
    | magic | payload length | CRC32(payload) |  JSON payload  |
    | 4 B   | 4 B big-endian | 4 B big-endian |  length bytes  |
    +-------+----------------+----------------+----------------+

and one payload is a type-tagged JSON object encoding exactly one
protocol message (:mod:`repro.service.protocol`).  JSON (not pickle) is
deliberate: a corrupted or hostile frame can at worst fail to decode --
it can never execute code in the scheduler -- and the format is
language-inspectable on the wire.

The failure envelope is typed (:mod:`repro.errors`):

* :class:`~repro.errors.FrameError` -- the frame arrived whole but its
  checksum or JSON payload is bad.  Framing survived, so the receiver
  discards exactly this frame, notifies the peer (``NackMsg``), bumps
  ``service.transport.frame_errors``, and keeps reading;
* :class:`~repro.errors.ConnectionLostError` -- EOF or a socket error
  mid-frame (torn write), a read stalled past ``frame_timeout_s`` (a
  half-open peer), a bad magic number, or an impossible length
  (desynchronization).  Nothing later on this connection can be framed
  safely: the receiver drops it and lease expiry / reconnection take
  over.

Floats survive the JSON round trip exactly (CPython serializes
``repr(float)``, which round-trips bit-for-bit), so records shipped
over TCP remain byte-identical to records computed locally -- the
property every identity test in this repo leans on.

:func:`corrupt_frame` and :func:`truncate_frame` are the deterministic
wire-fault injectors the chaos harness uses: pure functions of
``(frame, seed)`` that produce, respectively, a checksum-failing frame
of the correct length and a torn frame prefix.
"""

from __future__ import annotations

import dataclasses
import json
import socket
import struct
import threading
import zlib
from typing import Any, Optional, Tuple

from repro.dram.config import DRAMConfig, DRAMTiming
from repro.errors import ConnectionLostError, FrameError
from repro.experiments.campaign import MappingSpec
from repro.service.protocol import (
    CellAssignment,
    CellTask,
    CompletionMsg,
    GoodbyeMsg,
    HeartbeatMsg,
    HelloMsg,
    NackMsg,
    RegisteredMsg,
    ShutdownMsg,
)
from repro.utils.prng import derive_key

#: First bytes of every frame; a receiver seeing anything else is
#: desynchronized and must drop the connection.
MAGIC = b"RBX1"

#: magic | payload length | CRC32 -- both integers big-endian.
HEADER = struct.Struct("!4sII")

#: Hard ceiling on one frame's payload.  Completions are small dicts
#: (records plus a metric-delta snapshot); anything past this is a
#: desynchronized or hostile stream, not a real message.
MAX_FRAME_BYTES = 8 * 1024 * 1024


# ---------------------------------------------------------------------------
# JSON codec for protocol messages
# ---------------------------------------------------------------------------
#: Dataclasses that may appear *inside* message fields (assignment
#: payloads carry mapping specs and the DRAM config).
_VALUE_TYPES = {
    cls.__name__: cls for cls in (CellTask, DRAMConfig, DRAMTiming, MappingSpec)
}

#: Top-level message types, by wire tag.
_MESSAGE_TYPES = {
    cls.__name__: cls
    for cls in (
        CellAssignment,
        CompletionMsg,
        GoodbyeMsg,
        HeartbeatMsg,
        HelloMsg,
        NackMsg,
        RegisteredMsg,
        ShutdownMsg,
    )
}

_DC_TAG = "__dc__"


def to_wire(value: Any) -> Any:
    """Encode one value as JSON-compatible data (type-tagged dataclasses)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        name = type(value).__name__
        if name not in _VALUE_TYPES and name not in _MESSAGE_TYPES:
            raise FrameError(
                f"dataclass {name} is not registered for the wire", kind="encode"
            )
        fields = {
            field.name: to_wire(getattr(value, field.name))
            for field in dataclasses.fields(value)
            if field.init and not field.name.startswith("_")
        }
        return {_DC_TAG: name, "fields": fields}
    if isinstance(value, dict):
        return {str(key): to_wire(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_wire(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise FrameError(
        f"value of type {type(value).__name__} is not wire-encodable",
        kind="encode",
    )


def from_wire(value: Any) -> Any:
    """Decode :func:`to_wire` data back into protocol/value objects."""
    if isinstance(value, dict):
        tag = value.get(_DC_TAG)
        if tag is None:
            return {key: from_wire(item) for key, item in value.items()}
        cls = _MESSAGE_TYPES.get(tag) or _VALUE_TYPES.get(tag)
        if cls is None:
            raise FrameError(f"unknown wire dataclass tag '{tag}'", kind="decode")
        fields = value.get("fields")
        if not isinstance(fields, dict):
            raise FrameError(f"wire dataclass '{tag}' has no fields", kind="decode")
        try:
            return cls(**{key: from_wire(item) for key, item in fields.items()})
        except (TypeError, ValueError) as error:
            raise FrameError(
                f"cannot rebuild {tag}: {error}", kind="decode"
            ) from error
    if isinstance(value, list):
        return [from_wire(item) for item in value]
    return value


def encode_payload(message: Any) -> bytes:
    """One protocol message -> JSON payload bytes (no frame header)."""
    if type(message).__name__ not in _MESSAGE_TYPES:
        raise FrameError(
            f"{type(message).__name__} is not a protocol message", kind="encode"
        )
    return json.dumps(to_wire(message), separators=(",", ":")).encode()


def decode_payload(payload: bytes) -> Any:
    """JSON payload bytes -> protocol message (raises FrameError)."""
    try:
        data = json.loads(payload.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise FrameError(f"payload is not valid JSON: {error}", kind="decode") from error
    message = from_wire(data)
    if type(message).__name__ not in _MESSAGE_TYPES:
        raise FrameError(
            "payload decoded to a non-message value"
            f" ({type(message).__name__})",
            kind="decode",
        )
    return message


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------
def encode_frame(payload: bytes) -> bytes:
    """Wrap payload bytes in a header (magic, length, CRC32)."""
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"payload of {len(payload)} bytes exceeds the"
            f" {MAX_FRAME_BYTES}-byte frame ceiling",
            kind="encode",
            size=len(payload),
        )
    return HEADER.pack(MAGIC, len(payload), zlib.crc32(payload)) + payload


def encode_message(message: Any) -> bytes:
    """One protocol message -> one complete frame."""
    return encode_frame(encode_payload(message))


def corrupt_frame(frame: bytes, seed: int = 0) -> bytes:
    """Flip one deterministic payload byte; the CRC will catch it.

    The header (and therefore the framing) is left intact, so a
    receiver detects a checksum failure on exactly this frame and keeps
    the stream alive -- the recoverable half of the wire-fault envelope.
    """
    if len(frame) <= HEADER.size:
        raise ValueError("frame has no payload bytes to corrupt")
    body = bytearray(frame)
    offset = HEADER.size + derive_key(seed, "corrupt", 32) % (len(frame) - HEADER.size)
    flip = 1 + derive_key(seed, "corrupt-bit", 32) % 255
    body[offset] ^= flip
    return bytes(body)


def truncate_frame(frame: bytes, seed: int = 0) -> bytes:
    """A strict prefix of the frame (a torn write / half-open socket).

    At least one byte is kept and at least one is cut, so the receiver
    always sees a stalled or torn frame -- the unrecoverable half of the
    envelope -- never an accidentally-valid empty send.
    """
    if len(frame) < 2:
        raise ValueError("frame too short to truncate")
    keep = 1 + derive_key(seed, "truncate", 32) % (len(frame) - 1)
    return frame[:keep]


# ---------------------------------------------------------------------------
# Framed socket
# ---------------------------------------------------------------------------
class FramedSocket:
    """One TCP connection speaking framed protocol messages.

    Sends are serialized under a lock (heartbeat pumps and the main
    thread share the connection); receives are single-reader by
    construction (each side dedicates one thread to reading).

    Args:
        sock: A connected TCP socket (ownership transfers here).
        frame_timeout_s: Per-frame progress deadline.  A read that makes
            *no* progress for this long while idle returns ``None`` from
            :meth:`recv` (benign -- the caller loops); a read stalled
            **mid-frame** this long raises
            :class:`~repro.errors.ConnectionLostError` -- a half-open
            peer cannot hold the connection hostage.
    """

    def __init__(self, sock: socket.socket, *, frame_timeout_s: float = 30.0) -> None:
        self._sock = sock
        self.frame_timeout_s = frame_timeout_s
        sock.settimeout(frame_timeout_s)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - e.g. AF_UNIX in tests
            pass
        self._send_lock = threading.Lock()
        self._closed = False

    # -- lifecycle ------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def fileno(self) -> int:
        return self._sock.fileno()

    def peername(self) -> str:
        try:
            peer = self._sock.getpeername()
        except OSError:
            return "?"
        return f"{peer[0]}:{peer[1]}" if isinstance(peer, tuple) else str(peer)

    # -- sending --------------------------------------------------------
    def send(self, message: Any) -> None:
        """Frame and send one message (thread-safe; raises OSError)."""
        self.send_bytes(encode_message(message))

    def send_bytes(self, frame: bytes) -> None:
        """Send pre-encoded frame bytes verbatim (the chaos hook).

        The wire-fault layer uses this to put deliberately corrupt or
        truncated frames on a *real* socket, so the receiver-side
        detection being tested is the production code path.
        """
        if self._closed:
            raise OSError("connection already closed")
        with self._send_lock:
            self._sock.sendall(frame)

    # -- receiving ------------------------------------------------------
    def recv(self) -> Optional[Any]:
        """Receive one message; ``None`` on an idle timeout.

        Raises:
            FrameError: checksum or payload decode failed (frame
                discarded; the stream is still usable).
            ConnectionLostError: EOF, torn/stalled frame, or
                desynchronization (the stream is unusable).
        """
        header = self._read_exact(HEADER.size, idle_ok=True)
        if header is None:
            return None
        magic, length, crc = HEADER.unpack(header)
        if magic != MAGIC:
            raise ConnectionLostError(
                "bad frame magic (stream desynchronized)",
                kind="bad-magic",
                magic=magic.hex(),
            )
        if length > MAX_FRAME_BYTES:
            raise ConnectionLostError(
                f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte"
                " ceiling (stream desynchronized)",
                kind="oversized",
                length=length,
            )
        payload = self._read_exact(length, idle_ok=False)
        if zlib.crc32(payload) != crc:
            raise FrameError(
                "frame checksum mismatch",
                kind="checksum",
                expected=crc,
                actual=zlib.crc32(payload),
            )
        return decode_payload(payload)

    def _read_exact(self, n: int, *, idle_ok: bool) -> Optional[bytes]:
        """Read exactly n bytes; None on an idle timeout when allowed."""
        chunks = []
        remaining = n
        while remaining:
            try:
                chunk = self._sock.recv(remaining)
            except socket.timeout:
                if idle_ok and remaining == n:
                    return None  # no frame started; benign
                raise ConnectionLostError(
                    f"read stalled mid-frame for {self.frame_timeout_s}s"
                    " (half-open peer?)",
                    kind="stalled",
                    wanted=n,
                    got=n - remaining,
                ) from None
            except OSError as error:
                raise ConnectionLostError(
                    f"socket error while reading: {error}", kind="socket"
                ) from error
            if not chunk:
                raise ConnectionLostError(
                    "peer closed the connection"
                    + ("" if remaining == n else " mid-frame (torn write)"),
                    kind="eof" if remaining == n else "torn",
                    wanted=n,
                    got=n - remaining,
                )
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)


# ---------------------------------------------------------------------------
# Connection helpers
# ---------------------------------------------------------------------------
def parse_address(address: str) -> Tuple[str, int]:
    """``"host:port"`` -> ``(host, port)`` with validation."""
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address must be HOST:PORT, got {address!r}")
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(f"address port must be an integer, got {address!r}") from None


def listen_socket(address: str, *, backlog: int = 16) -> socket.socket:
    """A bound, listening TCP socket for the scheduler side."""
    host, port = parse_address(address)
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, port))
    sock.listen(backlog)
    return sock


def connect(
    address: str, *, frame_timeout_s: float = 30.0, connect_timeout_s: float = 5.0
) -> FramedSocket:
    """Dial the scheduler; returns a ready :class:`FramedSocket`."""
    host, port = parse_address(address)
    sock = socket.create_connection((host, port), timeout=connect_timeout_s)
    return FramedSocket(sock, frame_timeout_s=frame_timeout_s)


__all__ = [
    "HEADER",
    "MAGIC",
    "MAX_FRAME_BYTES",
    "FramedSocket",
    "connect",
    "corrupt_frame",
    "decode_payload",
    "encode_frame",
    "encode_message",
    "encode_payload",
    "from_wire",
    "listen_socket",
    "parse_address",
    "to_wire",
    "truncate_frame",
]
