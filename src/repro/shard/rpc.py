"""Length-prefixed message framing for the shard worker protocol.

One message = a 4-byte little-endian length followed by a pickled
payload.  Requests are plain tuples ``(verb, *operands)``; replies are
``("ok", result, durable_lsn)`` or ``("err", class_name, message,
durable_lsn)``.  The last field is the shard log's durable high-water
mark read *after* the command ran: the router's outcome-aware retry
needs it before every state-changing command, and riding on the reply
that exists anyway it costs no message of its own.  Errors cross the
process boundary by *name*, not by pickling the exception object —
several taxonomy classes take structured constructor arguments that do
not survive ``pickle``'s default exception reduction.

The protocol is strict request/reply: at most one frame is in flight
per direction, so a small frame's header and body arrive in one
``recv``.  :func:`recv_msg` relies on that — bytes *after* a complete
frame are a protocol violation, not the start of the next message.
Every framing or decoding failure is a :class:`ConnectionError`; after
one the byte stream is out of step and the socket must be closed.
"""

from __future__ import annotations

import pickle
import struct

_LEN = struct.Struct("<I")

#: hard cap on one message body; a corrupt length prefix must not make
#: the receiver try to allocate gigabytes
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

#: first read of a frame; requests and all but scan/batch/export
#: replies fit, so the common frame costs one system call
_FIRST_READ = 64 * 1024


def send_msg(sock, obj) -> None:  # noqa: ANN001
    """Serialize ``obj`` and write one length-prefixed frame."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_LEN.pack(len(payload)) + payload)


def recv_msg(sock):  # noqa: ANN001, ANN201
    """Read one frame; returns the object, or ``None`` on clean EOF."""
    data = sock.recv(_FIRST_READ)
    if not data:
        return None  # clean EOF between frames
    while len(data) < _LEN.size:
        data += _recv_some(sock, _FIRST_READ)
    (length,) = _LEN.unpack_from(data)
    if length > MAX_MESSAGE_BYTES:
        raise ConnectionError(f"oversized rpc frame: {length} bytes")
    end = _LEN.size + length
    if len(data) < end:
        frame = bytearray(data)
        while len(frame) < end:
            frame += _recv_some(sock, end - len(frame))
        data = frame
    elif len(data) > end:
        raise ConnectionError(
            f"{len(data) - end} bytes follow a complete rpc frame")
    try:
        return pickle.loads(memoryview(data)[_LEN.size:])
    except Exception as exc:  # noqa: BLE001 - unpickling garbage raises anything
        raise ConnectionError(f"undecodable rpc frame: {exc!r}") from exc


def _recv_some(sock, limit: int) -> bytes:  # noqa: ANN001
    chunk = sock.recv(limit)
    if not chunk:
        raise ConnectionError("connection closed mid-frame")
    return chunk


# ----------------------------------------------------------------------
# Error marshalling
# ----------------------------------------------------------------------
def marshal_error(exc: BaseException) -> tuple[str, str]:
    """Flatten an exception into ``(class_name, message)``."""
    return type(exc).__name__, str(exc)


def unmarshal_error(name: str, message: str) -> Exception:
    """Rehydrate a worker-side error into the closest taxonomy class.

    Classes are resolved from :mod:`repro.errors` (and the lock
    manager's conflict types); anything unresolvable — or whose
    constructor wants more than a message — comes back as a
    :class:`repro.errors.ShardError` carrying the original name.
    """
    import repro.errors as errors_mod
    import repro.txn.locks as locks_mod

    for mod in (errors_mod, locks_mod):
        cls = getattr(mod, name, None)
        if (isinstance(cls, type) and issubclass(cls, Exception)):
            try:
                return cls(message)
            except TypeError:
                break
    return errors_mod.ShardError(f"{name}: {message}")
