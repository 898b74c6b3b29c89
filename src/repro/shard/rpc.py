"""Checksummed struct frames for the shard worker protocol.

One message = a ``u32`` little-endian count of the bytes that follow,
the body, and the CRC-32 of everything before it (``u32``, so a frame's
CRC-32 over all of its bytes is the constant residue ``0x2144DF1C`` and
a receiver checks it without slicing).  Requests are plain tuples
``(verb, *operands)``; replies are ``("ok", result, durable_lsn)`` or
``("err", class_name, message, fields, durable_lsn)``.  The last field
is the shard log's durable high-water mark read *after* the command
ran: the router's outcome-aware retry needs it before every
state-changing command, and riding on the reply that exists anyway it
costs no message of its own.  It is durable, not appended: a
``resolve`` that commits appends its phase-two COMMIT unforced, so the
mark in its reply lies below that record until a later force hardens
it (the retry probe passes over such a COMMIT,
:meth:`repro.shard.worker.ShardWorker._cmd_outcome_since`).  Errors
cross the process boundary as data, not as objects
(:func:`marshal_error`): the class name, the message and the instance
fields the codec can carry, rebuilt on the router side into the same
taxonomy class.

The body's first byte says how the rest is laid out.  The messages of
the warm path have precompiled shapes — the ``get``, ``put``, ``delete``
and ``batch`` requests, the transaction verbs' requests
(``_OPERANDS``) and the ``("ok", bytes | None | bool | int | word,
lsn)`` replies — and every other message is one *tagged value*
(``_VALUE``): None, bool, int, float, str, bytes, tuple, list and dict,
nested, the protocol's own words one byte each (``_WORDS``).  A
value of any other type cannot cross the wire: :func:`encode` refuses
it with a :class:`repro.errors.ShardError` before a byte is sent.  The
layout of each shape is fixed by the structs below, in the idiom of
:mod:`repro.wal.records`; a shape is only used when the message fits it
exactly (a ``put`` of a ``str`` value travels as a tagged value), so
every message decodes to what was encoded, type for type.

The protocol is strict request/reply: at most one frame is in flight
per direction on a connection, so a small frame arrives in one
``recv``.  :func:`recv_msg` relies on that — bytes *after* a complete
frame are a protocol violation, not the start of the next message.
Every framing or decoding failure, a CRC mismatch included, is a
:class:`ConnectionError`; after one the byte stream is out of step and
the socket must be closed.  Decoding runs no code the bytes name: a
worker bug, or a flipped bit, can fail a call but never make the router
execute anything.
"""

from __future__ import annotations

import enum
import inspect
import struct
import typing
from zlib import crc32

from repro.errors import ShardError

#: the CRC-32 of a whole frame, its own trailing CRC included
_RESIDUE = 0x2144DF1C

#: hard cap on one message body; a corrupt length prefix must not make
#: the receiver try to allocate gigabytes
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

#: first read of a frame; requests and all but scan/batch/export
#: replies fit, so the common frame costs one system call
_FIRST_READ = 64 * 1024

# Body shapes: the body's first byte, at offset 4 of the frame.
_VALUE = 0      # any message: one tagged value
_GET = 1        # ("get", key): key
_PUT = 2        # ("put", key, value): u16 key length, key, value
_DELETE = 3     # ("delete", key): key
_BATCH = 4      # ("batch", [op, ...]): u32 count, then per op an _OP
#                 header (put 0 | delete 1, u16 key length, u32 value
#                 length), key, value
_OK_BYTES = 5   # ("ok", value, lsn): i64 lsn, value
_OK_NONE = 6    # ("ok", None, lsn): i64 lsn
_OK_TRUE = 7    # ("ok", True, lsn): i64 lsn
_OK_FALSE = 8   # ("ok", False, lsn): i64 lsn
_OK_INT = 9     # ("ok", value, lsn): i64 lsn, i64 value
_OK_WORD = 10   # ("ok", word, lsn): i64 lsn, u8 index into _WORDS
_VERB = 11      # (verb, *operands) of a verb in _OPERANDS: u8 index
#                 into _WORDS, the int and bool operands and each bytes
#                 operand's u32 length, then the bytes operands

#: frame prefixes: the count and the shape byte, and the fixed fields
#: of the shapes that have them
_HEAD = struct.Struct("<IB")
_HEAD_U16 = struct.Struct("<IBH")
_HEAD_U32 = struct.Struct("<IBI")
_HEAD_I64 = struct.Struct("<IBq")
_HEAD_I64_I64 = struct.Struct("<IBqq")
_HEAD_I64_U8 = struct.Struct("<IBqB")
_OP = struct.Struct("<BHI")
_U16 = struct.Struct("<H")
#: a frame's leading count of the bytes that follow it, its trailing CRC
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_COUNT_SIZE = _CRC_SIZE = _U32.size
#: offsets of the shape byte and of a body's first field
_SHAPE_AT, _FIELDS_AT = _COUNT_SIZE, _HEAD.size
#: where a put's key and a reply's value start
_PUT_KEY_AT, _OK_VALUE_AT = _HEAD_U16.size, _HEAD_I64.size
#: a frame's count for each shape, less its variable bytes
_KEY_COUNT = 1 + _CRC_SIZE
_PUT_COUNT = _PUT_KEY_AT - _COUNT_SIZE + _CRC_SIZE
_OK_COUNT = _OK_VALUE_AT - _COUNT_SIZE + _CRC_SIZE
_OK_INT_COUNT = _OK_COUNT + _I64.size
_OK_WORD_COUNT = _OK_COUNT + 1
_VALUE_BYTE = bytes((_VALUE,))
_OK_FIXED = {None: _OK_NONE, True: _OK_TRUE, False: _OK_FALSE}
_OK_FIXED_VALUE = {_OK_NONE: None, _OK_TRUE: True, _OK_FALSE: False}

# Value tags of a ``_VALUE`` body.
_T_NONE, _T_FALSE, _T_TRUE = 0, 1, 2
_T_INT = 3      # i64
_T_BIGINT = 4   # u32 length, signed little-endian bytes
_T_FLOAT = 5    # f64
_T_BYTES = 6    # u32 length, bytes
_T_STR = 7      # u32 length, UTF-8
_T_TUPLE = 8    # u32 count, items
_T_LIST = 9     # u32 count, items
_T_DICT = 10    # u32 count, key and value per entry
_T_WORD = 11    # u8 index into _WORDS
_TAG_U32 = struct.Struct("<BI")
_TAG_I64 = struct.Struct("<Bq")
_TAG_F64 = struct.Struct("<Bd")
_NONE_BYTE, _FALSE_BYTE, _TRUE_BYTE = (
    bytes((tag,)) for tag in (_T_NONE, _T_FALSE, _T_TRUE))
_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1
#: the protocol's own words — the verbs, the reply statuses, restart
#: modes — travel as one byte each; any other str is spelled out.
#: Append only: the index is the encoding.
_WORDS = (
    "ok", "err", "ping", "pong", "get", "put", "delete", "batch", "scan",
    "txn_get", "txn_put", "txn_delete", "txn_commit", "txn_abort",
    "prepare", "resolve", "indoubt", "set_slots", "owned_slots",
    "grant_slot", "drop_slot", "export_slot", "import_slot", "slot_delta",
    "outcome_since", "locks", "crash", "restart", "finish_restart",
    "checkpoint", "drain", "stats", "close", "eager", "on_demand")
_WORD_CODES = {word: bytes((_T_WORD, i)) for i, word in enumerate(_WORDS)}
_WORD_INDEX = {word: i for i, word in enumerate(_WORDS)}
#: the operands of the transaction verbs and ``ping``, one letter each
#: — ``q`` an int, ``?`` a bool, ``s`` bytes — for the ``_VERB`` shape
_OPERANDS = {
    "ping": "", "txn_get": "qs", "txn_put": "qss?", "txn_delete": "qs?",
    "txn_commit": "q", "txn_abort": "q", "prepare": "qq", "resolve": "q?"}


def _verb_shape(verb: str, letters: str) -> tuple:
    """``verb``'s ``_VERB`` layout: its word index, the struct of the
    frame's fixed part, the operands' types, the positions of the bytes
    operands, and the frame's count less those bytes."""
    shape = struct.Struct("<IBB" + letters.replace("s", "I"))
    return (_WORD_INDEX[verb], shape,
            tuple({"q": int, "?": bool, "s": bytes}[c] for c in letters),
            tuple(i for i, c in enumerate(letters) if c == "s"),
            shape.size + _CRC_SIZE - _COUNT_SIZE)


_VERB_SHAPES = {verb: _verb_shape(verb, letters)
                for verb, letters in _OPERANDS.items()}


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def encode(message) -> bytes:  # noqa: ANN001
    """One frame.  A value the codec cannot carry is refused with
    :class:`ShardError` before anything is sent."""
    data = None
    if type(message) is tuple:
        try:
            size = len(message)
            if size == 3:
                verb, value, last = message
                kind = type(value)
                if verb == "ok" and type(last) is int:
                    if kind is bytes:
                        data = _HEAD_I64.pack(len(value) + _OK_COUNT,
                                              _OK_BYTES, last) + value
                    elif kind is int:
                        data = _HEAD_I64_I64.pack(_OK_INT_COUNT, _OK_INT,
                                                  last, value)
                    elif value is None or kind is bool:
                        data = _HEAD_I64.pack(_OK_COUNT, _OK_FIXED[value],
                                              last)
                    elif kind is str and value in _WORD_INDEX:
                        data = _HEAD_I64_U8.pack(_OK_WORD_COUNT, _OK_WORD,
                                                 last, _WORD_INDEX[value])
                elif verb == "put" and kind is bytes and type(last) is bytes:
                    data = _HEAD_U16.pack(len(value) + len(last) + _PUT_COUNT,
                                          _PUT, len(value)) + value + last
            elif size == 2:
                verb, key = message
                if type(key) is bytes and (verb == "get" or verb == "delete"):
                    data = _HEAD.pack(len(key) + _KEY_COUNT,
                                      _GET if verb == "get" else _DELETE
                                      ) + key
                elif verb == "batch" and type(key) is list:
                    data = _batch_frame(key)
            if data is None and size and message[0] in _VERB_SHAPES:
                data = _verb_frame(message)
        except (struct.error, TypeError):
            data = None  # a length or an LSN the shape cannot hold, or
            #              an unhashable first item
    if data is None:
        data = _value_frame(message)
    if len(data) > MAX_MESSAGE_BYTES:
        raise ShardError(f"rpc message of {len(data)} bytes exceeds "
                         f"the {MAX_MESSAGE_BYTES}-byte frame limit")
    return data + _U32.pack(crc32(data))


def _verb_frame(message: tuple) -> bytes | None:
    """A ``_VERB`` frame but its CRC, or ``None`` when the operands are
    not exactly the verb's (the request then travels as a tagged
    value)."""
    word, shape, types, blobs, count = _VERB_SHAPES[message[0]]
    operands = message[1:]
    if tuple(map(type, operands)) != types:
        return None
    if not blobs:
        return shape.pack(count, _VERB, word, *operands)
    fields, parts = list(operands), [None]
    for i in blobs:
        blob = operands[i]
        fields[i] = len(blob)
        parts.append(blob)
        count += len(blob)
    parts[0] = shape.pack(count, _VERB, word, *fields)
    return b"".join(parts)


def _value_frame(message) -> bytes:  # noqa: ANN001
    """A ``_VALUE`` frame but its CRC."""
    parts = [b"", _VALUE_BYTE]
    try:
        _put_value(message, parts)
    except struct.error as exc:
        raise ShardError(
            f"a value too large for the shard wire: {exc}") from exc
    parts[0] = _U32.pack(sum(map(len, parts)) + _CRC_SIZE)
    return b"".join(parts)


def _batch_frame(ops: list) -> bytes | None:
    """A ``_BATCH`` frame but its CRC: one header per op and one join;
    ``None`` when an op is not exactly ``("put", bytes, bytes)`` or
    ``("delete", bytes)`` (the batch then travels as a tagged value)."""
    parts = [b"", _U32.pack(len(ops))]
    size = _HEAD_U32.size + _U32.size
    pack = _OP.pack
    for op in ops:
        if type(op) is not tuple or len(op) < 2 or type(op[1]) is not bytes:
            return None
        key = op[1]
        if len(op) == 3 and op[0] == "put" and type(op[2]) is bytes:
            value = op[2]
            parts += (pack(0, len(key), len(value)), key, value)
            size += _OP.size + len(key) + len(value)
        elif len(op) == 2 and op[0] == "delete":
            parts += (pack(1, len(key), 0), key)
            size += _OP.size + len(key)
        else:
            return None
    parts[0] = _HEAD.pack(size - _COUNT_SIZE, _BATCH)
    return b"".join(parts)


def _put_value(value, out: list) -> None:  # noqa: ANN001
    """Append the tagged encoding of ``value`` to ``out``."""
    kind = type(value)
    if kind is bytes:
        out += (_TAG_U32.pack(_T_BYTES, len(value)), value)
    elif kind is str:
        word = _WORD_CODES.get(value)
        if word is not None:
            out.append(word)
            return
        try:
            raw = value.encode()
        except UnicodeEncodeError as exc:
            raise ShardError(f"a str that is not UTF-8 cannot cross "
                             f"the shard wire: {exc}") from exc
        out += (_TAG_U32.pack(_T_STR, len(raw)), raw)
    elif kind is int:
        if _I64_MIN <= value <= _I64_MAX:
            out.append(_TAG_I64.pack(_T_INT, value))
        else:
            raw = value.to_bytes(value.bit_length() // 8 + 1, "little",
                                 signed=True)
            out += (_TAG_U32.pack(_T_BIGINT, len(raw)), raw)
    elif kind is tuple or kind is list:
        out.append(_TAG_U32.pack(_T_TUPLE if kind is tuple else _T_LIST,
                                 len(value)))
        for item in value:
            _put_value(item, out)
    elif value is None:
        out.append(_NONE_BYTE)
    elif kind is bool:
        out.append(_TRUE_BYTE if value else _FALSE_BYTE)
    elif kind is float:
        out.append(_TAG_F64.pack(_T_FLOAT, value))
    elif kind is dict:
        out.append(_TAG_U32.pack(_T_DICT, len(value)))
        for key, item in value.items():
            _put_value(key, out)
            _put_value(item, out)
    else:
        raise ShardError(
            f"a {kind.__name__} cannot cross the shard wire")


def send_msg(sock, obj) -> None:  # noqa: ANN001
    """Encode ``obj`` and write one frame."""
    sock.sendall(encode(obj))


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------
def recv_msg(sock):  # noqa: ANN001, ANN201
    """Read one frame; returns the message, or ``None`` on clean EOF."""
    data = sock.recv(_FIRST_READ)
    try:
        return decode(data)  # the common case: the whole frame at once
    except ConnectionError:
        if not data:
            return None  # clean EOF between frames
    while len(data) < _COUNT_SIZE:
        data += _recv_some(sock, _FIRST_READ)
    (count,) = _U32.unpack_from(data)
    if count > MAX_MESSAGE_BYTES:
        raise ConnectionError(f"oversized rpc frame: {count} bytes")
    end = _COUNT_SIZE + count
    if len(data) >= end:
        # Complete, yet undecodable; or bytes after it, which strict
        # request/reply never sends.
        return decode(data)
    frame = bytearray(data)
    while len(frame) < end:
        frame += _recv_some(sock, end - len(frame))
    return decode(bytes(frame))


def _recv_some(sock, limit: int) -> bytes:  # noqa: ANN001
    chunk = sock.recv(limit)
    if not chunk:
        raise ConnectionError("connection closed mid-frame")
    return chunk


def decode(frame: bytes):  # noqa: ANN201
    """The message in one complete frame.  Anything else — a count
    that disagrees with the frame, a CRC mismatch, an unknown shape or
    tag, a field that runs past the body, bytes after it — is a
    :class:`ConnectionError`."""
    try:
        if crc32(frame) != _RESIDUE:
            raise ValueError("checksum mismatch")
        end = len(frame) - _CRC_SIZE  # where the body ends
        if end >= _OK_VALUE_AT:
            # a reply's LSN read with the count and the shape, whatever
            # the shape (a key's bytes, for a request, and unused)
            count, kind, lsn = _HEAD_I64.unpack_from(frame)
        else:
            count, kind = _HEAD.unpack_from(frame)
        if count != end or end <= _SHAPE_AT:
            raise ValueError(f"frame of {len(frame)} bytes counts {count}")
        if kind == _OK_BYTES:
            if end >= _OK_VALUE_AT:
                return ("ok", frame[_OK_VALUE_AT:end], lsn)
        elif kind == _GET:
            return ("get", frame[_FIELDS_AT:end])
        elif kind == _PUT:
            (key_len,) = _U16.unpack_from(frame, _FIELDS_AT)
            split = _PUT_KEY_AT + key_len
            if split <= end:
                return ("put", frame[_PUT_KEY_AT:split], frame[split:end])
        elif kind == _OK_INT:
            if count == _OK_INT_COUNT:
                _, _, lsn, value = _HEAD_I64_I64.unpack_from(frame)
                return ("ok", value, lsn)
        elif kind == _VERB:
            return _verb_request(frame, end)
        elif kind in _OK_FIXED_VALUE:
            if count == _OK_COUNT:
                return ("ok", _OK_FIXED_VALUE[kind], lsn)
        elif kind == _DELETE:
            return ("delete", frame[_FIELDS_AT:end])
        elif kind == _OK_WORD:
            if count == _OK_WORD_COUNT:
                return ("ok", _WORDS[_HEAD_I64_U8.unpack_from(frame)[3]],
                        lsn)
        elif kind == _BATCH:
            return ("batch", _batch_ops(frame[:end]))
        elif kind == _VALUE:
            value, pos = _take_value(frame[:end], _FIELDS_AT)
            if pos == end:
                return value
        raise ValueError(f"a body of shape {kind} does not fit its "
                         f"{end - _FIELDS_AT} bytes")
    except Exception as exc:  # noqa: BLE001 - hostile bytes raise anything
        raise ConnectionError(f"undecodable rpc frame: {exc!r}") from exc


def _verb_request(frame: bytes, end: int) -> tuple:
    """The request in a ``_VERB`` frame whose body ends at ``end``."""
    verb = _WORDS[frame[_FIELDS_AT]]
    _, shape, _, blobs, _ = _VERB_SHAPES[verb]
    pos = shape.size
    if not blobs:
        if pos == end:
            return (verb, *shape.unpack_from(frame)[3:])
    else:
        fields = list(shape.unpack_from(frame)[3:])
        for i in blobs:
            size = fields[i]
            fields[i] = frame[pos:pos + size]
            pos += size
        if pos == end:
            return (verb, *fields)
    raise ValueError(f"a {verb} request's operands end at {pos}, "
                     f"its body at {end}")


def _batch_ops(body: bytes) -> list[tuple]:
    """The ops of a ``_BATCH`` frame's ``body`` (its CRC cut off)."""
    (count,) = _U32.unpack_from(body, _FIELDS_AT)
    pos = _HEAD_U32.size
    if count * _OP.size > len(body) - pos:
        raise ValueError(f"{count} batch ops cannot fit the body")
    ops = []
    unpack = _OP.unpack_from
    for _ in range(count):
        kind, key_len, value_len = unpack(body, pos)
        pos += _OP.size
        end = pos + key_len + value_len
        if end > len(body):
            raise ValueError("batch op runs past the body")
        key = body[pos:pos + key_len]
        if kind == 0:
            ops.append(("put", key, body[pos + key_len:end]))
        elif kind == 1 and value_len == 0:
            ops.append(("delete", key))
        else:
            raise ValueError(f"bad batch op kind {kind}")
        pos = end
    if pos != len(body):
        raise ValueError(f"{len(body) - pos} bytes follow the batch")
    return ops


def _take_value(data: bytes, pos: int):  # noqa: ANN202
    """The tagged value at ``pos`` of ``data`` and the position after
    it; ``data`` ends where the value's body does."""
    tag = data[pos]
    pos += 1
    if tag == _T_WORD:
        return _WORDS[data[pos]], pos + 1
    if tag == _T_INT:
        return _I64.unpack_from(data, pos)[0], pos + _I64.size
    if tag <= _T_TRUE:
        return (None, False, True)[tag], pos
    if tag == _T_FLOAT:
        return _F64.unpack_from(data, pos)[0], pos + _F64.size
    (size,) = _U32.unpack_from(data, pos)
    pos += _U32.size
    if size > len(data) - pos:
        raise ValueError(f"tag {tag} wants {size} of {len(data) - pos} "
                         f"remaining bytes")
    if tag == _T_BYTES:
        return data[pos:pos + size], pos + size
    if tag == _T_STR:
        return str(data[pos:pos + size], "utf-8"), pos + size
    if tag == _T_TUPLE or tag == _T_LIST:
        items = []
        for _ in range(size):
            item, pos = _take_value(data, pos)
            items.append(item)
        return (tuple(items) if tag == _T_TUPLE else items), pos
    if tag == _T_DICT:
        entries = {}
        for _ in range(size):
            key, pos = _take_value(data, pos)
            entries[key], pos = _take_value(data, pos)
        return entries, pos
    if tag == _T_BIGINT:
        return int.from_bytes(data[pos:pos + size], "little",
                              signed=True), pos + size
    raise ValueError(f"unknown value tag {tag}")


# ----------------------------------------------------------------------
# Error marshalling
# ----------------------------------------------------------------------
def marshal_error(exc: BaseException) -> tuple[str, str, dict]:
    """Flatten an exception into ``(class_name, message, fields)``:
    ``fields`` are its instance attributes (``txn_id``, ``key``,
    ``holder``, ``shard``, ``slot``, ``kind``, ...), an enum as its
    value.  An exception with a field the codec cannot carry crosses as
    the :class:`repro.errors.ShardError` an unknown class becomes, so
    no class arrives without a field its readers expect."""
    fields = {}
    for name, value in vars(exc).items():
        if isinstance(value, enum.Enum):
            value = value.value
        try:
            _put_value(value, [])
        except ShardError:
            return "ShardError", f"{type(exc).__name__}: {exc}", {}
        fields[name] = value
    return type(exc).__name__, str(exc), fields


def _enum_fields(cls: type) -> dict[str, type]:
    """The parameters of ``cls``'s constructor annotated with an enum
    type (a :class:`~repro.errors.SinglePageFailure`'s ``kind``)."""
    init = cls.__init__
    if not inspect.isfunction(init):
        return {}
    return {name: hint for name, hint in typing.get_type_hints(init).items()
            if isinstance(hint, type) and issubclass(hint, enum.Enum)}


def unmarshal_error(name: str, message: str,
                    fields: dict | None = None) -> Exception:
    """Rebuild a worker-side error as the same taxonomy class.

    Classes are resolved from :mod:`repro.errors` (and the lock
    manager's conflict types).  The instance is made without running
    ``__init__`` — several classes take structured arguments and
    format their own message — so it carries the worker's message
    verbatim and the marshalled fields, an enum field rebuilt from its
    value through the constructor's annotation.  An unresolvable name,
    or an enum value its type does not know, comes back as a
    :class:`repro.errors.ShardError` carrying it.
    """
    import repro.errors as errors_mod
    import repro.txn.locks as locks_mod

    for mod in (errors_mod, locks_mod):
        cls = getattr(mod, name, None)
        if isinstance(cls, type) and issubclass(cls, Exception):
            fields = dict(fields or {})
            try:
                for field, kind in _enum_fields(cls).items():
                    if field in fields:
                        fields[field] = kind(fields[field])
            except ValueError:
                break
            exc = cls.__new__(cls)
            exc.args = (message,)
            exc.__dict__.update(fields)
            return exc
    return errors_mod.ShardError(f"{name}: {message}")
