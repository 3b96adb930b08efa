"""Pure-stdlib Avro object-container WRITER (the encode mirror of
directives/avro_reader.py, which reads the public Avro 1.x format: magic
'Obj\\x01', metadata map with avro.schema/avro.codec, 16-byte sync markers,
varint/zigzag-framed blocks).

Exists so driver queries can author deterministic .avro payloads end to end
without any Avro runtime — the same self-authored-fixture approach as
ops/xlsx.py (OOXML) and ops/avi.py (RIFF video). Supports the primitive +
record/array/map/union/enum/fixed subset the reader decodes.
"""

from __future__ import annotations

import json
import logging
import struct

logger = logging.getLogger(__name__)


def _zigzag_long(v: int) -> bytes:
    u = (v << 1) ^ (v >> 63) if v < 0 else v << 1
    out = bytearray()
    while True:
        b = u & 0x7F
        u >>= 7
        if u:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def _encode(value, schema, out: bytearray, promoted: set | None = None) -> None:
    """Append the Avro binary encoding of ``value`` under ``schema`` to
    ``out``; a union under which a bool was written as a number is added
    to ``promoted`` (as its JSON) when one is given."""
    if isinstance(schema, str):
        t = schema
        if t == "null":
            return
        if t == "boolean":
            out += b"\x01" if value else b"\x00"
        elif t in ("int", "long"):
            out += _zigzag_long(int(value))
        elif t == "float":
            out += struct.pack("<f", float(value))
        elif t == "double":
            out += struct.pack("<d", float(value))
        elif t == "bytes":
            b = bytes(value)
            out += _zigzag_long(len(b)) + b
        elif t == "string":
            b = str(value).encode()
            out += _zigzag_long(len(b)) + b
        else:
            raise ValueError(f"unknown avro type {t!r}")
        return
    if isinstance(schema, list):  # union: pick the branch matching the VALUE
        # TYPE — blindly taking the first non-null branch silently coerces
        # (e.g. an int encoded via the string branch for ["null","string",
        # "long"]), producing valid-looking but wrong-typed Avro
        def _matches(v, branch) -> bool:
            bt = branch if isinstance(branch, str) else branch.get("type")
            if bt == "null":
                return v is None
            if v is None:
                return False
            if bt == "boolean":
                return isinstance(v, bool)
            if bt in ("int", "long"):
                return isinstance(v, int) and not isinstance(v, bool)
            if bt in ("float", "double"):
                # ints are acceptable float/double payloads (Avro promotes)
                return isinstance(v, (float, int)) and not isinstance(v, bool)
            if bt in ("string", "enum"):
                return isinstance(v, str)
            if bt in ("bytes", "fixed"):
                return isinstance(v, (bytes, bytearray))
            if bt in ("record", "error", "map"):
                return isinstance(v, dict)
            if bt == "array":
                return isinstance(v, (list, tuple))
            return False

        for i, branch in enumerate(schema):
            if _matches(value, branch):
                out += _zigzag_long(i)
                if not (isinstance(branch, str) and branch == "null"):
                    _encode(value, branch, out, promoted)
                return
        # promotion pass: a bool with no boolean branch promotes to a
        # numeric branch (bool IS an int in Python, and pre-r4 writers
        # accepted True under ["null","long"] — keep that accepted)
        if isinstance(value, bool):
            for i, branch in enumerate(schema):
                bt = branch if isinstance(branch, str) else branch.get("type")
                if bt in ("int", "long", "float", "double"):
                    out += _zigzag_long(i)
                    _encode(int(value), branch, out, promoted)
                    if promoted is not None:
                        promoted.add(json.dumps(schema))
                    return
        raise ValueError(
            f"no union branch in {schema!r} matches value of type "
            f"{type(value).__name__}"
        )
    t = schema["type"]
    if t in ("record", "error"):
        for f in schema["fields"]:
            _encode(value[f["name"]], f["type"], out, promoted)
    elif t == "enum":
        out += _zigzag_long(schema["symbols"].index(value))
    elif t == "array":
        if value:
            out += _zigzag_long(len(value))
            for v in value:
                _encode(v, schema["items"], out, promoted)
        out += _zigzag_long(0)
    elif t == "map":
        if value:
            out += _zigzag_long(len(value))
            for k, v in value.items():
                kb = str(k).encode()
                out += _zigzag_long(len(kb)) + kb
                _encode(v, schema["values"], out, promoted)
        out += _zigzag_long(0)
    elif t == "fixed":
        b = bytes(value)
        if len(b) != schema["size"]:
            raise ValueError("fixed value has wrong size")
        out += b
    else:
        _encode(value, t, out, promoted)  # {"type": "long"} wrapper form


def write_container(schema: dict, records: list[dict],
                    sync: bytes = b"wrangler-ray-syn", codec: str = "null",
                    records_per_block: int = 1000) -> bytes:
    """Encode records as an Avro object-container file (codec null|deflate).
    A bool under a union without a boolean branch is written as 1/0 under
    its first numeric branch; one warning per call names those unions."""
    if len(sync) != 16:
        raise ValueError("sync marker must be 16 bytes")
    out = bytearray(b"Obj\x01")
    meta = {
        "avro.schema": json.dumps(schema).encode(),
        "avro.codec": codec.encode(),
    }
    out += _zigzag_long(len(meta))
    for k, v in meta.items():
        kb = k.encode()
        out += _zigzag_long(len(kb)) + kb
        out += _zigzag_long(len(v)) + v
    out += _zigzag_long(0)
    out += sync
    promoted: set = set()
    for i in range(0, len(records), records_per_block):
        block = records[i : i + records_per_block]
        body = bytearray()
        for rec in block:
            _encode(rec, schema, body, promoted)
        payload = bytes(body)
        if codec == "deflate":
            import zlib

            payload = zlib.compress(payload)[2:-4]  # raw deflate, no zlib wrap
        elif codec != "null":
            raise ValueError(f"unsupported codec {codec!r}")
        out += _zigzag_long(len(block))
        out += _zigzag_long(len(payload))
        out += payload
        out += sync
    if promoted:
        logger.warning(
            "avro: bool value(s) written as 1/0 under union(s) with no "
            "boolean branch: %s", ", ".join(sorted(promoted)),
        )
    return bytes(out)
