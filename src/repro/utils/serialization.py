"""JSON (de)serialisation helpers that understand numpy scalars and arrays.

Two layers live here:

* :func:`save_json` / :func:`load_json` — plain pretty-printed JSON I/O that
  tolerates numpy scalars, arrays and dataclasses (arrays become lists, so
  dtype and shape are *not* preserved).
* :func:`encode_state` / :func:`decode_state` plus
  :func:`save_checkpoint` / :func:`load_checkpoint` — a lossless state
  round-trip used by the experiment checkpointing in
  :mod:`repro.experiments`.  Arrays keep their dtype, shape and exact
  bytes, and ``numpy.random.Generator`` objects keep their exact
  bit-generator state, so a restored search continues bit-identically.

The on-disk array record is the array's raw C-order bytes, base64-encoded
inline::

    {"__ndarray_b64__": "<base64>", "dtype": "<f8", "shape": [3, 4]}

``dtype`` is ``numpy.dtype.str`` (byte order included), so a checkpoint
decodes to the same bits on any host.  Base64 costs 4/3 of the raw bytes
and encodes at memory speed, where the decimal lists of earlier
checkpoints (``{"__ndarray__": [...], "dtype": "float64", ...}``) cost
~2.7x the raw bytes and a trip through Python's float printer per value;
:func:`decode_state` still reads those legacy records, so old checkpoints
resume unchanged.  Object-dtype arrays have no byte form and raise
``TypeError`` at encode time.

A checkpoint is one ``checkpoint.json`` written atomically (temp file +
rename).  Its top-level keys keep their insertion order on disk, so the
small leading keys ``Runner._checkpoint`` writes first — ``steps_completed``
and the scheduler ``score`` — sit inside the first 256 bytes, which is all
the results browser (``checkpoint_head``) reads.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import math
import os
import threading
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, List, Optional, Union

import numpy as np

_NDARRAY_KEY = "__ndarray_b64__"
_LEGACY_NDARRAY_KEY = "__ndarray__"
_RNG_KEY = "__np_generator__"
#: How ``json.dumps`` opens an array record's data string.  Inside a JSON
#: string a quote is escaped, so these bytes appear only as that dict key.
_RECORD_OPEN = f'"{_NDARRAY_KEY}": "'.encode("ascii")


def json_safe(value: Any) -> Any:
    """Replace non-finite floats with ``None``, recursively.

    ``json.dumps`` would otherwise emit bare ``NaN``/``Infinity`` tokens
    (invalid per RFC 8259), which non-Python consumers of the machine-
    readable surfaces reject outright.  Accuracy is legitimately NaN for
    ``retrain_final=false`` runs, so this must be handled, not forbidden.
    The documents of :mod:`repro.api` hold values passed through this;
    :func:`dumps_strict` applies the same nulling while it renders.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    return value


def dumps_strict(obj: Any) -> str:
    """The one strict-RFC-8259 encoder for JSON that leaves the process.

    The text is ``json.dumps(json_safe(obj), indent=2, allow_nan=False)``,
    byte for byte, on every value that call accepts, rendered in one pass
    instead of a nulling copy followed by the stdlib's pure-Python indenting
    encoder (``json.dumps`` uses its C encoder only without ``indent``):

    * non-finite floats (subclasses such as ``np.float64`` too) render as
      ``null`` as they are met, so no bare ``NaN``/``Infinity`` token can
      appear; a non-finite float *key* raises ``ValueError``, as it does
      under ``allow_nan=False``;
    * strings and keys are escaped by the stdlib's ``encode_basestring_ascii``
      (its C implementation when present), ints render as ``int.__repr__``
      and floats as ``float.__repr__``, so ``IntEnum`` members and
      ``np.float64`` values render as the numbers they are;
    * dict keys follow the stdlib's rules: ``str`` as is, ``float``, ``int``,
      ``bool`` and ``None`` as their JSON text, anything else ``TypeError``;
    * a value of any other type (a set, ``np.int64``) raises ``TypeError``
      and a container that contains itself raises ``ValueError``.

    The ``repro.api`` documents, the CLI ``--format json`` paths and every
    ``repro.serve`` response body all render through this function, so
    server and CLI outputs of the same document are byte-identical.
    """
    return _render(obj, "\n", set())


#: ``_quote`` is the string escaper ``json.dumps`` uses under ``ensure_ascii``
#: (the C one when present); these are the number reprs it writes.
_int_text = int.__repr__
_float_text = float.__repr__
_isfinite = math.isfinite


def _scalar_text(value: Any) -> Optional[str]:
    """The JSON text of a scalar, or ``None`` when ``value`` is not one.

    Checked in the stdlib encoder's order: ``bool`` is an ``int`` subclass.
    """
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return _int_text(value)
    if isinstance(value, float):
        return _float_text(value) if _isfinite(value) else "null"
    return None


def _key_text(key: Any) -> str:
    """A dict key as the quoted JSON string the stdlib encoder writes."""
    if isinstance(key, str):
        return _quote(key)
    if isinstance(key, float):
        if not _isfinite(key):
            raise ValueError(f"Out of range float values are not JSON compliant: {key!r}")
        return '"' + _float_text(key) + '"'
    if key is True:
        return '"true"'
    if key is False:
        return '"false"'
    if key is None:
        return '"null"'
    if isinstance(key, int):
        return '"' + _int_text(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _render(value: Any, newline: str, open_ids: set) -> str:
    """The JSON text of ``value`` starting on a line indented as ``newline``.

    ``newline`` is a newline plus that line's indent; ``open_ids`` holds the
    ids of the containers being rendered, the cycle check.  Items of the
    exact types ``float``, ``str`` and ``int`` (most of a document) render
    inline in the container loops; every other item goes through
    :func:`_scalar_text` or recurses.
    """
    is_dict = isinstance(value, dict)
    if not is_dict and not isinstance(value, (list, tuple)):
        text = _scalar_text(value)
        if text is None:
            raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")
        return text
    if not value:
        return "{}" if is_dict else "[]"
    marker = id(value)
    if marker in open_ids:
        raise ValueError("Circular reference detected")
    open_ids.add(marker)
    inner = newline + "  "
    texts: List[str] = []
    for key, item in value.items() if is_dict else enumerate(value):
        kind = type(item)
        if kind is float:
            text = _float_text(item) if _isfinite(item) else "null"
        elif kind is str:
            text = _quote(item)
        elif kind is int:
            text = _int_text(item)
        else:
            text = _scalar_text(item)
            if text is None:
                text = _render(item, inner, open_ids)
        if is_dict:
            text = (_quote(key) if type(key) is str else _key_text(key)) + ": " + text
        texts.append(text)
    open_ids.discard(marker)
    opening, closing = "{}" if is_dict else "[]"
    return opening + inner + ("," + inner).join(texts) + newline + closing


class _NumpyEncoder(json.JSONEncoder):
    """JSON encoder that converts numpy and dataclass values to plain Python."""

    def default(self, o: Any) -> Any:  # noqa: D102 - documented by json.JSONEncoder
        if isinstance(o, np.integer):
            return int(o)
        if isinstance(o, np.floating):
            return float(o)
        if isinstance(o, np.bool_):
            return bool(o)
        if isinstance(o, np.ndarray):
            return o.tolist()
        if dataclasses.is_dataclass(o) and not isinstance(o, type):
            return dataclasses.asdict(o)
        return super().default(o)


def save_json(obj: Any, path: Union[str, Path]) -> Path:
    """Serialise ``obj`` to ``path`` as pretty-printed JSON and return the path.

    Written atomically (temp file + rename): the work queue of
    :mod:`repro.experiments.sweep` treats the existence of ``result.json``
    as the run's done marker, so a worker killed mid-write must never leave
    a truncated file behind.
    """
    text = json.dumps(obj, indent=2, cls=_NumpyEncoder)
    write_atomic(path, [text.encode("utf-8")])
    return Path(path)


def write_atomic(path: Union[str, Path], chunks: Iterable[bytes]) -> os.stat_result:
    """Write ``chunks`` to ``path`` through a temp file + rename.

    Returns the ``fstat`` of the written file, taken before the rename: it
    describes this write's file even when another writer renames its own
    file into place right after (a ``stat`` of ``path`` could not tell).
    A rename keeps the inode, mtime and size, so a later ``stat`` of
    ``path`` that sees this file sees the same three values.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Per-process *and* per-thread temp name: two sweep workers racing on the
    # same run (a pathological lock takeover), or two ``repro.serve`` handler
    # threads rewriting the browser cache, each rename a complete file into
    # place.
    temporary = path.with_name(f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    with temporary.open("wb") as handle:
        for chunk in chunks:
            handle.write(chunk)
        handle.flush()
        written = os.fstat(handle.fileno())
    temporary.replace(path)
    return written


def load_json(path: Union[str, Path]) -> Any:
    """Load JSON from ``path``."""
    with Path(path).open("r", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Lossless state round-trip (checkpointing)
# ----------------------------------------------------------------------
def rng_state(rng: np.random.Generator) -> dict:
    """Capture the exact state of a numpy ``Generator`` as a JSON-safe dict.

    The bit-generator state is a nested dict of (arbitrarily large) Python
    integers, which JSON represents exactly.
    """
    return {_RNG_KEY: rng.bit_generator.state}


def restore_rng(
    state: Union[dict, np.random.Generator], into: Optional[np.random.Generator] = None
) -> np.random.Generator:
    """Rebuild (or restore in-place) a ``Generator`` from :func:`rng_state` output.

    ``state`` may also be another ``Generator`` (as produced by
    :func:`decode_state`), whose stream position is then copied.  Restoring
    in-place (``into``) is what checkpoint resume uses: every component that
    shares the generator object keeps drawing from the restored stream.
    """
    if isinstance(state, np.random.Generator):
        payload = state.bit_generator.state
    else:
        payload = state[_RNG_KEY] if _RNG_KEY in state else state
    if into is None:
        bit_generator_cls = getattr(np.random, payload["bit_generator"])
        into = np.random.Generator(bit_generator_cls())
    elif type(into.bit_generator).__name__ != payload["bit_generator"]:
        raise ValueError(
            f"cannot restore {payload['bit_generator']} state into a "
            f"{type(into.bit_generator).__name__} generator"
        )
    into.bit_generator.state = payload
    return into


def _b64(array: np.ndarray) -> bytes:
    """An array's C-order bytes, base64-encoded.

    ``ascontiguousarray`` turns a 0-d array into shape ``(1,)``: the record's
    shape comes from the original, the bytes from the C-order copy.
    """
    return base64.b64encode(np.ascontiguousarray(array))


def encode_state(obj: Any) -> Any:
    """Recursively convert a state object into a losslessly JSON-safe form.

    Arrays become ``{"__ndarray_b64__": ..., "dtype": ..., "shape": ...}``
    records holding their base64 C-order bytes (see the module docstring);
    generators become their bit-generator state; numpy scalars become
    Python scalars.  Dict keys must be strings.
    """
    return _encode(obj, lambda array: _b64(array).decode("ascii"))


def _encode(obj: Any, array_data: Callable[[np.ndarray], str]) -> Any:
    """:func:`encode_state` with each array record's data string from ``array_data``."""
    if isinstance(obj, np.ndarray):
        if obj.dtype.hasobject:
            raise TypeError(f"cannot losslessly encode {obj.dtype} arrays; they have no byte form")
        return {_NDARRAY_KEY: array_data(obj), "dtype": obj.dtype.str, "shape": list(obj.shape)}
    if isinstance(obj, np.random.Generator):
        return rng_state(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"state dict keys must be strings, got {key!r}")
        return {key: _encode(value, array_data) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(item, array_data) for item in obj]
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    # Fail here, at the offending value, rather than later inside json.dump
    # with no hint of which state entry was responsible.
    raise TypeError(
        f"cannot losslessly encode {type(obj).__name__!r} state; convert it to "
        f"plain scalars/dicts/arrays first (e.g. via as_dict())"
    )


def decode_state(obj: Any) -> Any:
    """Inverse of :func:`encode_state` (RNG records decode to fresh generators)."""
    if isinstance(obj, dict):
        if _NDARRAY_KEY in obj:
            # The copy owns its (aligned, writable) memory: optimiser steps
            # update restored parameters in place.
            raw = np.frombuffer(base64.b64decode(obj[_NDARRAY_KEY]), dtype=np.dtype(obj["dtype"]))
            return raw.reshape(tuple(obj["shape"])).copy()
        if _LEGACY_NDARRAY_KEY in obj:
            return np.array(obj[_LEGACY_NDARRAY_KEY], dtype=np.dtype(obj["dtype"])).reshape(
                tuple(obj["shape"])
            )
        if _RNG_KEY in obj:
            return restore_rng(obj)
        return {key: decode_state(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [decode_state(item) for item in obj]
    return obj


def save_checkpoint(state: Any, path: Union[str, Path]) -> Path:
    """Encode ``state`` losslessly and write it to ``path`` as JSON.

    The file is byte-identical to ``json.dumps(encode_state(state))`` but is
    streamed: one ``json.dumps`` call renders everything except the arrays'
    data (the C encoder, with every record's data string empty), and each
    array's base64 bytes go into the file between the pieces of that
    skeleton, one array at a time.  The skeleton's dict order is the order
    the arrays were collected in, so the ``n``-th record's data is the
    ``n``-th array's.  A write therefore holds one array's base64 at a time
    instead of all of them, the rendered document and its encoded bytes.

    The file is written atomically (temp file + rename) so a run killed
    mid-checkpoint never leaves a truncated checkpoint behind.
    """
    arrays: List[np.ndarray] = []

    def defer(array: np.ndarray) -> str:
        arrays.append(array)
        return ""

    pieces = json.dumps(_encode(state, defer)).encode("ascii").split(_RECORD_OPEN)
    if len(pieces) != len(arrays) + 1:
        raise ValueError(f"state dict key {_NDARRAY_KEY!r} is reserved for array records")

    def chunks() -> Iterator[bytes]:
        yield pieces[0]
        for array, piece in zip(arrays, pieces[1:]):
            yield _RECORD_OPEN
            yield _b64(array)
            yield piece

    write_atomic(path, chunks())
    return Path(path)


def load_checkpoint(path: Union[str, Path]) -> Any:
    """Load and decode a checkpoint written by :func:`save_checkpoint`."""
    return decode_state(load_json(path))
