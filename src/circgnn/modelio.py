"""JSON serialization of model configs and weights.

A weight entry is a single object {rows, cols, block_size, defining_vectors}
with the vectors flattened row-major over (block_row, block_col, offset).
block_size == 1 is the dense sentinel: every block is 1x1, so the payload is
simply the dense matrix row-major.  Plain vectors (biases, attention scoring
vectors) use the same shape with cols == 1 and block_size == 1.  Sizes must
be JSON integers and values a flat list of finite numbers (no text,
booleans, nulls or nesting); anything else is an InputParseError.  A weight
file's layer objects hold the slots of ``LayerWeights``, the per-head slots
as lists.  ``load_weights`` turns each entry's values into an array as soon
as the decoder closes the entry, so only one entry's Python floats are alive
at a time.
"""

from __future__ import annotations

import json

import numpy as np

from .circulant import BlockCirculantMatrix, block_counts
from .errors import InputParseError, SchemaError
from .gnn import VECTOR_SLOTS, GnnModelConfig, LayerWeights, Variant, map_slots


def _read_json(path, object_hook=None) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh, object_hook=object_hook)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputParseError(f"{path}: invalid JSON: {exc}") from exc


def _require(doc: dict, key: str, context: str):
    if key not in doc:
        raise SchemaError(f"{context}: missing field {key!r}")
    return doc[key]


def load_model_config(path) -> GnnModelConfig:
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: model config must be an object")
    ctx = str(path)
    given = {key: _require(doc, key, ctx) for key in ("variant", "dims", "sample_sizes")}
    given.update({k: doc[k] for k in ("block_size", "gat_heads", "gat_head_dim") if k in doc})
    try:
        return GnnModelConfig(**given)
    except (TypeError, ValueError, SchemaError) as exc:  # e.g. an unknown Variant value
        raise SchemaError(f"{ctx}: {exc}") from exc


def save_model_config(config: GnnModelConfig, path) -> None:
    doc = {
        "variant": config.variant.value,
        "dims": [list(d) for d in config.dims],
        "sample_sizes": list(config.sample_sizes),
        "block_size": config.block_size,
    }
    if config.variant is Variant.GAT:
        doc["gat_heads"] = config.gat_heads
        doc["gat_head_dim"] = config.gat_head_dim
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def weight_entry(weight) -> dict:
    """Serialize a dense array, vector, or block-circulant matrix."""
    if isinstance(weight, BlockCirculantMatrix):
        return {
            "rows": weight.rows,
            "cols": weight.cols,
            "block_size": weight.block_size,
            "defining_vectors": weight.defining_vectors.ravel().tolist(),
        }
    arr = np.asarray(weight, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise SchemaError(f"cannot serialize weight of ndim {arr.ndim}")
    return {
        "rows": int(arr.shape[0]),
        "cols": int(arr.shape[1]),
        "block_size": 1,
        "defining_vectors": arr.ravel().tolist(),
    }


def _integer(doc: dict, key: str, context: str) -> int:
    value = _require(doc, key, context)
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputParseError(f"{context}: {key} must be an integer, got {value!r}")
    return value


def _flat_numbers(raw) -> np.ndarray | None:
    """raw as a float64 array if it is a flat list of numbers, booleans excluded; else None."""
    if isinstance(raw, np.ndarray) and raw.dtype == np.float64 and raw.ndim == 1:
        return raw  # the load hook's array: it passed this test as the entry was decoded
    try:  # no dtype, so that text, booleans, nulls and nesting show in kind and ndim
        flat = np.asarray(raw)
    except ValueError:  # ragged nesting
        return None
    if (
        flat.dtype.kind not in "iuf"
        or flat.ndim != 1
        # numpy reads booleans among numbers as 0 and 1, so only those entries can be one
        or any(type(raw[i]) is bool for i in np.flatnonzero((flat == 0) | (flat == 1)))
    ):
        return None
    return flat.astype(np.float64, copy=False)


def _entry_arrays(doc: dict) -> dict:
    """JSON object hook: valid defining_vectors become an array; any other value stays as read."""
    flat = _flat_numbers(doc.get("defining_vectors"))
    if flat is not None:
        doc["defining_vectors"] = flat
    return doc


def parse_weight_entry(doc: dict, context: str, as_vector: bool = False):
    """Inverse of :func:`weight_entry`; block_size 1 loads as a dense array."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{context}: weight entry must be an object")
    rows, cols, n = (_integer(doc, key, context) for key in ("rows", "cols", "block_size"))
    raw = _require(doc, "defining_vectors", context)
    flat = _flat_numbers(raw)
    if flat is None:
        raise InputParseError(f"{context}: defining_vectors must be a flat list of numbers")
    if not np.isfinite(flat).all():
        raise InputParseError(f"{context}: non-finite weight value")
    if rows < 1 or cols < 1 or n < 1:
        raise SchemaError(f"{context}: rows, cols and block_size must be positive")
    if n == 1:
        if flat.size != rows * cols:
            raise SchemaError(
                f"{context}: expected {rows * cols} dense values, got {flat.size}"
            )
        dense = flat.reshape(rows, cols)
        if as_vector:
            if cols != 1:
                raise SchemaError(f"{context}: expected a vector, got {rows}x{cols}")
            return dense[:, 0]
        return dense
    if as_vector:
        raise SchemaError(f"{context}: vectors must be stored dense (block_size 1)")
    p, q = block_counts(rows, cols, n)
    if flat.size != p * q * n:
        raise SchemaError(
            f"{context}: expected {p * q * n} defining values for "
            f"{rows}x{cols} at block size {n}, got {flat.size}"
        )
    return BlockCirculantMatrix(rows, cols, n, flat.reshape(p, q, n))


def save_weights(layers: list[LayerWeights], path) -> None:
    out = [map_slots(vars(lw), lambda slot, label, w: weight_entry(w)) for lw in layers]
    with open(path, "w") as fh:  # dumps runs the C encoder; dump streams through Python
        fh.write(json.dumps({"layers": out}))


def load_weights(path) -> list[LayerWeights]:
    doc = _read_json(path, object_hook=_entry_arrays)
    if not isinstance(doc, dict) or not isinstance(doc.get("layers"), list):
        raise SchemaError(f"{path}: weight file must be an object with a 'layers' list")
    layers = []
    for k, entry in enumerate(doc["layers"]):
        ctx = f"{path}: layer {k}"
        if not isinstance(entry, dict) or "W" not in entry:
            raise SchemaError(f"{ctx}: missing combination weight W")

        def parse(slot, label, value):
            return parse_weight_entry(value, f"{ctx}: {label}", as_vector=slot in VECTOR_SLOTS)

        layers.append(LayerWeights(**map_slots(entry, parse)))
    return layers
