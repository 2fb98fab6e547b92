"""Checkpoint persistence.

A checkpoint is a directory with two files:

* ``manifest.json`` — everything needed to rebuild the model object:
  architecture tag, aligner tag, variant, layer sizes, the character and
  feature inventories, and bookkeeping (dev accuracy, seed).
* ``params.bin`` — the parameter tensors, in a self-describing binary
  format:

  ========  =====================================================
  bytes     content
  ========  =====================================================
  0..7      magic ``HMPARAMS``
  8..11     format version, uint32 little-endian (currently 1)
  12..19    header length L, uint64 little-endian
  20..20+L  header: UTF-8 JSON ``{"entries": [{"name", "shape"}...]}``
  rest      payload: each entry's float64 values, little-endian,
            C order, concatenated in header order; every value finite
  ========  =====================================================

Both files are written atomically (temp file + rename).
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from hardmono.corpus import CharVocabulary, FeatureAlphabet
from hardmono.hacm import HacmModel, ModelConfig
from hardmono.haem import HaemModel
from hardmono.oracle import HACM, HAEM

MAGIC = b"HMPARAMS"
FORMAT_VERSION = 1

MANIFEST_NAME = "manifest.json"
PARAMS_NAME = "params.bin"


# manifest key -> accepted JSON types (lists hold strings; a key that may
# be null or absent accepts NoneType)
_MANIFEST_TYPES = {
    "arch": (str,), "aligner": (str,), "variant": (str,), "hidden": (int,), "embed": (int,),
    "feat_embed": (int,), "dropout": (int, float), "chars": (list,), "features": (list,),
    "dev_accuracy": (int, float, type(None)), "seed": (int, type(None)),
}


class CheckpointError(ValueError):
    """Unreadable or inconsistent checkpoint contents."""


def _check_manifest(manifest) -> dict:
    """The manifest, once it is an object whose keys have the types
    build_model reads."""
    if not isinstance(manifest, dict):
        raise CheckpointError("manifest is not a JSON object")
    for key, kinds in _MANIFEST_TYPES.items():
        value = manifest.get(key)
        if type(value) not in kinds or (type(value) is list
                                        and not all(type(v) is str for v in value)):
            raise CheckpointError(f"manifest key {key!r} is missing or has the wrong "
                                  f"type ({type(value).__name__})")
    return manifest


def _atomic_write(path: Path, data: bytes) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_params(path: str | Path, state: dict[str, np.ndarray]) -> None:
    path = Path(path)
    entries = [{"name": name, "shape": list(np.asarray(v).shape)} for name, v in state.items()]
    header = json.dumps({"entries": entries}).encode("utf-8")
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", FORMAT_VERSION)
    blob += struct.pack("<Q", len(header))
    blob += header
    for value in state.values():
        blob += np.ascontiguousarray(value, dtype="<f8").tobytes()
    _atomic_write(path, bytes(blob))


def load_params(path: str | Path) -> dict[str, np.ndarray]:
    raw = Path(path).read_bytes()
    if raw[:8] != MAGIC:
        raise CheckpointError(f"{path}: not a parameter file (bad magic)")
    if len(raw) < 20:
        raise CheckpointError(f"{path}: truncated before the header")
    (version,) = struct.unpack_from("<I", raw, 8)
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    (header_len,) = struct.unpack_from("<Q", raw, 12)
    offset = 20 + header_len
    if offset > len(raw):
        raise CheckpointError(f"{path}: header length {header_len} runs past the end")
    try:
        header = json.loads(raw[20:offset].decode("utf-8"))
    except ValueError as e:
        raise CheckpointError(f"{path}: unreadable header ({e})") from None
    entries = header.get("entries") if isinstance(header, dict) else None
    if not isinstance(entries, list):
        raise CheckpointError(f"{path}: header has no entries list")
    state: dict[str, np.ndarray] = {}
    for entry in entries:
        shape = entry.get("shape") if type(entry) is dict else None
        if not (type(shape) is list and type(entry.get("name")) is str
                and all(type(d) is int and d >= 0 for d in shape)):
            raise CheckpointError(f"{path}: header entry needs a name and an integer shape")
        if entry["name"] in state:
            raise CheckpointError(f"{path}: header names {entry['name']!r} twice")
        shape = tuple(shape)
        count = math.prod(shape)
        end = offset + 8 * count
        if end > len(raw):
            raise CheckpointError(f"{path}: truncated payload at {entry['name']!r}")
        value = np.frombuffer(raw, dtype="<f8", count=count, offset=offset).reshape(shape)
        if not np.isfinite(value).all():   # training never saves one: it stops at a non-finite loss
            raise CheckpointError(f"{path}: tensor {entry['name']!r} holds a non-finite value")
        state[entry["name"]] = value.copy()
        offset = end
    if offset != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - offset} trailing bytes")
    return state


def build_manifest(model: HacmModel | HaemModel, aligner: str,
                   dev_accuracy: float | None = None, seed: int | None = None) -> dict:
    cfg = model.config
    return {
        "format": FORMAT_VERSION,
        "arch": model.arch,
        "aligner": aligner,
        "variant": cfg.variant,
        "hidden": cfg.hidden,
        "embed": cfg.embed,
        "feat_embed": cfg.feat_embed,
        "dropout": cfg.dropout,
        "chars": list(model.vocab.chars),
        "features": list(model.feats.features),
        "dev_accuracy": dev_accuracy,
        "seed": seed,
    }


def build_model(manifest: dict) -> HacmModel | HaemModel:
    """Model object matching a manifest, with freshly initialized weights
    (callers load the parameter file on top)."""
    config = ModelConfig(hidden=manifest["hidden"], embed=manifest["embed"],
                         feat_embed=manifest["feat_embed"], variant=manifest["variant"],
                         dropout=manifest["dropout"])
    vocab = CharVocabulary(tuple(manifest["chars"]))
    feats = FeatureAlphabet(tuple(manifest["features"]))
    arch = manifest["arch"]
    if arch == HACM:
        return HacmModel(vocab, feats, config, np.random.default_rng(0))
    if arch == HAEM:
        return HaemModel(vocab, feats, config, np.random.default_rng(0))
    raise CheckpointError(f"unknown architecture tag {arch!r}")


def save_checkpoint(directory: str | Path, model: HacmModel | HaemModel, aligner: str,
                    dev_accuracy: float | None = None, seed: int | None = None) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = build_manifest(model, aligner, dev_accuracy, seed)
    _atomic_write(directory / MANIFEST_NAME,
                  json.dumps(manifest, indent=2, ensure_ascii=False).encode("utf-8"))
    save_params(directory / PARAMS_NAME, model.params.state_dict())


def load_checkpoint(directory: str | Path) -> tuple[HacmModel | HaemModel, dict]:
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise CheckpointError(f"{directory}: no {MANIFEST_NAME}")
    try:
        manifest = _check_manifest(json.loads(manifest_path.read_text(encoding="utf-8")))
        model = build_model(manifest)
    except ValueError as e:
        raise CheckpointError(f"{manifest_path}: {e}") from None
    params_path = directory / PARAMS_NAME
    state = load_params(params_path)
    try:
        model.params.load_state_dict(state)
    except ValueError as e:
        raise CheckpointError(f"{params_path}: {e}") from None
    return model, manifest
