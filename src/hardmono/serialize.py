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

import dataclasses
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
from hardmono.train import MODELS

MAGIC = b"HMPARAMS"
FORMAT_VERSION = 1
# the bytes before the header: magic, format version, header length
_PREFIX = struct.Struct("<8sIQ")

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
    load_checkpoint reads."""
    if not isinstance(manifest, dict):
        raise CheckpointError("manifest is not a JSON object")
    for key, kinds in _MANIFEST_TYPES.items():
        value = manifest.get(key)
        if type(value) not in kinds or (type(value) is list
                                        and not all(type(v) is str for v in value)):
            raise CheckpointError(f"manifest key {key!r} is missing or has the wrong "
                                  f"type ({type(value).__name__})")
    return manifest


def _atomic_write(path: Path, *chunks) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_params(path: str | Path, state: dict[str, np.ndarray]) -> None:
    """Write ``state`` as a parameter file, each tensor from its own array."""
    entries = [{"name": name, "shape": list(np.shape(v))} for name, v in state.items()]
    header = json.dumps({"entries": entries}).encode("utf-8")
    _atomic_write(Path(path), _PREFIX.pack(MAGIC, FORMAT_VERSION, len(header)), header,
                  *(np.ascontiguousarray(v, dtype="<f8") for v in state.values()))


def load_params(path: str | Path) -> dict[str, np.ndarray]:
    """The tensors of a parameter file, each read into its own array once it fits."""
    with open(path, "rb") as f:
        end = os.fstat(f.fileno()).st_size
        prefix = f.read(_PREFIX.size)
        if prefix[:8] != MAGIC:
            raise CheckpointError(f"{path}: not a parameter file (bad magic)")
        if end < _PREFIX.size:
            raise CheckpointError(f"{path}: truncated before the header")
        _, version, header_len = _PREFIX.unpack(prefix)
        if version != FORMAT_VERSION:
            raise CheckpointError(f"{path}: unsupported format version {version}")
        if header_len > end - f.tell():
            raise CheckpointError(f"{path}: header length {header_len} runs past the end")
        try:
            header = json.loads(f.read(header_len).decode("utf-8"))
        except (ValueError, RecursionError) as e:   # RecursionError: nested past the limit
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
            name, size = entry["name"], 8 * math.prod(shape)
            if name in state:
                raise CheckpointError(f"{path}: header names {name!r} twice")
            if size > end - f.tell():
                raise CheckpointError(f"{path}: truncated payload at {name!r}")
            try:   # a shape with a zero in it can still be too large for numpy
                value = np.empty(shape, dtype="<f8")
            except ValueError as e:
                raise CheckpointError(f"{path}: tensor {name!r}: {e}") from None
            f.readinto(value)
            if not np.isfinite(value).all():   # training never saves one: it stops at a non-finite loss
                raise CheckpointError(f"{path}: tensor {name!r} holds a non-finite value")
            state[name] = value
        if f.tell() != end:
            raise CheckpointError(f"{path}: {end - f.tell()} trailing bytes")
    return state


def build_manifest(model: HacmModel | HaemModel, aligner: str,
                   dev_accuracy: float | None = None, seed: int | None = None) -> dict:
    return {
        "format": FORMAT_VERSION,
        "arch": model.arch,
        "aligner": aligner,
        **dataclasses.asdict(model.config),
        "chars": list(model.vocab.chars),
        "features": list(model.feats.features),
        "dev_accuracy": dev_accuracy,
        "seed": seed,
    }


def save_checkpoint(directory: str | Path, model: HacmModel | HaemModel, aligner: str,
                    dev_accuracy: float | None = None, seed: int | None = None) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = build_manifest(model, aligner, dev_accuracy, seed)
    _atomic_write(directory / MANIFEST_NAME,
                  json.dumps(manifest, indent=2, ensure_ascii=False).encode("utf-8"))
    save_params(directory / PARAMS_NAME, {p.name: p.value for p in model.params.nodes()})


def load_checkpoint(directory: str | Path) -> tuple[HacmModel | HaemModel, dict]:
    """The model a checkpoint holds, built on its tensors, and its manifest.
    As the model is built, each tensor is checked by name and shape, so a
    size that does not fit fails before anything of that size is made."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise CheckpointError(f"{directory}: no {MANIFEST_NAME}")
    try:
        manifest = _check_manifest(json.loads(manifest_path.read_text(encoding="utf-8")))
        if manifest["arch"] not in MODELS:
            raise CheckpointError(f"unknown architecture tag {manifest['arch']!r}")
        config = ModelConfig(**{f.name: manifest[f.name]
                                for f in dataclasses.fields(ModelConfig)})
        vocab = CharVocabulary(tuple(manifest["chars"]))
        feats = FeatureAlphabet(tuple(manifest["features"]))
    except (ValueError, RecursionError) as e:   # RecursionError: nested past the limit
        raise CheckpointError(f"{manifest_path}: {e}") from None
    params_path = directory / PARAMS_NAME
    state = load_params(params_path)
    try:
        model = MODELS[manifest["arch"]](vocab, feats, config, state)
        model.params.check_names(state)
    except ValueError as e:
        raise CheckpointError(f"{params_path}: {e}") from None
    return model, manifest
