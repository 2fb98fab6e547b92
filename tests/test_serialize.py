"""Parameter file format and checkpoint round trips."""

import hashlib
import json
import struct
import tracemalloc

import numpy as np
import pytest

from hardmono.corpus import Sample, build_vocab
from hardmono.hacm import HacmModel, ModelConfig
from hardmono.haem import HaemModel
from hardmono.serialize import (
    MAGIC,
    CheckpointError,
    _atomic_write,
    build_manifest,
    load_checkpoint,
    load_params,
    save_checkpoint,
    save_params,
)
from hardmono.train import predict

SAMPLES = [
    Sample("fliegen", ("V", "PST"), "flog"),
    Sample("gehen", ("V", "PRS", "3", "SG"), "geht"),
    Sample("baum", ("N", "PL"), "bäume"),
]

CONFIG = ModelConfig(hidden=8, embed=6, feat_embed=3)


def tiny_model(cls, seed=0):
    vocab, feats = build_vocab(SAMPLES)
    return cls(vocab, feats, CONFIG, np.random.default_rng(seed))


def test_params_round_trip_is_exact(tmp_path):
    """Any array saves as float64 in C order, and loads as such."""
    rng = np.random.default_rng(1)
    state = {
        "matrix": rng.standard_normal((4, 7)),
        "vector": rng.standard_normal(5),
        "scalar": np.array(2.5),
        "fortran": np.asfortranarray(rng.standard_normal((3, 5))),
        "float32": rng.standard_normal((2, 3)).astype(np.float32),
        "int": np.arange(-3, 9).reshape(3, 4),
        "empty": np.zeros((4, 0)),
    }
    path = tmp_path / "p.bin"
    save_params(path, state)
    loaded = load_params(path)
    assert list(loaded) == list(state)
    for name in state:
        assert loaded[name].dtype == np.float64 and loaded[name].flags.c_contiguous
        assert loaded[name].shape == state[name].shape
        assert np.array_equal(loaded[name], state[name])


def test_params_file_layout_is_the_docstring_table(tmp_path):
    """Magic, uint32 version, uint64 header length, the JSON header, then
    each tensor's little-endian float64 values in C order."""
    state = {"w": np.asfortranarray(np.arange(6.0).reshape(2, 3)), "b": np.array([0.5, -1.0]),
             "none": np.zeros((0, 3)), "s": np.array(7, dtype=np.int32)}
    header = json.dumps({"entries": [{"name": "w", "shape": [2, 3]}, {"name": "b", "shape": [2]},
                                     {"name": "none", "shape": [0, 3]},
                                     {"name": "s", "shape": []}]}).encode("utf-8")
    payload = b"".join(struct.pack("<d", x) for x in [0, 1, 2, 3, 4, 5, 0.5, -1, 7])
    save_params(tmp_path / "p.bin", state)
    assert (tmp_path / "p.bin").read_bytes() == (b"HMPARAMS" + struct.pack("<I", 1)
                                                 + struct.pack("<Q", len(header)) + header
                                                 + payload)


def test_params_reject_bad_magic(tmp_path):
    path = tmp_path / "p.bin"
    save_params(path, {"a": np.zeros(2)})
    raw = bytearray(path.read_bytes())
    raw[:8] = b"NOTPARAM"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="magic"):
        load_params(path)


def test_params_reject_bad_version(tmp_path):
    path = tmp_path / "p.bin"
    save_params(path, {"a": np.zeros(2)})
    raw = bytearray(path.read_bytes())
    raw[8:12] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version"):
        load_params(path)


def test_params_reject_truncation_and_trailing(tmp_path):
    path = tmp_path / "p.bin"
    save_params(path, {"a": np.arange(3.0)})
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])
    with pytest.raises(CheckpointError, match="truncated"):
        load_params(path)
    path.write_bytes(raw + b"\x00" * 8)
    with pytest.raises(CheckpointError, match="trailing"):
        load_params(path)


@pytest.mark.parametrize("shape", [[0, 10**30], [0, 2**62], [2**40, 0, 2**40]])
def test_params_reject_a_zero_size_shape_numpy_cannot_make(tmp_path, shape):
    """No payload byte belongs to such a tensor, but numpy has no array of
    its shape: the error names the file and the tensor."""
    header = json.dumps({"entries": [{"name": "w", "shape": shape}]}).encode("utf-8")
    path = tmp_path / "p.bin"
    path.write_bytes(MAGIC + struct.pack("<IQ", 1, len(header)) + header)
    with pytest.raises(CheckpointError, match=r"p\.bin: tensor 'w': "):
        load_params(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_params_reject_a_non_finite_value_naming_file_and_tensor(tmp_path, value):
    path = tmp_path / "p.bin"
    bad = np.zeros((2, 3))
    bad[1, 2] = value
    save_params(path, {"fine": np.zeros(2), "bad": bad})
    with pytest.raises(CheckpointError, match=rf"p\.bin: tensor 'bad' holds a non-finite value"):
        load_params(path)


ENCODER = [("enc.fwd.w", (32, 14)), ("enc.fwd.b", (32,)), ("enc.fwd.h0", (8,)),
           ("enc.fwd.c0", (8,)), ("enc.bwd.w", (32, 14)), ("enc.bwd.b", (32,)),
           ("enc.bwd.h0", (8,)), ("enc.bwd.c0", (8,))]
HAEM_Y = [("end_of_lemma", (16,)), ("y.w", (32, 14)), ("y.b", (32,)), ("y.h0", (8,)),
          ("y.c0", (8,))]
# name -> (model class, variant, tensor names and shapes in creation order,
# SHA-256 of the initial weights drawn from default_rng(0))
CONTRACT = {
    "HACM": (HacmModel, "extended",
             [("char_emb", (17, 6)), ("act_emb", (17, 6)), ("feat_emb", (8, 3)), *ENCODER,
              ("dec.w", (32, 54)), ("dec.b", (32,)), ("dec.h0", (8,)), ("dec.c0", (8,)),
              ("gen.w", (17, 8)), ("gen.b", (17,)), ("gate.w", (1, 54)), ("gate.b", (1,))],
             "00e8995a3ea8848b926f8e04057a84f74bcafc44d4d4f46c6f02e8e4790db671"),
    "HAEM-extended": (HaemModel, "extended",
                      [("char_emb", (17, 6)), *ENCODER, *HAEM_Y, ("act_emb", (17, 6)),
                       ("a.w", (32, 14)), ("a.b", (32,)), ("a.h0", (8,)), ("a.c0", (8,)),
                       ("d.w", (32, 14)), ("d.b", (32,)), ("d.h0", (8,)), ("d.c0", (8,)),
                       ("state.w", (8, 48)), ("state.b", (8,)), ("act.w", (17, 8)),
                       ("act.b", (17,))],
                      "81b7cc74e9fa7ca69cff3036a2d40d67404c6c0ddf4a24f301692840539f83f1"),
    "HAEM-basic": (HaemModel, "basic",
                   [("char_emb", (17, 6)), *ENCODER, *HAEM_Y, ("state.w", (8, 32)),
                    ("state.b", (8,)), ("act.w", (17, 8)), ("act.b", (17,))],
                   "da0f3164d8f14c70b00b7944e835a25001acaafe3be2dd457d8e23c724f68f8c"),
}


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_parameter_names_shapes_order_and_initial_weights_are_fixed(name):
    """The checkpoint contract of ``ParamSet``: a checkpoint written by an
    earlier version loads only while every tensor keeps its name, shape and
    place, and a seed draws the same initial weights."""
    cls, variant, tensors, digest = CONTRACT[name]
    vocab, feats = build_vocab(SAMPLES)
    config = ModelConfig(hidden=8, embed=6, feat_embed=3, variant=variant)
    model = cls(vocab, feats, config, np.random.default_rng(0))
    assert [(n, model.params[n].value.shape) for n in model.params.names()] == tensors
    sha = hashlib.sha256()
    for node in model.params.nodes():
        sha.update(node.value.astype("<f8").tobytes())
    assert sha.hexdigest() == digest


def test_manifest_fields():
    model = tiny_model(HacmModel)
    manifest = build_manifest(model, "smart", dev_accuracy=0.75, seed=3)
    assert manifest["arch"] == "HACM"
    assert manifest["aligner"] == "smart"
    assert manifest["hidden"] == 8
    assert manifest["dev_accuracy"] == 0.75
    assert manifest["seed"] == 3
    assert set("flieg") <= set(manifest["chars"])
    assert "PST" in manifest["features"]


@pytest.mark.parametrize("cls", [HacmModel, HaemModel])
def test_checkpoint_round_trip(tmp_path, monkeypatch, cls):
    """Loading builds the model on the saved tensors: it draws no weights."""
    model = tiny_model(cls, seed=5)
    save_checkpoint(tmp_path / "ckpt", model, "naive", dev_accuracy=0.5, seed=5)
    monkeypatch.setattr(np.random, "default_rng",
                        lambda *a: pytest.fail("loading made a generator"))
    loaded, manifest = load_checkpoint(tmp_path / "ckpt")
    assert manifest["aligner"] == "naive"
    original = model.params.state_dict()
    restored = loaded.params.state_dict()
    assert list(original) == list(restored)
    for name in original:
        assert np.array_equal(original[name], restored[name])
    for s in SAMPLES:
        assert predict(loaded, s) == predict(model, s)


def test_checkpoint_basic_variant_round_trip(tmp_path):
    vocab, feats = build_vocab(SAMPLES)
    model = HaemModel(vocab, feats, ModelConfig(hidden=8, embed=6, feat_embed=3,
                                                variant="basic"),
                      np.random.default_rng(2))
    save_checkpoint(tmp_path / "ckpt", model, "smart")
    loaded, manifest = load_checkpoint(tmp_path / "ckpt")
    assert manifest["variant"] == "basic"
    assert len(loaded.params.state_dict()) == len(model.params.state_dict())


def test_missing_manifest(tmp_path):
    with pytest.raises(CheckpointError, match="manifest"):
        load_checkpoint(tmp_path / "nowhere")


def test_unknown_arch(tmp_path):
    model = tiny_model(HacmModel)
    save_checkpoint(tmp_path / "ckpt", model, "smart")
    path = tmp_path / "ckpt" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["arch"] = "TRANSFORMER"
    path.write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError, match="architecture"):
        load_checkpoint(tmp_path / "ckpt")


def test_manifest_params_mismatch(tmp_path):
    model = tiny_model(HacmModel)
    save_checkpoint(tmp_path / "ckpt", model, "smart")
    path = tmp_path / "ckpt" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["hidden"] = 16
    path.write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "ckpt")


@pytest.mark.parametrize("edit, tensor", [
    (lambda state: state.pop("gen.b"), "gen.b"),
    (lambda state: state.update({"gen.c": np.zeros(2)}), "gen.c"),
    (lambda state: state.update({"gen.b": state["gen.b"][:-1]}), "gen.b"),
], ids=["missing", "extra", "short"])
def test_params_that_do_not_fit_the_model_name_the_file_and_the_tensor(tmp_path, edit, tensor):
    """A params.bin whose sizes agree with the manifest can still lack a
    tensor, hold one too many, or hold one of the wrong shape."""
    save_checkpoint(tmp_path / "ckpt", tiny_model(HacmModel), "smart")
    path = tmp_path / "ckpt" / "params.bin"
    state = load_params(path)
    edit(state)
    save_params(path, state)
    with pytest.raises(CheckpointError) as caught:
        load_checkpoint(tmp_path / "ckpt")
    assert str(caught.value).startswith(f"{path}: ") and repr(tensor) in str(caught.value)


def test_no_temp_files_left(tmp_path):
    model = tiny_model(HaemModel)
    save_checkpoint(tmp_path / "ckpt", model, "smart")
    names = sorted(p.name for p in (tmp_path / "ckpt").iterdir())
    assert names == ["manifest.json", "params.bin"]


def test_a_failed_atomic_write_leaves_no_temp_file(tmp_path):
    (tmp_path / "taken").mkdir()
    with pytest.raises(OSError):
        _atomic_write(tmp_path / "taken", b"data")
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert not any((tmp_path / "taken").iterdir())


def test_params_file_starts_with_magic(tmp_path):
    save_params(tmp_path / "p.bin", {"a": np.zeros(1)})
    assert (tmp_path / "p.bin").read_bytes()[:8] == MAGIC


def _peak(call) -> int:
    """The peak bytes Python allocated while ``call()`` ran."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("cls", [HacmModel, HaemModel])
def test_a_checkpoint_moves_each_tensor_once(tmp_path, cls):
    """Saving writes the parameters' own arrays and copies none of them;
    loading reads each tensor straight into the array the model keeps, so
    a load holds the weights about once, not the whole file besides."""
    vocab, feats = build_vocab(SAMPLES)
    model = cls(vocab, feats, ModelConfig(hidden=100, embed=100, feat_embed=20),
                np.random.default_rng(0))
    weights = sum(p.value.nbytes for p in model.params.nodes())
    save_peak = _peak(lambda: save_checkpoint(tmp_path, model, "smart"))
    load_peak = _peak(lambda: load_checkpoint(tmp_path))
    assert save_peak < 0.1 * weights, (save_peak, weights)
    assert load_peak <= 1.2 * weights, (load_peak, weights)
