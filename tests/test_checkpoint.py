"""Tensor-blob files and checkpoints."""

import numpy as np
import pytest

from fastcolor.checkpoint import (
    Checkpoint,
    load_checkpoint,
    read_tensors,
    save_checkpoint,
    write_tensors,
)
from fastcolor.config import Config
from fastcolor.errors import ParseError
from fastcolor.nn import AdamState, ParamStore, adam_step
from fastcolor.rng import make_rng


def test_tensor_round_trip_bit_exact(tmp_path):
    rng = make_rng(0)
    tensors = {
        "a.w": rng.normal(size=(3, 5)).astype(np.float32),
        "a.b": rng.normal(size=7),
        "counts": np.arange(6, dtype=np.int64).reshape(2, 3),
        "edge": np.array([np.inf, -np.inf, 1e-300, -0.0, np.pi]),
    }
    path = str(tmp_path / "t.bin")
    write_tensors(path, tensors, {"note": "hello world", "k": "1"})
    back, meta = read_tensors(path)
    assert list(back) == list(tensors)
    for name in tensors:
        assert back[name].dtype == tensors[name].dtype
        assert back[name].tobytes() == tensors[name].tobytes()
    assert meta["note"] == "hello world" and meta["k"] == "1"


def test_scalar_tensor(tmp_path):
    path = str(tmp_path / "s.bin")
    write_tensors(path, {"x": np.float64(2.5)})
    back, _ = read_tensors(path)
    assert back["x"].shape == () and back["x"] == 2.5


def test_corrupt_magic_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"not a tensor file\nend\n")
    with pytest.raises(ParseError, match="not a"):
        read_tensors(str(path))


def test_truncated_blob_rejected(tmp_path):
    path = str(tmp_path / "t.bin")
    write_tensors(path, {"a": np.ones(100)})
    raw = open(path, "rb").read()
    open(path, "wb").write(raw[:-50])
    with pytest.raises(ParseError, match="truncated"):
        read_tensors(path)


def _write_manifest(path, tensor_lines, blob: bytes) -> None:
    head = "\n".join(["fastcolor-tensors v1", *tensor_lines, "end"]) + "\n"
    path.write_bytes(head.encode() + blob)


@pytest.mark.parametrize("line", ["tensor b float64 2 -48 16", "tensor b float64 2 16 -16"])
def test_negative_offset_or_size_rejected(tmp_path, line):
    # on this 48-byte blob, offset -48 would silently read tensor a's bytes as b
    path = tmp_path / "t.bin"
    _write_manifest(path, ["tensor a float64 2 0 16", line],
                    np.arange(6, dtype="<f8").tobytes())
    with pytest.raises(ParseError, match="negative offset or size for tensor 'b'"):
        read_tensors(str(path))


@pytest.mark.parametrize("shape", ["-1,-6", "-2,-3"])
def test_negative_dimension_rejected(tmp_path, shape):
    # -1,-6 and -2,-3 multiply to 6, the element count of this 48-byte blob
    path = tmp_path / "t.bin"
    _write_manifest(path, [f"tensor a float64 {shape} 0 48"],
                    np.arange(6, dtype="<f8").tobytes())
    with pytest.raises(ParseError, match="shape/size mismatch for tensor 'a'"):
        read_tensors(str(path))


def test_repeated_tensor_name_rejected(tmp_path):
    path = tmp_path / "t.bin"
    _write_manifest(path, ["tensor a float64 2 0 16", "tensor a float64 2 16 16"],
                    np.arange(4, dtype="<f8").tobytes())
    with pytest.raises(ParseError, match="tensor 'a' listed twice"):
        read_tensors(str(path))


@pytest.mark.parametrize("dtype", ["object", "O", "U2", "S16", "V16", "datetime64[s]"])
def test_non_numeric_dtype_rejected(tmp_path, dtype):
    path = tmp_path / "t.bin"
    _write_manifest(path, [f"tensor a {dtype} 1 0 16"], bytes(16))
    with pytest.raises(ParseError, match="non-numeric dtype"):
        read_tensors(str(path))


def test_missing_terminator_rejected(tmp_path):
    path = tmp_path / "t.bin"
    path.write_bytes(b"fastcolor-tensors v1\n")
    with pytest.raises(ParseError, match="terminator"):
        read_tensors(str(path))


def _small_store() -> ParamStore:
    store = ParamStore(dtype=np.float32)
    rng = make_rng(3)
    store.add("fc.w", rng.normal(size=(4, 4)).astype(np.float32))
    store.add("fc.b", np.zeros(4, dtype=np.float32))
    store.add("fc._running_mean", rng.normal(size=4).astype(np.float32))
    return store


def test_checkpoint_round_trip(tmp_path):
    store = _small_store()
    adam = AdamState.for_store(store, lr=0.002)
    # one real update so the moments are nonzero
    grads = {name: np.ones_like(store[name]) for name in store.trainable_names()}
    adam_step(store, grads, adam)
    hist = np.array([[0, 1, 29.5, 30.1], [1, 0, 31.0, 29.5]], dtype=np.float64)
    ckpt = Checkpoint(params=store, adam=adam, config_hash=Config().hash(),
                      iteration=2, gate_history=hist)
    path = str(tmp_path / "ckpt.bin")
    save_checkpoint(path, ckpt)
    back = load_checkpoint(path)

    assert back.iteration == 2
    assert back.config_hash == Config().hash()
    assert back.params.names() == store.names()
    assert back.params.dtype == store.dtype
    for name, arr in store.items():
        assert back.params[name].tobytes() == arr.tobytes()
    assert back.adam.step == 1 and back.adam.lr == 0.002
    for name in adam.m:
        assert back.adam.m[name].tobytes() == adam.m[name].tobytes()
        assert back.adam.v[name].tobytes() == adam.v[name].tobytes()
    assert np.array_equal(back.gate_history, hist)
    # buffers keep their non-trainable status after reload
    assert "fc._running_mean" not in back.params.trainable_names()


def test_checkpoint_save_load_save_identical_bytes(tmp_path):
    store = _small_store()
    ckpt = Checkpoint(params=store, adam=AdamState.for_store(store),
                      config_hash="abc", iteration=0)
    p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    save_checkpoint(p1, ckpt)
    save_checkpoint(p2, load_checkpoint(p1))
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_wrong_kind_rejected(tmp_path):
    path = str(tmp_path / "t.bin")
    write_tensors(path, {"x": np.ones(2)}, {"kind": "embedding-cache"})
    with pytest.raises(ParseError, match="not a checkpoint"):
        load_checkpoint(path)

