"""Malformed headers and fields, and interrupted writes, in the file formats."""
import builtins

import numpy as np
import pytest

from reconbench import fileio
from reconbench.bench import EvalRecord, write_results
from reconbench.errors import InvalidInputError
from reconbench.fileio import (
    DECODER_MAGIC,
    SAMPLES_MAGIC,
    load_obj,
    load_pfm,
    load_samples,
    load_tensors,
)
from reconbench.geometry import camera_looking_at
from reconbench.shapes import icosphere

_PFM_BODY = bytes(16)


@pytest.mark.parametrize(
    "load, blob",
    [
        (load_pfm, b"Pf\nabc 4\n-1.0\n" + _PFM_BODY),
        (load_pfm, b"Pf\n2 2\nxyz\n" + _PFM_BODY),
        (load_pfm, b"Pf\n-2 -2\n-1.0\n" + _PFM_BODY),
        (lambda p: load_tensors(p, DECODER_MAGIC), DECODER_MAGIC + b"\nnotanint\nEND\n"),
        (lambda p: load_tensors(p, DECODER_MAGIC), DECODER_MAGIC + b"\n1\nw a\nEND\n"),
        (lambda p: load_tensors(p, DECODER_MAGIC), DECODER_MAGIC + b"\n1\n\nEND\n"),
        (lambda p: load_tensors(p, DECODER_MAGIC), DECODER_MAGIC + b"\n1\nw\xe9 2\nEND\n"),
        (load_samples, SAMPLES_MAGIC.encode() + b"\ncount x\nEND\n"),
        (load_samples, SAMPLES_MAGIC.encode() + b"\nseed \xff\nEND\n"),
    ],
    ids=["pfm-dims", "pfm-scale", "pfm-negative-dims", "tensor-count", "tensor-dim",
         "tensor-empty-line", "tensor-non-ascii", "sample-count", "sample-non-ascii"],
)
def test_malformed_header_names_the_file(tmp_path, load, blob):
    path = tmp_path / "corrupt.bin"
    path.write_bytes(blob)
    with pytest.raises(InvalidInputError, match="corrupt.bin"):
        load(path)


@pytest.mark.parametrize(
    "text, bad",
    [
        ("v 0 0 0\nv abc 0 0\n", "'abc'"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 x/2 3\n", "'x'"),
    ],
    ids=["vertex-coordinate", "face-index"],
)
def test_non_numeric_obj_field_names_the_file_and_line(tmp_path, text, bad):
    path = tmp_path / "mesh.obj"
    path.write_text(text)
    line = text.count("\n")
    with pytest.raises(InvalidInputError, match=f"mesh.obj:{line}: not a number: {bad}"):
        load_obj(path)


def _interrupted_open(file, mode="r", *args, **kwargs):
    """open() whose first write stores half of its data, then fails."""
    fh = builtins.open(file, mode, *args, **kwargs)

    class Interrupted:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            fh.close()
            return False

        def write(self, data):
            fh.write(data[: len(data) // 2])
            raise OSError("no space left on device")

    return Interrupted()


@pytest.mark.parametrize(
    "save",
    [
        lambda p: fileio.save_pfm(p, np.ones((4, 5))),
        lambda p: fileio.save_samples(p, np.zeros((3, 3)), np.zeros(3), {"seed": "1"}),
        lambda p: fileio.save_tensors(p, DECODER_MAGIC, {"w": np.ones((2, 2))}),
        lambda p: fileio.save_obj(p, icosphere(1)),
        lambda p: fileio.save_camera(p, camera_looking_at((0.0, 0.0, 2.0), (0.0, 0.0, 0.0))),
    ],
    ids=["pfm", "samples", "tensors", "obj", "camera"],
)
def test_interrupted_save_leaves_no_file(tmp_path, monkeypatch, save):
    monkeypatch.setattr(fileio, "open", _interrupted_open, raising=False)
    path = tmp_path / "out.bin"
    with pytest.raises(OSError, match="no space"):
        save(path)
    assert list(tmp_path.iterdir()) == []


def test_interrupted_results_write_keeps_the_earlier_file(tmp_path, monkeypatch):
    path = tmp_path / "results.csv"
    row = EvalRecord("deepsdf", "mug", "000", 0, 0.1, 0.2, 3.5, 1000)
    write_results(path, [row])
    before = path.read_bytes()
    monkeypatch.setattr(fileio, "open", _interrupted_open, raising=False)
    with pytest.raises(OSError, match="no space"):
        write_results(path, [row, row])
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]
