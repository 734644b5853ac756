"""Malformed headers and fields, and interrupted writes, in the file formats."""
import builtins
from pathlib import Path

import numpy as np
import pytest

from reconbench import fileio
from reconbench.autodecoder import load_decoder, save_decoder
from reconbench.bench import EvalRecord, write_results
from reconbench.errors import InvalidInputError, MissingArtifactError
from reconbench.fileio import (
    DECODER_MAGIC,
    MIRROR_MAGIC,
    SAMPLES_MAGIC,
    load_obj,
    load_pfm,
    load_samples,
    load_tensors,
    save_obj,
)
from reconbench.geometry import TriangleMesh, camera_looking_at
from reconbench.mirror import load_mirror_model, save_mirror_model
from reconbench.shapes import CATEGORIES, build_mesh, icosphere, sample_spec

_PFM_BODY = bytes(16)
_HUGE = b"4611686018427387904"  # 2**62


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
        # sizes the file cannot hold, checked before any read
        (load_pfm, b"Pf\n" + _HUGE + b" 1\n-1.0\n" + _PFM_BODY),
        (load_pfm, b"Pf\n4294967296 4294967296\n-1.0\n" + _PFM_BODY),
        (load_pfm, b"Pf\n0 " + _HUGE + b"\n-1.0\n"),
        (lambda p: load_tensors(p, DECODER_MAGIC), DECODER_MAGIC + b"\n1\nw " + _HUGE
         + b"\nEND\n" + bytes(64)),
        (lambda p: load_tensors(p, DECODER_MAGIC), DECODER_MAGIC
         + b"\n1\nw 4294967296 4294967296\nEND\n" + bytes(64)),
        (lambda p: load_tensors(p, DECODER_MAGIC), DECODER_MAGIC + b"\n1\nw 0 " + _HUGE
         + b" " + _HUGE + b"\nEND\n"),
        (load_samples, SAMPLES_MAGIC.encode() + b"\ncount " + _HUGE + b"\nEND\n" + bytes(64)),
    ],
    ids=["pfm-dims", "pfm-scale", "pfm-negative-dims", "tensor-count", "tensor-dim",
         "tensor-empty-line", "tensor-non-ascii", "sample-count", "sample-non-ascii",
         "pfm-huge", "pfm-product-wraps", "pfm-empty-huge", "tensor-huge",
         "tensor-product-wraps", "tensor-empty-huge", "sample-huge"],
)
def test_malformed_header_names_the_file(tmp_path, load, blob):
    path = tmp_path / "corrupt.bin"
    path.write_bytes(blob)
    with pytest.raises(InvalidInputError, match="corrupt.bin"):
        load(path)


@pytest.mark.parametrize("load, blob", [
    (load_pfm, b"Pf\n2 2\n-1.0\n" + bytes(15)),
    (lambda p: load_tensors(p, DECODER_MAGIC), DECODER_MAGIC + b"\n1\nw 2 2\nEND\n" + bytes(31)),
    (load_samples, SAMPLES_MAGIC.encode() + b"\ncount 2\nEND\n" + bytes(63)),
], ids=["pfm", "tensor", "sample"])
def test_payload_one_byte_short_is_truncated(tmp_path, load, blob):
    path = tmp_path / "short.bin"
    path.write_bytes(blob)
    with pytest.raises(InvalidInputError, match="truncated .* in .*short.bin"):
        load(path)
    # the same header with the whole payload loads
    path.write_bytes(blob + b"\0")
    assert load(path) is not None


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


def load_obj_reference(path) -> TriangleMesh:
    """The line-by-line OBJ parser that ``load_obj`` replaced, frozen as
    the reference for its arrays and its error messages."""
    if not path.exists():
        raise MissingArtifactError(f"mesh file not found: {path}")
    vertices: list[list[float]] = []
    faces: list[tuple[int, int, int]] = []

    def number(cast, text: str, lineno: int):
        try:
            return cast(text)
        except ValueError:
            raise InvalidInputError(f"{path}:{lineno}: not a number: {text!r}") from None

    def resolve(token: str, lineno: int) -> int:
        raw = token.split("/")[0]
        idx = number(int, raw, lineno)
        if idx < 0:
            idx = len(vertices) + idx
        else:
            idx = idx - 1
        if not 0 <= idx < len(vertices):
            raise InvalidInputError(f"face index {raw} out of range in {path}")
        return idx

    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "v":
                if len(parts) < 4:
                    raise InvalidInputError(f"malformed vertex line in {path}: {line!r}")
                vertices.append([number(float, x, lineno) for x in parts[1:4]])
            elif parts[0] == "f":
                idx = [resolve(tok, lineno) for tok in parts[1:]]
                if len(idx) < 3:
                    raise InvalidInputError(f"face with fewer than 3 vertices in {path}")
                for k in range(1, len(idx) - 1):
                    faces.append((idx[0], idx[k], idx[k + 1]))
    if not vertices:
        raise InvalidInputError(f"no vertices in {path}")
    return TriangleMesh(np.asarray(vertices, dtype=np.float64),
                        np.asarray(faces, dtype=np.int64).reshape(-1, 3))


_TRIANGLE = "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
# 300 vertex lines: longer files are parsed in blocks of lines
_MANY = "".join(f"v {i} {i % 7} {i % 3}\n" for i in range(300))


def _assert_same_mesh(path):
    want, got = load_obj_reference(path), load_obj(path)
    for name in ("vertices", "triangles"):
        w, g = getattr(want, name), getattr(got, name)
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)


@pytest.mark.parametrize("category", CATEGORIES)
def test_obj_parse_matches_reference_on_category_meshes(tmp_path, category):
    path = tmp_path / "mesh.obj"
    save_obj(path, build_mesh(sample_spec(category, np.random.default_rng(7))))
    _assert_same_mesh(path)


@pytest.mark.parametrize(
    "text",
    [
        # negative indices count back from the vertices read so far
        _TRIANGLE + "f -3 -2 -1\nv 0 0 1\nf -4 -1 -2\nf 4 -2 -3\n",
        _TRIANGLE + "v 0 0 1\nvt 0 0\nvn 0 0 1\n"
        "f 1/1/1 2/1/1 3/1/1\nf 1//1 3//1 4//1\nf 2/1 -1/1 4/1\n",
        "v 0 0 0 1.0\nv 1 0 0 0.5 0.2 0.1\nv 0 1 0 x\nf 1 2 3\n",
        _TRIANGLE + "v 1 1 0\nv 2 1 0\nf 1 2 3 4 5\nf 5 4 3 2\nf 1 2 3\n",
        "# header\n\nv 0 0 0\n   \n#v 9 9 9\nv 1 0 0 # note\nv 0 1 0\n"
        "o thing\ng group\ns off\nusemtl m\nvt 0 0\nf 1 2 3\n",
        "v 0 0 0\r\nv 1 0 0\r\nv 0 1 0\r\nf 1 2 3",
        "v\t1e-3\t-2.5E+2\t0\nv 1 0 0\n  v 0 1 0\nf\t+1\t2\t03\n",
        "v 0 0 0\n",
        _MANY + "f -1 -2 -3\nf 1 150 300 2\nv 0 0 1\nf -1 -300 -301\n",
    ],
    ids=["negative", "slashes", "extra-components", "fans", "comments-and-blanks",
         "crlf-no-final-newline", "tabs-and-signs", "vertices-only", "many-lines"],
)
def test_obj_parse_matches_reference_on_edge_cases(tmp_path, text):
    path = tmp_path / "mesh.obj"
    path.write_bytes(text.encode())
    _assert_same_mesh(path)


@pytest.mark.parametrize(
    "text",
    [
        "v 0 0 0\nv abc 0 0\n",
        _TRIANGLE + "f 1 x/2 3\n",
        _TRIANGLE + "f 1 /2 3\n",
        _TRIANGLE + "f 1 2 9\n",
        _TRIANGLE + "f -4 1 2\n",
        _TRIANGLE + "f 0 1 2\n",
        _TRIANGLE + "f 1 2 99999999999999999999999\n",
        "v 0 0 0\nf 1 2 3\nv 1 0 0\nv 0 1 0\n",
        "v 0 0\n",
        "v\n",
        _TRIANGLE + "v 1 2",
        _TRIANGLE + "f 1 2\n",
        _TRIANGLE + "f\n",
        "",
        "# nothing\nvt 0 0\n",
        # the first malformed record wins
        "v 0 0\nf 1 2 9\n",
        _TRIANGLE + "f 1 2 9\nv 0 0\n",
        _TRIANGLE + "f 1 9 x\n",
        _TRIANGLE + "f x 1\n",
        _TRIANGLE + "f 1 2\nv y 0 0\n",
        _MANY + "v 1 x 2\nf 1 2 3\n",
        _MANY + "f 1 2 301\n" + _MANY + "v 1 2",
        "f 1 2 3\n" + _MANY + "v 1 x 2\n",
    ],
    ids=["vertex-not-a-number", "face-not-a-number", "face-empty-index", "index-too-high",
         "index-too-low", "index-zero", "index-beyond-int64", "index-ahead-of-vertices",
         "short-vertex", "bare-vertex", "short-vertex-at-end", "two-vertex-face",
         "empty-face", "empty-file", "no-vertices",
         "vertex-error-first", "face-error-first", "range-before-number",
         "number-before-count", "count-before-vertex", "late-vertex-error",
         "late-face-error-first", "early-face-error-first"],
)
def test_obj_errors_match_reference(tmp_path, text):
    path = tmp_path / "mesh.obj"
    path.write_bytes(text.encode())
    with pytest.raises(InvalidInputError) as want:
        load_obj_reference(path)
    with pytest.raises(InvalidInputError) as got:
        load_obj(path)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "text, line, token",
    [
        ("v 1e999 0 0\n", 1, "1e999"),
        (_TRIANGLE + "v 0 nan 0\n", 4, "nan"),
        # the first malformed record still wins
        (_TRIANGLE + "v 0 0 -inf\nf 1 2 9\n", 4, "-inf"),
        (_TRIANGLE + "f 1 2 9\nv 0 0 -inf\n", None, None),
        (_MANY + "v 1 inf 2\nv 1 x 2\n", 301, "inf"),
    ],
    ids=["infinite-vertex", "nan-vertex", "before-face-error", "after-face-error",
         "late-block"],
)
def test_obj_non_finite_vertex_names_the_line(tmp_path, text, line, token):
    path = tmp_path / "mesh.obj"
    path.write_bytes(text.encode())
    with pytest.raises(InvalidInputError) as got:
        load_obj(path)
    if line is None:
        assert str(got.value) == f"face index 9 out of range in {path}"
    else:
        assert str(got.value) == f"{path}:{line}: not a finite number: {token!r}"


def test_missing_obj_file(tmp_path):
    with pytest.raises(MissingArtifactError, match="mesh file not found"):
        load_obj(tmp_path / "absent.obj")


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


# the trained models the benchmark's evaluate workload loads; read only
FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"


@pytest.mark.parametrize(
    "name, load, save",
    [
        ("decoder.rbsd", load_decoder, lambda path, model: save_decoder(path, *model)),
        ("mirror.rbmr", load_mirror_model, save_mirror_model),
    ],
    ids=["decoder", "mirror"],
)
def test_model_file_round_trip_keeps_every_byte(tmp_path, name, load, save):
    # tensor names, their order and the codes tensor are the file layout
    out = tmp_path / name
    save(out, load(FIXTURES / name))
    assert out.read_bytes() == (FIXTURES / name).read_bytes()


@pytest.mark.parametrize(
    "magic, other_prefix, load, message",
    [
        (DECODER_MAGIC, "conv", load_decoder, "no decoder layers found in"),
        (MIRROR_MAGIC, "layer", load_mirror_model, "no conv layers found in"),
    ],
    ids=["decoder", "mirror"],
)
def test_container_without_its_model_layers_rejected(
    tmp_path, magic, other_prefix, load, message
):
    # layers under the other model's prefix are not this model's layers
    path = tmp_path / "model.bin"
    fileio.save_tensors(path, magic, {
        f"{other_prefix}0.weight": np.zeros((1, 2, 3, 3)),
        f"{other_prefix}0.bias": np.zeros(1),
        "codes": np.zeros((1, 4)),
    })
    with pytest.raises(InvalidInputError) as info:
        load(path)
    assert str(info.value) == f"{message} {path}"


@pytest.mark.parametrize(
    "name, magic, prefix, load",
    [
        ("decoder.rbsd", DECODER_MAGIC, "layer", load_decoder),
        ("mirror.rbmr", MIRROR_MAGIC, "conv", load_mirror_model),
    ],
    ids=["decoder", "mirror"],
)
def test_layer_without_its_bias_names_file_and_tensor(tmp_path, name, magic, prefix, load):
    tensors = fileio.load_tensors(FIXTURES / name, magic)
    del tensors[f"{prefix}1.bias"]
    path = tmp_path / name
    fileio.save_tensors(path, magic, tensors)
    with pytest.raises(InvalidInputError) as info:
        load(path)
    assert str(info.value) == f"{prefix}1.weight has no {prefix}1.bias in {path}"
