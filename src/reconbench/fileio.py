"""On-disk formats: OBJ meshes, PFM depth images with camera
sidecars, binary signed-distance sample sets, and versioned parameter
containers for the two reconstruction models.

All binary payloads are little-endian.  Text floats are written with
repr so that a write/read cycle reproduces the value exactly.  Every
save writes a temporary sibling file and renames it onto the target, so
an interrupted write never leaves a partial file behind.
"""
from __future__ import annotations

import itertools
import math
import os
from pathlib import Path

import numpy as np

from .errors import InvalidInputError, MissingArtifactError
from .geometry import CameraModel, RigidTransform, TriangleMesh

DECODER_MAGIC = b"RBSD1"
MIRROR_MAGIC = b"RBMR1"
SAMPLES_MAGIC = "RBSAMPLES 1"


def _fr(value) -> str:
    """Exact text form of a float; plain float() first because numpy
    scalars repr as np.float64(...)."""
    return repr(float(value))


def _header_number(cast, text, path):
    """One numeric header field, or InvalidInputError naming the file.
    Integer fields are sizes and counts, so they must not be negative."""
    try:
        value = cast(text)
    except ValueError:
        value = None
    if value is None or (cast is int and value < 0):
        raise InvalidInputError(f"malformed header field {text!r} in {path}")
    return value


def _header_line(fh, path) -> str:
    """The next line of a binary file's text header."""
    try:
        return fh.readline().decode("ascii")
    except UnicodeDecodeError:
        raise InvalidInputError(f"non-ASCII byte in the header of {path}") from None


def _read_array(fh, shape: tuple[int, ...], dtype: str, path, what: str) -> np.ndarray:
    """The next array of ``shape`` and ``dtype`` in a binary file.  The
    declared size is checked against the bytes left before anything is
    read; a payload the file cannot hold raises InvalidInputError naming
    the file."""
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    if nbytes > os.fstat(fh.fileno()).st_size - fh.tell():
        raise InvalidInputError(f"truncated {what} in {path}")
    try:
        return np.frombuffer(fh.read(nbytes), dtype=dtype).reshape(shape)
    except ValueError:
        # an empty payload whose other dimensions overflow an array's size
        raise InvalidInputError(f"impossible shape {shape} of {what} in {path}") from None


def write_atomic(path, data: bytes) -> None:
    """Replace ``path`` with ``data`` in one rename: readers see the old
    file or the whole new one, and a failed write leaves no file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# meshes

# OBJ lines parsed at a time: bounds the split records held at once
_OBJ_LINES = 256


def load_obj(path) -> TriangleMesh:
    """Read a Wavefront OBJ mesh.

    Only ``v`` and ``f`` records are used; a vertex keeps its first
    three components and a face token its part before any ``/``.  Faces
    with more than three vertices are fan-triangulated around their
    first vertex.  A face index counts from 1 among the vertices read
    so far, or back from the last of them when negative.  The first
    malformed record in the file raises an error naming the file.
    """
    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(f"mesh file not found: {path}")
    vertices, triangles = [], []
    seen = start = 0
    with open(path, "r") as fh:
        while lines := list(itertools.islice(fh, _OBJ_LINES)):
            block = _obj_block(path, lines, start, seen)
            vertices.append(block[0])
            triangles.append(block[1])
            seen += len(block[0])
            start += len(lines)
    if not seen:
        raise InvalidInputError(f"no vertices in {path}")
    return TriangleMesh(np.concatenate(vertices), np.concatenate(triangles))


def _obj_block(
    path: Path, lines: list[str], start: int, seen_before: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vertices (k, 3) and triangles (t, 3) of ``lines``, the file's
    lines after its first ``start``, when ``seen_before`` vertices came
    before them; raises the block's first malformed record."""
    records = [
        (no, parts)
        for no, parts in enumerate(map(str.split, lines), start=start + 1)
        if parts and parts[0] in ("v", "f")
    ]
    is_vertex = np.array([parts[0] == "v" for _, parts in records], dtype=bool)
    vert_recs = [rec for rec, v in zip(records, is_vertex) if v]
    face_recs = [rec for rec, v in zip(records, is_vertex) if not v]

    coords = [x for _, parts in vert_recs for x in parts[1:4]]
    vertices = None
    if len(coords) == 3 * len(vert_recs):
        try:
            vertices = np.array(list(map(float, coords)), dtype=np.float64)
        except ValueError:
            pass
    # (line number, message) of the first malformed record of each kind
    errors = []
    if vertices is None or not np.isfinite(vertices).all():
        errors.append(_first_vertex_error(path, lines, start, vert_recs))

    counts = np.array([len(parts) - 1 for _, parts in face_recs], dtype=np.int64)
    raw = [tok for _, parts in face_recs for tok in parts[1:]]
    if any("/" in line for line in lines):
        raw = [tok.partition("/")[0] for tok in raw]
    index, bad_number = _obj_indices(raw)
    # vertices read before each face, once per face token
    seen = np.repeat(seen_before + np.cumsum(is_vertex)[~is_vertex], counts)
    resolved = np.where(index < 0, seen + index, index - 1)
    bad_token = bad_number | (resolved < 0) | (resolved >= seen)
    face_of_token = np.repeat(np.arange(len(face_recs)), counts)
    bad_face = counts < 3
    bad_face[face_of_token[bad_token]] = True
    if bad_face.any():
        face = int(np.argmax(bad_face))
        tokens = np.flatnonzero(bad_token & (face_of_token == face))
        if not tokens.size:
            msg = f"face with fewer than 3 vertices in {path}"
        elif bad_number[tokens[0]]:
            msg = f"{path}:{face_recs[face][0]}: not a number: {raw[tokens[0]]!r}"
        else:
            msg = f"face index {raw[tokens[0]]} out of range in {path}"
        errors.append((face_recs[face][0], msg))
    if errors:
        raise InvalidInputError(min(errors)[1])

    # fan (first, k, k + 1) for k = 1 .. count - 2 of every face
    fans = np.maximum(counts - 2, 0)
    first = np.repeat(np.cumsum(counts) - counts, fans)
    k = np.arange(int(fans.sum())) - np.repeat(np.cumsum(fans) - fans, fans) + 1
    triangles = resolved[np.stack([first, first + k, first + k + 1], axis=1)]
    return vertices.reshape(-1, 3), triangles.reshape(-1, 3)


def _first_vertex_error(
    path: Path, lines: list[str], start: int, vert_recs
) -> tuple[int, str]:
    """(line number, message) of the first malformed vertex record:
    too short, or a coordinate that is not a finite number."""
    for no, parts in vert_recs:
        if len(parts) < 4:
            return no, f"malformed vertex line in {path}: {lines[no - start - 1]!r}"
        for text in parts[1:4]:
            try:
                value = float(text)
            except ValueError:
                return no, f"{path}:{no}: not a number: {text!r}"
            if not math.isfinite(value):
                return no, f"{path}:{no}: not a finite number: {text!r}"
    raise AssertionError("no malformed vertex record")


def _obj_indices(raw: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Integer value of each face token, and which are not integers.

    A value beyond int64 is clamped far outside any index range."""
    try:
        return np.array(list(map(int, raw)), dtype=np.int64), np.zeros(len(raw), dtype=bool)
    except (ValueError, OverflowError):
        pass
    index = np.zeros(len(raw), dtype=np.int64)
    bad = np.zeros(len(raw), dtype=bool)
    for i, text in enumerate(raw):
        try:
            index[i] = min(max(int(text), -(2**62)), 2**62)
        except ValueError:
            bad[i] = True
    return index, bad


def save_obj(path, mesh: TriangleMesh) -> None:
    path = Path(path)
    lines = []
    for v in mesh.vertices:
        lines.append(f"v {_fr(v[0])} {_fr(v[1])} {_fr(v[2])}")
    for t in mesh.triangles:
        lines.append(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}")
    write_atomic(path, ("\n".join(lines) + "\n").encode("ascii"))


# ---------------------------------------------------------------------------
# depth images (PFM) and camera sidecars


def save_pfm(path, depth: np.ndarray) -> None:
    """Write a grayscale PFM (little-endian, scale -1.0).

    PFM stores rows bottom to top; the in-memory convention is row 0 at
    the top, so rows are flipped on the way out.
    """
    depth = np.asarray(depth, dtype=np.float32)
    if depth.ndim != 2:
        raise InvalidInputError("depth must be a 2D array")
    h, w = depth.shape
    write_atomic(
        path,
        f"Pf\n{w} {h}\n-1.0\n".encode("ascii")
        + np.ascontiguousarray(depth[::-1]).astype("<f4").tobytes(),
    )


def load_pfm(path) -> np.ndarray:
    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(f"depth image not found: {path}")
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != b"Pf":
            raise InvalidInputError(f"not a grayscale PFM file: {path}")
        dims = fh.readline().split()
        if len(dims) != 2:
            raise InvalidInputError(f"malformed PFM header in {path}")
        w, h = (_header_number(int, d, path) for d in dims)
        scale = _header_number(float, fh.readline().strip(), path)
        endianness = "<f4" if scale < 0 else ">f4"
        data = _read_array(fh, (h, w), endianness, path, "PFM payload")
    return data[::-1].astype(np.float64)


def save_camera(path, cam: CameraModel) -> None:
    """Text sidecar holding intrinsics and the camera-to-world pose."""
    r = cam.pose.rotation.reshape(-1)
    t = cam.pose.translation
    lines = [
        f"width {cam.width}",
        f"height {cam.height}",
        f"fx {_fr(cam.fx)}",
        f"fy {_fr(cam.fy)}",
        f"cx {_fr(cam.cx)}",
        f"cy {_fr(cam.cy)}",
        "rotation " + " ".join(_fr(x) for x in r),
        "translation " + " ".join(_fr(x) for x in t),
    ]
    write_atomic(path, ("\n".join(lines) + "\n").encode("ascii"))


def load_camera(path) -> CameraModel:
    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(f"camera file not found: {path}")
    fields: dict[str, list[str]] = {}
    for line in path.read_text().splitlines():
        parts = line.split()
        if parts:
            fields[parts[0]] = parts[1:]
    try:
        rot = np.array([float(x) for x in fields["rotation"]]).reshape(3, 3)
        trans = np.array([float(x) for x in fields["translation"]])
        return CameraModel(
            fx=float(fields["fx"][0]),
            fy=float(fields["fy"][0]),
            cx=float(fields["cx"][0]),
            cy=float(fields["cy"][0]),
            width=int(fields["width"][0]),
            height=int(fields["height"][0]),
            pose=RigidTransform(rot, trans),
        )
    except (KeyError, IndexError, ValueError) as exc:
        raise InvalidInputError(f"malformed camera file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# signed-distance sample sets


def save_samples(path, points: np.ndarray, sdf: np.ndarray, header: dict) -> None:
    """Binary sample records preceded by a small text header.

    Each record is four little-endian float64 values: x, y, z, signed
    distance.  The header carries the record count plus whatever
    generation metadata the caller supplies (seed, config).
    """
    points = np.asarray(points, dtype=np.float64)
    sdf = np.asarray(sdf, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3 or sdf.shape != (points.shape[0],):
        raise InvalidInputError("points must be (N, 3) with matching sdf values")
    lines = [SAMPLES_MAGIC, f"count {points.shape[0]}"]
    for key in sorted(header):
        lines.append(f"{key} {header[key]}")
    lines.append("END")
    blob = np.concatenate([points, sdf[:, None]], axis=1).astype("<f8").tobytes()
    write_atomic(path, ("\n".join(lines) + "\n").encode("ascii") + blob)


def load_samples(path) -> tuple[np.ndarray, np.ndarray, dict]:
    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(f"sample file not found: {path}")
    with open(path, "rb") as fh:
        first = _header_line(fh, path).strip()
        if first != SAMPLES_MAGIC:
            raise InvalidInputError(f"bad magic in sample file {path}")
        header: dict[str, str] = {}
        count = None
        while True:
            line = _header_line(fh, path).strip()
            if line == "END":
                break
            if not line:
                raise InvalidInputError(f"unterminated header in {path}")
            key, _, value = line.partition(" ")
            if key == "count":
                count = _header_number(int, value, path)
            else:
                header[key] = value
        if count is None:
            raise InvalidInputError(f"sample file {path} lacks a count")
        data = _read_array(fh, (count, 4), "<f8", path, "sample payload")
    return data[:, :3].copy(), data[:, 3].copy(), header


# ---------------------------------------------------------------------------
# model parameter containers


def save_tensors(path, magic: bytes, tensors: dict[str, np.ndarray]) -> None:
    """Versioned container: magic, text manifest of names and shapes,
    then the raw float64 tensors concatenated in manifest order.

    The manifest alone determines how to split the payload, so a loader
    needs no other knowledge of the model architecture.
    """
    if magic not in (DECODER_MAGIC, MIRROR_MAGIC):
        raise InvalidInputError(f"unknown container magic {magic!r}")
    names = list(tensors)
    manifest = [f"{len(names)}"]
    blobs = []
    for name in names:
        arr = np.asarray(tensors[name], dtype=np.float64)
        dims = " ".join(str(d) for d in arr.shape) if arr.ndim else "0"
        manifest.append(f"{name} {dims}")
        blobs.append(np.ascontiguousarray(arr).astype("<f8").tobytes())
    head = magic + b"\n" + ("\n".join(manifest) + "\nEND\n").encode("ascii")
    write_atomic(path, b"".join([head, *blobs]))


def load_tensors(path, magic: bytes) -> dict[str, np.ndarray]:
    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(f"model file not found: {path}")
    with open(path, "rb") as fh:
        got = fh.readline().strip()
        if got != magic:
            raise InvalidInputError(
                f"bad magic in {path}: expected {magic!r}, got {got!r}"
            )
        n = _header_number(int, _header_line(fh, path).strip(), path)
        shapes: list[tuple[str, tuple[int, ...]]] = []
        for _ in range(n):
            parts = _header_line(fh, path).split()
            if not parts:
                raise InvalidInputError(f"malformed manifest in {path}")
            name = parts[0]
            dims = tuple(_header_number(int, d, path) for d in parts[1:])
            if dims == (0,):
                dims = ()
            shapes.append((name, dims))
        if _header_line(fh, path).strip() != "END":
            raise InvalidInputError(f"malformed manifest in {path}")
        out: dict[str, np.ndarray] = {}
        for name, dims in shapes:
            out[name] = _read_array(fh, dims, "<f8", path, f"tensor {name}").copy()
    return out


def save_layers(path, magic: bytes, prefix: str, weights, biases, codes=None) -> None:
    """A model's layer stack as one container: ``<prefix><i>.weight``
    and ``<prefix><i>.bias`` for each layer in order, then the latent
    codes, when given, stacked into one ``codes`` tensor."""
    tensors: dict[str, np.ndarray] = {}
    for i, (w, b) in enumerate(zip(weights, biases)):
        tensors[f"{prefix}{i}.weight"] = w
        tensors[f"{prefix}{i}.bias"] = b
    if codes is not None:
        tensors["codes"] = np.stack(codes)
    save_tensors(path, magic, tensors)


def load_layers(path, magic: bytes, prefix: str):
    """``(weights, biases, codes)`` of a container ``save_layers`` wrote:
    the layers up to the first missing index, and ``codes`` or None."""
    tensors = load_tensors(path, magic)
    weights, biases = [], []
    while f"{prefix}{len(weights)}.weight" in tensors:
        i = len(weights)
        if f"{prefix}{i}.bias" not in tensors:
            raise InvalidInputError(f"{prefix}{i}.weight has no {prefix}{i}.bias in {path}")
        weights.append(tensors[f"{prefix}{i}.weight"])
        biases.append(tensors[f"{prefix}{i}.bias"])
    return tuple(weights), tuple(biases), tensors.get("codes")
