"""On-disk formats: OBJ/PLY meshes, PFM depth images with camera
sidecars, binary signed-distance sample sets, and versioned parameter
containers for the two reconstruction models.

All binary payloads are little-endian.  Text floats are written with
repr so that a write/read cycle reproduces the value exactly.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import InvalidInputError, MissingArtifactError
from .geometry import CameraModel, PointCloud, RigidTransform, TriangleMesh

DECODER_MAGIC = b"RBSD1"
MIRROR_MAGIC = b"RBMR1"
SAMPLES_MAGIC = "RBSAMPLES 1"


def _fr(value) -> str:
    """Exact text form of a float; plain float() first because numpy
    scalars repr as np.float64(...)."""
    return repr(float(value))


def _header_number(cast, text, path):
    """One numeric header field, or InvalidInputError naming the file."""
    try:
        return cast(text)
    except ValueError:
        raise InvalidInputError(f"malformed header field {text!r} in {path}") from None


# ---------------------------------------------------------------------------
# meshes


def load_obj(path) -> TriangleMesh:
    """Read a Wavefront OBJ mesh.

    Only ``v`` and ``f`` records are used.  Faces with more than three
    vertices are fan-triangulated around their first vertex.  Negative
    indices count from the end as usual.
    """
    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(f"mesh file not found: {path}")
    vertices: list[list[float]] = []
    faces: list[tuple[int, int, int]] = []

    def resolve(token: str) -> int:
        raw = token.split("/")[0]
        idx = int(raw)
        if idx < 0:
            idx = len(vertices) + idx
        else:
            idx = idx - 1
        if not 0 <= idx < len(vertices):
            raise InvalidInputError(f"face index {raw} out of range in {path}")
        return idx

    with open(path, "r") as fh:
        for line in fh:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "v":
                if len(parts) < 4:
                    raise InvalidInputError(f"malformed vertex line in {path}: {line!r}")
                vertices.append([float(parts[1]), float(parts[2]), float(parts[3])])
            elif parts[0] == "f":
                idx = [resolve(tok) for tok in parts[1:]]
                if len(idx) < 3:
                    raise InvalidInputError(f"face with fewer than 3 vertices in {path}")
                for k in range(1, len(idx) - 1):
                    faces.append((idx[0], idx[k], idx[k + 1]))
    if not vertices:
        raise InvalidInputError(f"no vertices in {path}")
    return TriangleMesh(np.asarray(vertices, dtype=np.float64),
                        np.asarray(faces, dtype=np.int64).reshape(-1, 3))


def save_obj(path, mesh: TriangleMesh) -> None:
    path = Path(path)
    lines = []
    for v in mesh.vertices:
        lines.append(f"v {_fr(v[0])} {_fr(v[1])} {_fr(v[2])}")
    for t in mesh.triangles:
        lines.append(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}")
    path.write_text("\n".join(lines) + "\n")


def save_ply(path, cloud: PointCloud) -> None:
    """Write an ASCII PLY point cloud with x y z properties."""
    path = Path(path)
    n = len(cloud)
    header = (
        "ply\nformat ascii 1.0\n"
        f"element vertex {n}\n"
        "property float x\nproperty float y\nproperty float z\n"
        "end_header\n"
    )
    body = "".join(
        f"{_fr(p[0])} {_fr(p[1])} {_fr(p[2])}\n" for p in cloud.points
    )
    path.write_text(header + body)


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
    with open(path, "wb") as fh:
        fh.write(b"Pf\n")
        fh.write(f"{w} {h}\n".encode("ascii"))
        fh.write(b"-1.0\n")
        fh.write(np.ascontiguousarray(depth[::-1]).astype("<f4").tobytes())


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
        count = w * h
        raw = fh.read(count * 4)
        if len(raw) != count * 4:
            raise InvalidInputError(f"truncated PFM payload in {path}")
    endianness = "<f4" if scale < 0 else ">f4"
    data = np.frombuffer(raw, dtype=endianness).reshape(h, w)
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
    Path(path).write_text("\n".join(lines) + "\n")


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
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("ascii"))
        fh.write(blob)


def load_samples(path) -> tuple[np.ndarray, np.ndarray, dict]:
    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(f"sample file not found: {path}")
    with open(path, "rb") as fh:
        first = fh.readline().decode("ascii").strip()
        if first != SAMPLES_MAGIC:
            raise InvalidInputError(f"bad magic in sample file {path}")
        header: dict[str, str] = {}
        count = None
        while True:
            line = fh.readline().decode("ascii").strip()
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
        raw = fh.read(count * 32)
        if len(raw) != count * 32:
            raise InvalidInputError(f"truncated sample payload in {path}")
    data = np.frombuffer(raw, dtype="<f8").reshape(count, 4)
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
    with open(path, "wb") as fh:
        fh.write(magic + b"\n")
        fh.write(("\n".join(manifest) + "\nEND\n").encode("ascii"))
        for blob in blobs:
            fh.write(blob)


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
        n = _header_number(int, fh.readline().decode("ascii").strip(), path)
        shapes: list[tuple[str, tuple[int, ...]]] = []
        for _ in range(n):
            parts = fh.readline().decode("ascii").split()
            name = parts[0]
            dims = tuple(_header_number(int, d, path) for d in parts[1:])
            if dims == (0,):
                dims = ()
            shapes.append((name, dims))
        if fh.readline().decode("ascii").strip() != "END":
            raise InvalidInputError(f"malformed manifest in {path}")
        out: dict[str, np.ndarray] = {}
        for name, dims in shapes:
            count = int(np.prod(dims)) if dims else 1
            raw = fh.read(count * 8)
            if len(raw) != count * 8:
                raise InvalidInputError(f"truncated tensor {name} in {path}")
            out[name] = np.frombuffer(raw, dtype="<f8").reshape(dims).copy()
    return out
