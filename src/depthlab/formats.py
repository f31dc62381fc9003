"""On-disk formats: PFM depth rasters, PPM images, PGM label masks,
trajectory text files, intrinsics files, and scene directories.

PFM follows the grayscale "Pf" convention: float32 payload, bottom-up row
order, negative scale marking little-endian. Trajectories are text lines
"index tx ty tz qw qx qy qz" (w-first unit quaternion) storing
camera-to-world poses.

A scene directory holds intrinsics.txt, trajectory.txt and, per frame id k,
frame_{k:03d}.ppm with optional depth_{k:03d}.pfm and labels_{k:03d}.pgm.
trajectory.txt is the scene's `trajectory`, camera-to-world as in memory:
its indices are the frame ids, and a scene keeps them when it is read and
written back, so a sequence numbered from 1 stays numbered from 1.

Every reader's refusal of a malformed file names the file, and a text
file's line.
"""

from __future__ import annotations

import os
import re
from contextlib import contextmanager

import numpy as np

from .evalmetrics import Trajectory
from .geometry import CameraModel, PoseSE3, quaternion_to_rotation, rotation_to_quaternion
from .scene import Scene


def _read_exact(fh, path, w: int, h: int, pixel_bytes: int) -> bytes:
    """The w x h x pixel_bytes bytes of a raster's payload; a size below
    1 x 1 or a short file is refused by name."""
    if w < 1 or h < 1:
        raise ValueError(f"{path}: raster size must be at least 1 x 1, got {w} x {h}")
    count = w * h * pixel_bytes
    data = fh.read(count)
    if len(data) != count:
        raise ValueError(f"{path} truncated: expected {count} bytes, got {len(data)}")
    return data


@contextmanager
def _named(where):
    """Prefix a ValueError raised inside with `where`, a file or file and line."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


# -- PFM ----------------------------------------------------------------------------


def write_pfm(path, values: np.ndarray) -> None:
    values = np.asarray(values, dtype=np.float32)
    if values.ndim != 2:
        raise ValueError(f"PFM writer needs a 2-d raster, got shape {values.shape}")
    h, w = values.shape
    with open(path, "wb") as fh:
        fh.write(f"Pf\n{w} {h}\n-1.0\n".encode("ascii"))
        fh.write(np.flipud(values).astype("<f4").tobytes())


def read_pfm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        with _named(path):
            magic = fh.readline().strip()
            if magic != b"Pf":
                raise ValueError(f"not a grayscale PFM file: magic {magic!r}")
            dims = fh.readline().decode("latin-1").split()
            if len(dims) != 2:
                raise ValueError(f"PFM size line must hold width and height, got {dims}")
            w, h = int(dims[0]), int(dims[1])
            scale = float(fh.readline())
        data = np.frombuffer(_read_exact(fh, path, w, h, 4), dtype="<f4" if scale < 0 else ">f4")
    return np.flipud(data.reshape(h, w)).astype(np.float64)


# -- PPM / PGM -----------------------------------------------------------------------


def _read_netpbm(path, magic: bytes, channels: int) -> np.ndarray:
    """An 8-bit netpbm raster: a read-only (H, W, channels) view of the
    file's payload. Header tokens are whitespace-separated; '#' comments out
    the rest of its line."""
    def token():
        tok = b""
        while not (ch := fh.read(1)).isspace() or not tok:
            if not ch:
                raise ValueError("truncated netpbm header")
            if ch == b"#":
                fh.readline()
            elif not ch.isspace():
                tok += ch
        return tok

    with open(path, "rb") as fh:
        with _named(path):
            got = token()
            if got != magic:
                raise ValueError(f"expected {magic!r}, got {got!r}")
            w, h, maxval = (int(token()) for _ in range(3))
            if maxval != 255:
                raise ValueError(f"only 8-bit rasters supported, got maxval {maxval}")
        data = np.frombuffer(_read_exact(fh, path, w, h, channels), dtype=np.uint8)
    return data.reshape(h, w, channels)


def write_ppm(path, image: np.ndarray) -> None:
    """image: (3, H, W) floats in [0, 1]."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[0] != 3:
        raise ValueError(f"PPM writer needs a (3, H, W) image, got {image.shape}")
    h, w = image.shape[1:]
    bytes_img = np.clip(np.round(image * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(bytes_img.transpose(1, 2, 0).tobytes())


def read_ppm(path) -> np.ndarray:
    return _read_netpbm(path, b"P6", 3).transpose(2, 0, 1).astype(np.float64) / 255.0


def write_pgm(path, labels: np.ndarray) -> None:
    """labels: (H, W) small nonnegative integers."""
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ValueError(f"PGM writer needs a 2-d raster, got {labels.shape}")
    if labels.min() < 0 or labels.max() > 255:
        raise ValueError("labels must fit in one byte")
    h, w = labels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(labels.astype(np.uint8).tobytes())


def read_pgm(path) -> np.ndarray:
    """(H, W) uint8 surface ids: a read-only view of the file's 8-bit raster."""
    return _read_netpbm(path, b"P5", 1)[:, :, 0]


# -- trajectories ----------------------------------------------------------------------


def write_trajectory(path, traj: Trajectory) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for idx, pose in zip(traj.indices, traj.poses):
            q = rotation_to_quaternion(pose.rotation)
            t = pose.translation
            fh.write(
                f"{idx} {t[0]:.17g} {t[1]:.17g} {t[2]:.17g} "
                f"{q[0]:.17g} {q[1]:.17g} {q[2]:.17g} {q[3]:.17g}\n"
            )


def _fields(line: str, types) -> list:
    """A text line's whitespace-separated fields, converted one for one by `types`."""
    fields = line.split()
    if len(fields) != len(types):
        raise ValueError(f"expected {len(types)} fields, got {len(fields)}")
    return [convert(field) for convert, field in zip(types, fields)]


def read_trajectory(path) -> Trajectory:
    indices, poses = [], []
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            with _named(f"{path} line {lineno}"):
                idx, tx, ty, tz, *q = _fields(stripped, (int,) + (float,) * 7)
                norm = np.linalg.norm(q)
                if not 0 < norm < np.inf:
                    raise ValueError(f"quaternion norm {norm} is not a positive finite number")
                poses.append(PoseSE3(quaternion_to_rotation(q), [tx, ty, tz]))
            indices.append(idx)
    with _named(path):
        return Trajectory(tuple(indices), tuple(poses))


# -- intrinsics ---------------------------------------------------------------------------


def write_intrinsics(path, cam: CameraModel) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{cam.fx:.17g} {cam.fy:.17g} {cam.cx:.17g} {cam.cy:.17g}\n")
        fh.write(f"{cam.width} {cam.height}\n")


def read_intrinsics(path) -> CameraModel:
    """'fx fy cx cy' on line 1, 'width height' on line 2."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, types in enumerate([(float,) * 4, (int,) * 2], start=1):
            with _named(f"{path} line {lineno}"):
                values += _fields(fh.readline(), types)
    with _named(path):
        return CameraModel(*values)


# -- scene directories -----------------------------------------------------------------------


def write_scene(directory, scene: Scene) -> None:
    """Lay a scene out as PPM/PFM/PGM files named by frame id plus
    trajectory and intrinsics text files; depth and label rasters only when
    the scene has them. A directory holding a frame_*.ppm this scene lacks
    is refused before anything is written: no reader could pair it with the
    new trajectory. So is a path that exists but is not a directory."""
    if os.path.exists(directory) and not os.path.isdir(directory):
        raise ValueError(f"scene path {directory} is not a directory")
    names = {f"frame_{frame_id:03d}.ppm" for frame_id in scene.trajectory.indices}
    for name in sorted(os.listdir(directory)) if os.path.isdir(directory) else ():
        if name.startswith("frame_") and name.endswith(".ppm") and name not in names:
            raise ValueError(f"scene directory {directory} holds {name}, a frame this scene lacks")
    os.makedirs(directory, exist_ok=True)
    write_intrinsics(os.path.join(directory, "intrinsics.txt"), scene.cam)
    write_trajectory(os.path.join(directory, "trajectory.txt"), scene.trajectory)
    for k, frame_id in enumerate(scene.trajectory.indices):
        write_ppm(os.path.join(directory, f"frame_{frame_id:03d}.ppm"), scene.frames[k])
        if scene.depths is not None:
            write_pfm(os.path.join(directory, f"depth_{frame_id:03d}.pfm"), scene.depths[k])
        if scene.labels is not None:
            write_pgm(os.path.join(directory, f"labels_{frame_id:03d}.pgm"), scene.labels[k])


def _all_or_none(directory, names: list[str], read, cam: CameraModel):
    """Every named raster read in order, or None when none exists; a partial
    set would pair frames with other frames' rasters, so it is rejected, and
    so is, by name, a raster whose (H, W) is not the camera's."""
    paths = [os.path.join(directory, name) for name in names]
    present = [os.path.exists(path) for path in paths]
    if not any(present):
        return None
    if not all(present):
        missing = names[present.index(False)]
        raise ValueError(f"scene directory {directory} has some rasters of this kind but lacks {missing}")
    rasters = tuple(read(path) for path in paths)
    for path, raster in zip(paths, rasters):
        h, w = raster.shape[-2:]
        if (h, w) != (cam.height, cam.width):
            raise ValueError(f"{path}: raster is {w} x {h}, but intrinsics.txt gives {cam.width} x {cam.height}")
    return rasters


def _frame_id(directory, name: str) -> int:
    """The id in a frame file's name; any other spelling than
    frame_{id:03d}.ppm (frame_5.ppm, frame_0005.ppm) is rejected, since the
    reader opens frames by that one spelling."""
    match = re.fullmatch(r"frame_(\d+)\.ppm", name)
    if match is None or name != f"frame_{int(match.group(1)):03d}.ppm":
        raise ValueError(f"frame file {name} in {directory} is not named frame_{{id:03d}}.ppm")
    return int(match.group(1))


def SceneOnDisk(directory) -> Scene:
    """Read a scene directory written by write_scene (or any matching
    external data), keeping its frame ids, which must equal trajectory.txt's
    indices; every raster must be intrinsics.txt's width x height."""
    if not os.path.isdir(directory):
        raise ValueError(f"scene path {directory} is not a directory")
    cam = read_intrinsics(os.path.join(directory, "intrinsics.txt"))
    names = [name for name in os.listdir(directory) if name.startswith("frame_") and name.endswith(".ppm")]
    ids = tuple(sorted(_frame_id(directory, name) for name in names))
    if not ids:
        raise ValueError(f"no frame_*.ppm files in {directory}")
    traj = read_trajectory(os.path.join(directory, "trajectory.txt"))
    if traj.indices != ids:
        raise ValueError(f"trajectory.txt indices {traj.indices} differ from frame ids {ids} in {directory}")
    return Scene(
        cam=cam,
        trajectory=traj,
        frames=_all_or_none(directory, [f"frame_{k:03d}.ppm" for k in ids], read_ppm, cam),
        depths=_all_or_none(directory, [f"depth_{k:03d}.pfm" for k in ids], read_pfm, cam),
        labels=_all_or_none(directory, [f"labels_{k:03d}.pgm" for k in ids], read_pgm, cam),
    )
