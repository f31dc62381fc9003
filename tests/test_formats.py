"""File format round trips: PFM, PPM, PGM, trajectories, intrinsics,
scene directories."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthlab.evalmetrics import Trajectory
from depthlab.formats import (
    SceneOnDisk,
    read_intrinsics,
    read_pfm,
    read_pgm,
    read_ppm,
    read_trajectory,
    write_intrinsics,
    write_pfm,
    write_pgm,
    write_ppm,
    write_scene,
    write_trajectory,
)
from depthlab.geometry import CameraModel, PoseSE3
from depthlab.scene import generate_scene

from oracles import rotation_expm


class TestPFM:
    def test_roundtrip_float32_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        depth = rng.uniform(0.1, 120.0, size=(9, 7)).astype(np.float32).astype(np.float64)
        path = tmp_path / "depth.pfm"
        write_pfm(path, depth)
        np.testing.assert_array_equal(read_pfm(path), depth)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "d.pfm"
        write_pfm(path, np.ones((2, 3)))
        raw = path.read_bytes()
        assert raw.startswith(b"Pf\n3 2\n-1.0\n")
        assert len(raw) == len(b"Pf\n3 2\n-1.0\n") + 2 * 3 * 4

    def test_bottom_up_row_order(self, tmp_path):
        depth = np.array([[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / "d.pfm"
        write_pfm(path, depth)
        payload = path.read_bytes()[len(b"Pf\n2 2\n-1.0\n") :]
        first_row = np.frombuffer(payload[:8], dtype="<f4")
        np.testing.assert_array_equal(first_row, [3.0, 4.0])  # bottom row first

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.pfm"
        path.write_bytes(b"PF\n1 1\n-1.0\n" + b"\x00" * 12)
        with pytest.raises(ValueError, match="grayscale"):
            read_pfm(path)

    def test_a_size_line_of_one_number_is_refused_by_name(self, tmp_path):
        path = tmp_path / "d.pfm"
        path.write_bytes(b"Pf\n16\n-1.0\n" + b"\x00" * 64)
        with pytest.raises(ValueError, match=re.escape(f"{path}: PFM size line must hold width and height, got ['16']")):
            read_pfm(path)


class TestPPMAndPGM:
    def test_ppm_roundtrip_within_quantization(self, tmp_path):
        rng = np.random.default_rng(2)
        image = rng.uniform(0, 1, size=(3, 5, 6))
        path = tmp_path / "img.ppm"
        write_ppm(path, image)
        back = read_ppm(path)
        assert np.max(np.abs(back - image)) <= 0.5 / 255.0 + 1e-12

    def test_ppm_exact_on_quantized_values(self, tmp_path):
        image = (np.arange(3 * 2 * 2).reshape(3, 2, 2) % 256) / 255.0
        path = tmp_path / "img.ppm"
        write_ppm(path, image)
        np.testing.assert_array_equal(read_ppm(path), image)

    def test_pgm_labels_exact(self, tmp_path):
        labels = np.random.default_rng(3).integers(0, 5, size=(6, 4))
        path = tmp_path / "labels.pgm"
        write_pgm(path, labels)
        back = read_pgm(path)
        assert back.dtype == np.uint8
        np.testing.assert_array_equal(back, labels)

    def test_pgm_rejects_wide_labels(self, tmp_path):
        with pytest.raises(ValueError, match="byte"):
            write_pgm(tmp_path / "bad.pgm", np.full((2, 2), 300))


@pytest.mark.parametrize(
    "write, read, value, payload",
    [
        (write_pfm, read_pfm, np.ones((16, 16)), 16 * 16 * 4),
        (write_ppm, read_ppm, np.ones((3, 16, 16)), 16 * 16 * 3),
        (write_pgm, read_pgm, np.ones((16, 16), dtype=np.uint8), 16 * 16),
    ],
    ids=["pfm", "ppm", "pgm"],
)
def test_a_raster_cut_short_is_refused_by_name(tmp_path, write, read, value, payload):
    path = tmp_path / "raster"
    write(path, value)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(ValueError, match=re.escape(f"{path} truncated: expected {payload} bytes, got {payload - 5}")):
        read(path)


@pytest.mark.parametrize(
    "read, raw, message",
    [
        (read_pfm, b"Pf\n16 x\n-1.0\n", "invalid literal for int() with base 10: 'x'"),
        (read_pfm, b"Pf\n-16 -16\n-1.0\n", "raster size must be at least 1 x 1, got -16 x -16"),
        (read_pfm, b"Pf\n16 16\nscale\n", "could not convert string to float: b'scale\\n'"),
        (read_ppm, b"P6\n16 y\n255\n", "invalid literal for int() with base 10: b'y'"),
        (read_pgm, b"P5\n0 16\n255\n", "raster size must be at least 1 x 1, got 0 x 16"),
        (read_pgm, b"P5\n16", "truncated netpbm header"),
        (read_pgm, b"P5\n16 16\n65535\n", "only 8-bit rasters supported, got maxval 65535"),
        (read_pgm, b"P6\n16 16\n255\n", "expected b'P5', got b'P6'"),
    ],
    ids=["pfm_size", "pfm_negative", "pfm_scale", "ppm_size", "pgm_zero", "pgm_cut_header", "pgm_maxval", "pgm_magic"],
)
def test_a_malformed_raster_header_is_refused_by_name(tmp_path, read, raw, message):
    # a payload long enough for any size tried, so only the header can fail
    path = tmp_path / "raster"
    path.write_bytes(raw + b"\x00" * (16 * 16 * 4))
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        read(path)


class TestTrajectory:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        poses = tuple(
            PoseSE3(rotation_expm(rng.uniform(-2, 2, 3)), rng.uniform(-5, 5, 3)) for _ in range(6)
        )
        traj = Trajectory((0, 2, 3, 5, 8, 13), poses)
        path = tmp_path / "traj.txt"
        write_trajectory(path, traj)
        back = read_trajectory(path)
        assert back.indices == traj.indices
        for a, b in zip(back.poses, traj.poses):
            np.testing.assert_allclose(a.rotation, b.rotation, atol=1e-12)
            np.testing.assert_allclose(a.translation, b.translation, atol=1e-12)

    def test_line_format_w_first(self, tmp_path):
        traj = Trajectory((7,), (PoseSE3.identity(),))
        path = tmp_path / "traj.txt"
        write_trajectory(path, traj)
        fields = path.read_text().split()
        assert fields[0] == "7"
        assert [float(v) for v in fields[1:]] == [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]

    def test_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "traj.txt"
        path.write_text("0 1 2 3\n")
        with pytest.raises(ValueError, match="8 fields"):
            read_trajectory(path)

    @pytest.mark.parametrize("quaternion, norm", [("0 0 0 0", "0.0"), ("nan 1 0 0", "nan"), ("inf 0 0 0", "inf")])
    def test_rejects_a_quaternion_without_a_direction_naming_the_line(self, tmp_path, quaternion, norm):
        path = tmp_path / "traj.txt"
        path.write_text(f"0 0 0 0 1 0 0 0\n1 0 0 0 {quaternion}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path} line 2: quaternion norm {norm} is not a positive finite number")):
            read_trajectory(path)


    @pytest.mark.parametrize(
        "first, message",
        [
            ("0 nan 0 0 1 0 0 0", " line 1: translation must be finite"),
            ("0 x 0 0 1 0 0 0", " line 1: could not convert string to float: 'x'"),
            ("0 \udcff 0 0 1 0 0 0", " line 1: could not convert string to float: '\ufffd'"),
            ("0.5 0 0 0 1 0 0 0", " line 1: invalid literal for int() with base 10: '0.5'"),
            ("1 0 0 0 1 0 0 0", ": frame indices must be strictly increasing"),
        ],
        ids=["nan_translation", "bad_float", "not_utf8", "bad_index", "order"],
    )
    def test_a_bad_value_is_refused_naming_the_file_and_line(self, tmp_path, first, message):
        path = tmp_path / "traj.txt"
        path.write_bytes(f"{first}\n1 0 0 0 1 0 0 0\n".encode("utf-8", "surrogateescape"))
        with pytest.raises(ValueError, match=re.escape(f"{path}{message}")):
            read_trajectory(path)


class TestIntrinsics:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("16 16 a 7.5\n16 16\n", " line 1: could not convert string to float: 'a'"),
            ("16 16 7.5\n16 16\n", " line 1: expected 4 fields, got 3"),
            ("16 16 7.5 7.5\n16\n", " line 2: expected 2 fields, got 1"),
            ("16 16 7.5 7.5\n16 0\n", ": image size must be at least 1x1 pixel, got 16x0"),
        ],
        ids=["bad_float", "short_line_1", "short_line_2", "camera"],
    )
    def test_a_bad_value_is_refused_naming_the_file(self, tmp_path, text, message):
        path = tmp_path / "intrinsics.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}{message}")):
            read_intrinsics(path)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(deadline=None, max_examples=30)
    def test_roundtrip(self, seed):
        import tempfile

        rng = np.random.default_rng(seed)
        w, h = int(rng.integers(4, 200)), int(rng.integers(4, 200))
        cam = CameraModel(
            fx=float(rng.uniform(1, 500)),
            fy=float(rng.uniform(1, 500)),
            cx=float(rng.uniform(0, w - 1)),
            cy=float(rng.uniform(0, h - 1)),
            width=w,
            height=h,
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/intrinsics.txt"
            write_intrinsics(path, cam)
            assert read_intrinsics(path) == cam


class TestSceneDirectory:
    def test_write_then_load(self, tmp_path):
        cam = CameraModel(fx=32.0, fy=32.0, cx=15.5, cy=15.5, width=32, height=32)
        scene = generate_scene("two_spheres", 4, seed=5, cam=cam)
        directory = tmp_path / "scene"
        write_scene(directory, scene)
        loaded = SceneOnDisk(directory)
        assert len(loaded) == 4
        assert loaded.cam == cam
        assert np.max(np.abs(loaded.frames[1] - scene.frames[1])) <= 0.5 / 255.0 + 1e-12
        np.testing.assert_allclose(loaded.depths[2], scene.depths[2], rtol=1e-6)
        np.testing.assert_array_equal(loaded.labels[3], scene.labels[3])
        got, want = loaded.trajectory, scene.trajectory
        assert got.indices == want.indices
        np.testing.assert_allclose(got.poses[2].rotation, want.poses[2].rotation, atol=1e-9)
        np.testing.assert_allclose(got.poses[2].translation, want.poses[2].translation, atol=1e-9)

    def test_labels_stay_uint8_from_render_to_disk_and_back(self, tmp_path):
        cam = CameraModel(fx=16.0, fy=16.0, cx=7.5, cy=7.5, width=16, height=16)
        scene = generate_scene("two_spheres", 3, seed=4, cam=cam)
        directory = tmp_path / "scene"
        write_scene(directory, scene)
        loaded = SceneOnDisk(directory)
        for k, frame_id in enumerate(scene.trajectory.indices):
            from_file = read_pgm(directory / f"labels_{frame_id:03d}.pgm")
            for labels in (scene.labels[k], loaded.labels[k], from_file):
                assert labels.dtype == np.uint8
                np.testing.assert_array_equal(labels, scene.labels[k])
        assert set(np.unique(np.stack(scene.labels))) == {0, 1, 2}

    @pytest.mark.parametrize("missing", ["depth_002.pfm", "labels_002.pgm"])
    def test_partial_rasters_rejected_by_name(self, tmp_path, missing):
        cam = CameraModel(fx=16.0, fy=16.0, cx=7.5, cy=7.5, width=16, height=16)
        directory = tmp_path / "scene"
        write_scene(directory, generate_scene("two_spheres", 6, seed=5, cam=cam))
        (directory / missing).unlink()
        with pytest.raises(ValueError, match=missing):
            SceneOnDisk(directory)

    @pytest.mark.parametrize("indices", [(0, 2, 4, 6, 8, 10), (0, 1, 2, 3, 4)], ids=["renumbered", "short"])
    def test_trajectory_on_other_frames_rejected(self, tmp_path, indices):
        cam = CameraModel(fx=16.0, fy=16.0, cx=7.5, cy=7.5, width=16, height=16)
        directory = tmp_path / "scene"
        write_scene(directory, generate_scene("two_spheres", 6, seed=5, cam=cam))
        lines = (directory / "trajectory.txt").read_text().splitlines()
        (directory / "trajectory.txt").write_text(
            "".join(f"{k} {line.split(maxsplit=1)[1]}\n" for k, line in zip(indices, lines))
        )
        with pytest.raises(ValueError, match=re.escape(f"indices {indices} differ from frame ids (0, 1, 2, 3, 4, 5)")):
            SceneOnDisk(directory)

    @pytest.mark.parametrize("name, keep_original", [("frame_5.ppm", False), ("frame_0005.ppm", True)])
    def test_frame_name_other_than_the_padded_id_rejected_by_name(self, tmp_path, name, keep_original):
        cam = CameraModel(fx=16.0, fy=16.0, cx=7.5, cy=7.5, width=16, height=16)
        directory = tmp_path / "scene"
        write_scene(directory, generate_scene("two_spheres", 6, seed=5, cam=cam))
        original = directory / "frame_005.ppm"
        (directory / name).write_bytes(original.read_bytes())
        if not keep_original:
            original.unlink()
        with pytest.raises(ValueError, match=re.escape(name)):
            SceneOnDisk(directory)

    def test_rasters_a_scene_lacks_stay_absent_when_written_back(self, tmp_path):
        cam = CameraModel(fx=16.0, fy=16.0, cx=7.5, cy=7.5, width=16, height=16)
        write_scene(tmp_path / "scene", generate_scene("two_spheres", 6, seed=5, cam=cam))
        for path in (tmp_path / "scene").glob("labels_*.pgm"):
            path.unlink()
        write_scene(tmp_path / "copy", SceneOnDisk(tmp_path / "scene"))
        copy = SceneOnDisk(tmp_path / "copy")
        assert copy.labels is None and len(copy.depths) == 6
        assert not list((tmp_path / "copy").glob("labels_*"))

    @pytest.mark.parametrize(
        "name, write, value",
        [
            ("frame_001.ppm", write_ppm, np.zeros((3, 8, 8))),
            ("depth_001.pfm", write_pfm, np.ones((8, 8))),
            ("labels_001.pgm", write_pgm, np.zeros((8, 8), dtype=np.uint8)),
        ],
        ids=["frame", "depth", "labels"],
    )
    def test_a_raster_of_another_size_is_rejected_by_name(self, tmp_path, name, write, value):
        cam = CameraModel(fx=16.0, fy=16.0, cx=7.5, cy=7.5, width=16, height=16)
        directory = tmp_path / "scene"
        write_scene(directory, generate_scene("two_spheres", 3, seed=5, cam=cam))
        write(directory / name, value)
        message = f"{directory / name}: raster is 8 x 8, but intrinsics.txt gives 16 x 16"
        with pytest.raises(ValueError, match=re.escape(message)):
            SceneOnDisk(directory)

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=re.escape(f"scene path {tmp_path / 'nope'} is not a directory")):
            SceneOnDisk(tmp_path / "nope")
