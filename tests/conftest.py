import os

# keep BLAS single-threaded: the acceptance runtime criteria are single-thread
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np
import pytest

from suitcap.detection import oracle_detect
from suitcap.geometry import Camera, CameraRig, rot_to_quat
from suitcap.simulator import compute_visibility

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def look_at_camera(cam_id, position, target, focal=2400.0, image_size=(4000, 2160), dist=None):
    position = np.asarray(position, dtype=float)
    target = np.asarray(target, dtype=float)
    z = target - position
    z /= np.linalg.norm(z)
    x = np.cross(z, np.array([0.0, 0.0, 1.0]))
    x /= np.linalg.norm(x)
    y = np.cross(z, x)
    R = np.stack([x, y, z])
    K = np.array([[focal, 0, image_size[0] / 2], [0, focal, image_size[1] / 2], [0, 0, 1.0]])
    return Camera(
        id=cam_id,
        intrinsics=K,
        distortion=np.zeros(5) if dist is None else np.asarray(dist, dtype=float),
        rotation=rot_to_quat(R),
        translation=-R @ position,
        image_size=image_size,
    )


def ring_rig(n_cameras=4, radius=3000.0, height=1000.0, center=(0, 0, 1000.0), dist=None):
    cams = []
    for i in range(n_cameras):
        phi = 2 * np.pi * i / n_cameras
        pos = (radius * np.cos(phi), radius * np.sin(phi), height)
        cams.append(look_at_camera(i, pos, center, dist=dist))
    return CameraRig(cams)


@pytest.fixture
def rig4():
    return ring_rig(4)


@pytest.fixture
def rig16():
    return ring_rig(16)


# radial-tangential coefficients (k1, k2, p1, p2, k3) of the distorted test cameras
DIST = np.array([-0.11, 0.03, 0.0007, -0.0004, 0.004])


def mixed_ring_rig():
    """Eight ring cameras: the even ones distorted with DIST, the odd ones pinhole."""
    pinhole = ring_rig(8)
    distorted = ring_rig(8, dist=DIST)
    return CameraRig([d if i % 2 == 0 else p for i, (d, p) in enumerate(zip(distorted, pinhole))])


@pytest.fixture
def mixed_rig():
    return mixed_ring_rig()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def detect_sequence(scene, n_frames, noise):
    """Oracle detections of every camera of the scene's rig over frames 0..n_frames-1."""
    frames = []
    for k in range(n_frames):
        pos = scene.positions(k)
        visible = compute_visibility(scene, k, positions=pos)
        frames += [oracle_detect(k, cam, pos, seen, scene.layout, noise) for cam, seen in zip(scene.rig, visible)]
    return frames


def labeled_counts(scene, k):
    """Per corner id, the number of cameras in which some fully visible quad labels it."""
    quads = scene.layout.quads
    full = compute_visibility(scene, k)[:, quads].all(axis=2)  # (cameras, quads)
    labeled = np.zeros((len(full), scene.layout.n_corners), dtype=bool)
    cams, q = np.nonzero(full)
    labeled[cams[:, None], quads[q]] = True
    return labeled.sum(axis=0)
