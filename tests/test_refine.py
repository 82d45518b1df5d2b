import warnings

import numpy as np
import pytest

from suitcap.refine import RefineConfig, damped_gauss_newton, fitting_rms, refine
from suitcap.simulator import truth_clouds, tube_scene


def _blur(W, layout, rounds=1):
    edges = layout.edges()
    out = W.copy()
    for _ in range(rounds):
        acc = out.copy()
        deg = np.ones(len(out))
        np.add.at(acc, edges[:, 0], out[edges[:, 1]])
        np.add.at(acc, edges[:, 1], out[edges[:, 0]])
        np.add.at(deg, edges[:, 0], 1.0)
        np.add.at(deg, edges[:, 1], 1.0)
        out = acc / deg[:, None]
        out /= out.sum(axis=1, keepdims=True)
    return out


@pytest.fixture(scope="module")
def generative_setup():
    scene = tube_scene(strips=4, codes_per_strip=8, seed=5, animation_strength=1.4)
    K = 40
    truth = scene.posed_model(K)
    clouds = truth_clouds(scene, K)
    return scene, truth, clouds


def test_refine_recovers_generative_model(generative_setup):
    scene, truth, clouds = generative_setup
    m0 = truth.copy()
    m0.weights = _blur(truth.weights, scene.layout)
    m0.pose_quats = np.zeros((0, m0.n_joints, 4))
    m0.root_translations = np.zeros((0, 3))

    res = refine(m0, clouds, scene.layout, RefineConfig(outer_iterations=100, convergence_tol=1e-9))
    assert res.fit_rms_trace[-1] < 0.1  # mm
    assert np.abs(res.model.weights - truth.weights).max() < 0.05
    # loss trace non-increasing
    t = res.loss_trace
    assert all(t[i + 1] <= t[i] + 1e-9 for i in range(len(t) - 1))
    # weight rows stay on the simplex
    assert np.abs(res.model.weights.sum(axis=1) - 1.0).max() < 1e-9
    assert res.model.weights.min() >= -1e-12
    # pruning cap
    assert (res.model.weights > 0).sum(axis=1).max() <= 4


def test_refine_perturbed_joints_reduces_holdout_rms(generative_setup):
    scene, truth, clouds = generative_setup
    train, holdout = clouds[:30], clouds[30:]

    rng = np.random.default_rng(8)
    m0 = truth.copy()
    d = rng.normal(size=m0.joints.shape)
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    m0.joints = m0.joints + 20.0 * d
    m0.weights = _blur(truth.weights, scene.layout, rounds=2)
    m0.pose_quats = np.zeros((0, m0.n_joints, 4))
    m0.root_translations = np.zeros((0, 3))

    before = fitting_rms(m0, holdout)
    res = refine(m0, train, scene.layout, RefineConfig(outer_iterations=60))
    after = fitting_rms(res.model, holdout)
    assert after <= 0.6 * before  # at least 40 percent reduction
    t = res.loss_trace
    assert all(t[i + 1] <= t[i] + 1e-9 for i in range(len(t) - 1))


def test_refine_flags_unobserved_vertices(generative_setup):
    scene, truth, clouds = generative_setup
    clipped = []
    hidden = {0, 1, 2}
    import copy

    for c in clouds[:10]:
        cc = copy.deepcopy(c)
        for i in hidden:
            cc.points.pop(i, None)
        clipped.append(cc)
    m0 = truth.copy()
    m0.pose_quats = np.zeros((0, m0.n_joints, 4))
    m0.root_translations = np.zeros((0, 3))
    res = refine(m0, clipped, scene.layout, RefineConfig(outer_iterations=3))
    assert hidden.issubset(set(res.unobserved_vertices.tolist()))
    # unobserved vertices keep their initial rest position and weights
    for i in hidden:
        assert np.array_equal(res.model.rest_vertices[i], m0.rest_vertices[i])


def test_fit_poses_exact_on_generative_data(generative_setup):
    scene, truth, clouds = generative_setup
    rms = fitting_rms(truth, clouds[:5])
    assert rms < 1e-6


def test_refine_config_validation():
    with pytest.raises(ValueError):
        RefineConfig(lambda_g=-1.0)
    with pytest.raises(ValueError):
        RefineConfig(outer_iterations=0)
    # a negative count would zero every weight after the last outer iteration
    with pytest.raises(ValueError, match="prune_top"):
        RefineConfig(prune_top=-1)
    RefineConfig(prune_top=0)  # 0 switches pruning off


def test_joint_step_gradient_matches_finite_differences():
    import suitcap.refine as rf
    from suitcap.simulator import truth_clouds, tube_scene

    scene = tube_scene(strips=3, codes_per_strip=6, seed=33, animation_strength=1.0)
    K = 5
    truth = scene.posed_model(K)
    clouds = truth_clouds(scene, K)
    model = truth.copy()
    rng = np.random.default_rng(0)
    model.joints = model.joints + rng.normal(0, 10, model.joints.shape)
    frames_obs = rf._prepare_frames(model, clouds)
    total_obs = sum(len(f[0]) for f in frames_obs)
    joints0 = truth.joints.copy()
    lam_j = 1.0
    _, g = rf._joint_normal_equations(model, frames_obs, lam_j, joints0, total_obs)

    def loss(jp):
        m = model.copy()
        m.joints = jp
        return rf._fit_sse(m, frames_obs) / total_obs + lam_j * float(np.sum((jp - joints0) ** 2))

    M = model.n_joints
    h = 1e-6
    gfd = np.zeros(3 * M)
    for m in range(M):
        for a in range(3):
            jp = model.joints.copy()
            jp[m, a] += h
            jm = model.joints.copy()
            jm[m, a] -= h
            gfd[3 * m + a] = (loss(jp) - loss(jm)) / (2 * h)
    assert np.abs(g - gfd).max() / (np.abs(gfd).max() + 1e-12) < 1e-6


@pytest.mark.parametrize("far", ["inf", "nan"])
def test_gauss_newton_rejects_non_finite_trial_costs(far):
    """A first step past the radius where the cost stops being finite is rejected without a
    RuntimeWarning, and the damped retries still reach the minimum."""
    radius = 4.0
    trials = []

    def cost(x):
        trials.append(float(x[0]))
        wall = np.exp(1e6 * (abs(x[0]) - radius))  # 0 inside the radius, overflows to inf just past it
        if far == "nan":
            wall = wall * 0.0  # inf * 0 is nan
        return float(np.arctan(x[0] - 1.0) ** 2 + wall)

    def normal_equations(x):
        J = 1.0 / (1.0 + (x[0] - 1.0) ** 2)
        return np.array([[J * J]]), np.array([J * np.arctan(x[0] - 1.0)])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = damped_gauss_newton(np.array([-1.0]), cost, normal_equations, lambda x, d: x + d, 50)
    assert trials[1] > radius + 0.5  # the undamped Gauss-Newton step overshoots the radius
    assert abs(x[0] - 1.0) < 1e-9
