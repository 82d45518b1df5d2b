import warnings

import numpy as np
import pytest

from suitcap.refine import RefineConfig, damped_gauss_newton, fit_poses, fitting_rms, refine
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


@pytest.mark.parametrize("last_try", ["as_solved", "rejected"])
def test_fit_poses_distances_are_the_residuals_at_the_returned_poses(monkeypatch, last_try):
    """`fit_poses` takes its distances from the pose solve's last accepted evaluation, also when
    the driver's last try is a rejected step (here one more step that raises the cost)."""
    import suitcap.refine as rf

    scene = tube_scene(strips=3, codes_per_strip=6, seed=33, animation_strength=1.0)
    clouds = truth_clouds(scene, 3)
    model = scene.model.copy()
    model.weights = _blur(model.weights, scene.layout)  # no exact fit: the distances stay well above 0
    if last_try == "rejected":
        solve = rf.damped_gauss_newton

        def driver(x, evaluate, retract, iterations):
            x, evaluation = solve(x, evaluate, retract, iterations)
            assert evaluate(retract(x, np.full(3 * model.n_joints + 3, 0.5)))[0] > evaluation[0]
            return x, evaluation

        monkeypatch.setattr(rf, "damped_gauss_newton", driver)
    quats, roots, dists = fit_poses(model, clouds)
    frames = [c.observed(model.n_vertices) for c in clouds]
    want = np.concatenate([
        np.linalg.norm(rf._residuals(model, ids, pts, rf.joint_transforms(model, q, t)), axis=1)
        for (ids, pts), q, t in zip(frames, quats, roots)
    ])
    assert want.min() > 1e-3
    assert np.array_equal(dists, want)


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
    frames = [c.observed(model.n_vertices) for c in clouds]
    total_obs = sum(len(ids) for ids, _ in frames)
    joints0 = truth.joints.copy()
    lam_j = 1.0
    _, g = rf._joint_normal_equations(model, frames, rf._frame_transforms(model), lam_j, joints0, total_obs)

    def loss(jp):
        m = model.copy()
        m.joints = jp
        prior = lam_j * float(np.sum((jp - joints0) ** 2))
        return rf._fit_sse(m, frames, rf._frame_transforms(m)) / total_obs + prior

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


def test_joint_loss_is_quadratic_and_solved_in_one_block():
    """At fixed poses the joint loss is an exact quadratic: the normal equations' H is its
    Hessian, one block lands on the minimum, and a second block does not raise the loss."""
    import suitcap.refine as rf

    scene = tube_scene(strips=3, codes_per_strip=6, seed=33, animation_strength=1.0)
    K = 5
    truth = scene.posed_model(K)
    clouds = truth_clouds(scene, K)
    model = truth.copy()
    rng = np.random.default_rng(1)
    model.joints = model.joints + rng.normal(0, 10, model.joints.shape)
    model.weights = _blur(truth.weights, scene.layout)  # so that the minimum is not the truth
    frames = [c.observed(model.n_vertices) for c in clouds]
    total_obs = sum(len(ids) for ids, _ in frames)
    joints0 = truth.joints + rng.normal(0, 5, truth.joints.shape)
    lam_j = 1e-3  # small enough that the fit term dominates H

    def loss(joints):
        m = model.copy()
        m.joints = joints
        prior = lam_j * float(np.sum((joints - joints0) ** 2))
        return rf._fit_sse(m, frames, rf._frame_transforms(m)) / total_obs + prior

    H, g0 = rf._joint_normal_equations(model, frames, rf._frame_transforms(model), lam_j, joints0, total_obs)
    M = model.n_joints
    h = 1.0  # mm; a second difference of a quadratic is exact for any step
    E = h * np.eye(3 * M).reshape(3 * M, M, 3)
    H_fd = np.array([
        [
            (loss(model.joints + a + b) - loss(model.joints + a - b) - loss(model.joints - a + b)
             + loss(model.joints - a - b)) / (4 * h * h)
            for b in E
        ]
        for a in E
    ])
    assert np.abs(H - H_fd).max() <= 1e-6 * np.abs(H).max()

    before = loss(model.joints)
    transforms = rf._fit_joints(model, frames, rf._frame_transforms(model), lam_j, joints0, total_obs)
    once = loss(model.joints)
    _, g1 = rf._joint_normal_equations(model, frames, transforms, lam_j, joints0, total_obs)
    assert once < before
    assert np.linalg.norm(g1) < 1e-9 * np.linalg.norm(g0)
    rf._fit_joints(model, frames, transforms, lam_j, joints0, total_obs)
    assert loss(model.joints) <= once


def test_fit_pose_builds_transforms_once_per_evaluated_pose(monkeypatch):
    """The pose solve skins each pose it tries once, for its cost and its normal equations
    together: one `joint_transforms` call for the start and one per retracted step."""
    import suitcap.refine as rf

    scene = tube_scene(strips=3, codes_per_strip=6, seed=33, animation_strength=1.0)
    truth = scene.posed_model(2)
    ids, pts = truth_clouds(scene, 2)[1].observed(truth.n_vertices)
    calls = {"joint_transforms": 0, "quat_from_rotvec": 0}

    def counting(name):
        wrapped = getattr(rf, name)

        def call(*args):
            calls[name] += 1
            return wrapped(*args)

        return call

    for name in calls:  # `quat_from_rotvec` is called once per step, by the retraction
        monkeypatch.setattr(rf, name, counting(name))
    q0, t0 = truth.identity_pose()
    q, t = rf._pose_solve(truth, q0, t0, ids, pts, rf.FIT_POSES_ITERATIONS)[0]
    assert calls["quat_from_rotvec"] >= 2
    assert calls["joint_transforms"] == 1 + calls["quat_from_rotvec"]
    monkeypatch.undo()
    assert np.abs(rf._residuals(truth, ids, pts, rf.joint_transforms(truth, q, t))).max() < 1e-6  # reaches the pose


def _two_iteration_refine(monkeypatch, counted):
    """A 2-iteration refine of 4 frames from blurred weights; returns how often it called
    `refine.<name>` for each name in `counted`, leaving out the calls inside the pose solve."""
    import suitcap.refine as rf

    scene = tube_scene(strips=3, codes_per_strip=6, seed=33, animation_strength=1.0)
    clouds = truth_clouds(scene, 4)
    m0 = scene.model.copy()
    m0.weights = _blur(m0.weights, scene.layout)
    calls = dict.fromkeys(counted, 0)
    in_pose_solve = [False]

    def counting(name):
        wrapped = getattr(rf, name)

        def call(*args, **kwargs):
            calls[name] += not in_pose_solve[0]
            return wrapped(*args, **kwargs)

        return call

    pose_solve = rf._pose_solve

    def solve_pose(*args):
        in_pose_solve[0] = True
        try:
            return pose_solve(*args)
        finally:
            in_pose_solve[0] = False

    monkeypatch.setattr(rf, "_pose_solve", solve_pose)
    for name in counted:
        monkeypatch.setattr(rf, name, counting(name))
    res = refine(m0, clouds, scene.layout, RefineConfig(outer_iterations=2, convergence_tol=1e-12))
    assert len(res.loss_trace) == 2
    return calls


def test_refine_builds_transforms_twice_per_frame_and_iteration_outside_the_pose_solve(monkeypatch):
    """Outside the pose solve the joints take two values per outer iteration (before and after
    the joint block), so each frame's transforms are built twice: 2 x 4 frames x 2 iterations."""
    assert _two_iteration_refine(monkeypatch, ["joint_transforms"]) == {"joint_transforms": 16}


def test_refine_solves_the_weights_in_one_qp_call_per_outer_iteration(monkeypatch):
    assert _two_iteration_refine(monkeypatch, ["simplex_qp"]) == {"simplex_qp": 2}


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
        x, _ = damped_gauss_newton(
            np.array([-1.0]), lambda x: (cost(x), lambda: normal_equations(x)), lambda x, d: x + d, 50
        )
    assert trials[1] > radius + 0.5  # the undamped Gauss-Newton step overshoots the radius
    assert abs(x[0] - 1.0) < 1e-9
