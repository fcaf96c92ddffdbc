import numpy as np
import pytest

from tiltmav import design
from tiltmav.design import (ANGLE_BOUND, UP, DesignProblem, _CostEvaluator, _least_radius,
                            _pattern_search, _stacked_pinv, beta_sweep, build_candidate, optimize)
from tiltmav.envelope import radii_from_pinv, sample_directions
from tiltmav.vehicle import RotorParams

from oracles import compare, design_objective_loop, pinv_radii_loop


def test_build_candidate_mass_and_bounds():
    p = DesignProblem()
    m = build_candidate(p, np.zeros(6), np.zeros(6))
    assert abs(m.body.mass - 4.0) < 1e-6
    assert np.isclose(np.diag(m.body.inertia)[2], 0.1439, atol=1e-6)
    with pytest.raises(ValueError):
        build_candidate(p, np.zeros(6), np.full(6, 1.6))   # beta out of bounds


def test_pattern_search_quadratic():
    target = np.array([0.2, -0.3, 0.1, 0.0, 0.25, -0.15, 0.05, 0.3, -0.2, 0.1, 0.0, 0.2])

    def f(xs):
        return [float(((x - target) ** 2).sum()) for x in xs]

    x, val = _pattern_search(f, np.zeros(12), bound=1.0, step=0.25,
                             step_min=1e-4, decrease_tol=1e-12)
    assert np.abs(x - target).max() < 5e-3
    assert val < 1e-4


def _poll_stencil(center, step):
    n = center.size
    alt = np.concatenate([np.zeros(n // 2), (-1.0) ** np.arange(n // 2)])
    uni = np.concatenate([np.zeros(n // 2), np.ones(n // 2)])
    polls = [d for i in range(n) for d in (np.eye(n)[i], -np.eye(n)[i])] + [alt, -alt, uni, -uni]
    return np.clip(center + step * np.array(polls), -ANGLE_BOUND, ANGLE_BOUND)


@pytest.mark.parametrize("cost", [1, 2])
def test_batched_objective_matches_per_candidate_oracle(cost):
    problem = DesignProblem(cost=cost, n_dirs_search=320)
    evaluator = _CostEvaluator(problem)
    rng = np.random.default_rng(cost)
    checked, first = 0, {}
    for size in [1, 7, 28] * 9:
        if size == 28:
            # A poll stencil around a point partly clipped at the bound: its
            # clipped polls coincide, so the batch holds duplicates.
            center = np.clip(rng.uniform(-1.8, 1.8, 12), -ANGLE_BOUND, ANGLE_BOUND)
            x = _poll_stencil(center, rng.choice([0.25, 0.06]))
        else:
            x = np.clip(rng.uniform(-1.8, 1.8, (size, 12)), -ANGLE_BOUND, ANGLE_BOUND)
            x[size // 2:] *= 0.4                    # around the optimum as well
            x[-1] = x[0] + 1e-13                    # a duplicate of x[0] to 9 decimals
        values = evaluator(x)
        assert len(values) == size
        for row, value in zip(x, values):
            # The first point scored under a rounded key gives its value.
            scored = first.setdefault(tuple(np.round(row, 9)), row)
            expected = design_objective_loop(problem, scored, evaluator.mg)
            assert np.float64(value).tobytes() == np.float64(expected).tobytes()
        checked += size
    assert checked >= 300
    assert len(evaluator.cache) == len(first) < checked


@pytest.mark.parametrize("cost", [1, 2])
def test_search_factors_each_candidate_once_and_weighs_two_vehicles(monkeypatch, cost):
    factored, weighed, evaluators = [], [], []
    pinv, mass_inertia = np.linalg.pinv, design.compute_mass_inertia

    def counted_pinv(a, *args, **kwargs):
        factored.append(int(np.prod(np.shape(a)[:-2])))
        return pinv(a, *args, **kwargs)

    def counted_mass_inertia(*args):
        weighed.append(1)
        return mass_inertia(*args)

    class RecordedEvaluator(_CostEvaluator):
        def __init__(self, problem):
            super().__init__(problem)
            evaluators.append(self)

    monkeypatch.setattr(np.linalg, "pinv", counted_pinv)
    monkeypatch.setattr(design, "compute_mass_inertia", counted_mass_inertia)
    monkeypatch.setattr(design, "_CostEvaluator", RecordedEvaluator)
    design.optimize(DesignProblem(cost=cost, n_dirs_search=320, n_dirs_final=320,
                                  n_random_starts=0, step_min=0.05))
    scored = len(evaluators[0].cache)
    assert scored > 100
    # The mass model weighs the reference vehicle and the winner only; each
    # scored candidate is factored once, and the winner's force and torque
    # envelopes once each.
    assert len(weighed) == 2
    assert sum(factored) == scored + 2


def _covering_angle(n_dirs):
    """The largest angle from a point of the sphere to its nearest direction of
    ``sample_directions(n_dirs)``. Each face's spherical triangle holds its own
    centroid direction, and the distance from it peaks at a vertex."""
    dirs, verts, faces = sample_directions(n_dirs)
    cos = np.einsum("fj,fkj->fk", dirs, verts[faces])
    return float(np.arccos(np.clip(cos, -1.0, 1.0)).max())


def _random_angle_sets(rng, count):
    x = np.clip(rng.uniform(-1.2, 1.2, (count, 12)), -ANGLE_BOUND, ANGLE_BOUND)
    x[count // 2:] *= 0.4                       # around the optimum as well
    return x


def test_beta_sweep_matches_per_candidate_oracle():
    problem = DesignProblem()
    betas = np.linspace(0.0, 1.2, 13)
    dirs, _, _ = sample_directions(1280)
    _, values = beta_sweep(problem, betas)
    pattern = (-1.0) ** np.arange(6)
    for b, value in zip(betas, values):
        sampled = pinv_radii_loop(build_candidate(problem, np.zeros(6), b * pattern), dirs).min()
        assert value <= sampled <= value / np.cos(_covering_angle(1280))


def test_beta_sweep_argmax_near_octahedral_angle():
    p = DesignProblem()
    grid, vals = beta_sweep(p, np.arange(0.45, 0.80, 0.01))
    best = grid[int(np.argmax(vals))]
    assert abs(best - 0.6154) < 0.02


@pytest.mark.parametrize("n_dirs", [320, 1280])
def test_least_force_radius_brackets_the_sampled_minimum(n_dirs):
    # A direction within delta of the worst one reads at least cos(delta) of its |P_r d|.
    problem = DesignProblem()
    x = _random_angle_sets(np.random.default_rng(3), 60)
    a_inv = _stacked_pinv(_CostEvaluator(problem).ref, x)
    dirs, _, _ = sample_directions(n_dirs)
    exact = _least_radius(a_inv, problem.rotor.omega_max**2)
    sampled = radii_from_pinv(a_inv, dirs, problem.rotor).min(axis=-1)
    assert np.all(exact <= sampled)
    assert np.all(sampled <= exact / np.cos(_covering_angle(n_dirs)))
    assert sampled.max() > exact.max()


def test_least_torque_radius_never_exceeds_the_sampled_minimum():
    problem = DesignProblem(cost=2)
    evaluator = _CostEvaluator(problem)
    hover = evaluator.mg * UP
    a_inv = _stacked_pinv(evaluator.ref, _random_angle_sets(np.random.default_rng(4), 16))
    exact = _least_radius(a_inv, problem.rotor.omega_max**2, hover)
    dirs, _, _ = sample_directions(20480)
    sampled = np.array([radii_from_pinv(a, dirs, problem.rotor, "torque", hover).min()
                        for a in a_inv])
    assert np.count_nonzero(exact) >= 8 and np.array_equal(exact == 0.0, sampled == 0.0)
    assert np.all(exact <= sampled * (1.0 + 1e-9))
    assert np.all(sampled <= exact * (1.0 + 1e-3))


def _one_rotor(q, a):
    """A one-rotor a_inv (2, 6) with torque block q and hover share a for the hover +z."""
    a_inv = np.zeros((2, 6))
    a_inv[:, 2], a_inv[:, 3:] = a, q
    return a_inv


def test_least_radius_without_hover_is_w_over_sigma_max():
    rng = np.random.default_rng(5)
    a_inv = rng.normal(size=(7, 8, 6))
    a_inv[0, 2:4] = 0.3 * a_inv[0, 0:2]            # a rank-1 force block
    a_inv[1, 1] = 0.5 * a_inv[1, 0]
    w = 4.0
    for cols, hover in ((slice(0, 3), None), (slice(3, 6), np.zeros(3))):
        blocks = a_inv[:, :, cols].reshape(7, 4, 2, 3)
        sigma = np.linalg.svd(blocks, compute_uv=False)[..., 0].max(axis=-1)
        np.testing.assert_allclose(_least_radius(a_inv, w, hover), w / sigma, rtol=1e-13)


def test_least_radius_edge_cases_match_a_dense_scan():
    # Torque directions spanning the row space of each block, 0.0018 deg apart.
    phi = np.linspace(0.0, 2.0 * np.pi, 200_001)
    circle = np.stack([np.cos(phi), np.sin(phi), 0.0 * phi], axis=1)
    rotor = RotorParams()
    w = rotor.omega_max**2
    diag = np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    rank1 = np.array([[1.0, 0.5, 0.0], [-2.0, -1.0, 0.0]])
    cases = [
        (diag, [0.0, 0.3 * w]),                    # the hard case: a on the minor axis
        (diag, [1e-12 * w, 0.3 * w]),              # next to it
        (diag, [0.0, 0.9 * w]),                    # on the minor axis, tangency off the pole
        (diag, [0.6 * w, 0.0]),                    # on the major axis
        (diag, [0.2 * w, -0.5 * w]),
        (rank1, [0.1 * w, 0.4 * w]),               # a rank-1 block
        (rank1, [-0.2 * w, 0.1 * w]),              # ... with a along its segment's normal
        (np.eye(2, 3), [0.3 * w, 0.4 * w]),        # a round block
        (np.eye(2, 3), [0.0, 0.0]),
    ]
    for q, a in cases:
        a_inv = _one_rotor(q, a)
        exact = _least_radius(a_inv[None], w, UP)[0]
        scan = radii_from_pinv(a_inv, circle, rotor, "torque", UP).min()
        assert 0.0 < exact <= scan * (1.0 + 1e-12)
        assert scan <= exact * (1.0 + 1e-9)
    # a rank-1 block's segment: |a_par| + lambda |q| reaches sqrt(W^2 - a_perp^2)
    a = np.array([0.1, 0.4]) * w
    u = rank1[0] / np.linalg.norm(rank1[0])
    along = rank1 @ u                                # the segment's axis times |q|
    a_par = abs(a @ along) / np.linalg.norm(along)
    a_perp2 = a @ a - a_par**2
    expected = (np.sqrt(w * w - a_perp2) - a_par) / np.linalg.norm(along)
    np.testing.assert_allclose(_least_radius(_one_rotor(rank1, a)[None], w, UP)[0], expected,
                               rtol=1e-12)


def test_least_radius_saturated_hover_and_idle_blocks():
    w = 2.0
    saturated = _one_rotor(np.eye(2, 3), [1.5, 1.5])            # |a| > W: hover alone fails
    minor = _one_rotor(np.diag([2.0, 1.0, 0.0])[:2], [0.0, 2.5])  # ... on the minor axis
    idle = _one_rotor(np.zeros((2, 3)), [0.5, 0.0])             # no torque reaches the rotor
    both = np.concatenate([saturated, _one_rotor(np.eye(2, 3), [0.1, 0.0])])
    values = _least_radius(np.stack([saturated, minor, idle, both[2:], both[:2]]), w, UP)
    assert values[0] == 0.0 and values[1] == 0.0 and values[2] == np.inf and values[4] == 0.0
    np.testing.assert_allclose(values[3], 1.9, rtol=1e-14)
    # Hover shares a rounding error outside the disc, in random directions and blocks.
    rng = np.random.default_rng(6)
    angle = rng.uniform(0.0, 2.0 * np.pi, 4000)
    edge = np.zeros((4000, 2, 6))
    edge[:, :, 2] = w * (1.0 + 2e-16) * np.stack([np.cos(angle), np.sin(angle)], axis=-1)
    edge[:, :, 3:] = rng.normal(size=(4000, 2, 3))
    outside = (edge[:, :, 2]**2).sum(-1) > w * w
    assert outside.sum() > 1000 and np.all(_least_radius(edge, w, UP)[outside] == 0.0)
    assert _least_radius(both[None], w, UP)[0] == 0.0


def test_search_outcome_does_not_depend_on_the_hover_sphere_size():
    results = [optimize(DesignProblem(cost=2, n_dirs_search=n, n_dirs_final=320))
               for n in (320, 1280)]
    for field in ("theta", "beta"):
        assert getattr(results[0], field).tobytes() == getattr(results[1], field).tobytes()
    assert results[0].objective == results[1].objective


def test_compare_reference_row_and_ratios():
    def fake(f_min):
        return {
            "mass": 4.0, "inertia": [0.07, 0.07, 0.14],
            "force": {"min": f_min, "max": 2 * f_min, "volume": 3.0e6},
            "torque": {"min": 20.0, "max": 40.0, "volume": 1.0e5},
            "eta_f_hover": {"min": 0.8, "max": 1.0},
        }

    rows = compare([fake(72.4), fake(96.5)])
    assert all(np.isclose(v, 1.0) for v in rows[0].values())
    assert np.isclose(rows[1]["force_min"], 96.5 / 72.4)
    assert np.isclose(rows[1]["mass"], 1.0)
    # identity on duplicated input
    rows = compare([fake(50.0), fake(50.0)])
    assert all(np.isclose(v, 1.0) for v in rows[1].values())


def test_compare_errors():
    good = {"mass": 4.0, "inertia": [0.07, 0.07, 0.14],
            "force": {"min": 1.0, "max": 2.0, "volume": 3.0},
            "torque": {"min": 1.0, "max": 2.0, "volume": 3.0},
            "eta_f_hover": {"min": 0.8, "max": 1.0}}
    with pytest.raises(ValueError):
        compare([good])
    bad = {**good, "mass": 0.0}
    with pytest.raises(ValueError):
        compare([bad, good])


def test_design_problem_validation():
    with pytest.raises(ValueError):
        DesignProblem(cost=3)
