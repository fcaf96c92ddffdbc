import numpy as np
import pytest

from tiltmav import design
from tiltmav.design import (ANGLE_BOUND, DesignProblem, _CostEvaluator, _pattern_search,
                            beta_sweep, build_candidate)
from tiltmav.envelope import sample_directions

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
            expected = design_objective_loop(problem, scored, evaluator.dirs, evaluator.mg)
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


def test_beta_sweep_matches_per_candidate_oracle():
    problem = DesignProblem()
    betas = np.linspace(0.0, 1.2, 13)
    dirs, _, _ = sample_directions(1280)
    _, values = beta_sweep(problem, betas)
    pattern = (-1.0) ** np.arange(6)
    for b, value in zip(betas, values):
        m = build_candidate(problem, np.zeros(6), b * pattern)
        assert value.tobytes() == pinv_radii_loop(m, dirs).min().tobytes()


def test_beta_sweep_argmax_near_octahedral_angle():
    p = DesignProblem()
    grid, vals = beta_sweep(p, np.arange(0.45, 0.80, 0.01), n_dirs=320)
    best = grid[int(np.argmax(vals))]
    assert abs(best - 0.6154) < 0.02


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
    p = DesignProblem.from_dict({"cost": 2, "seed": 5})
    assert p.cost == 2 and p.seed == 5
