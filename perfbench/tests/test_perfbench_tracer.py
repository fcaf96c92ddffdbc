"""Tests of the benchmark's span tracer."""

import sys

import numpy as np
import pytest

from perfbench import tracer as tr
from perfbench.tracer import Span, Tracer


def _nested_spans():
    # pass 0:  root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 6]
    # pass 1:  root [20, 24] > b [21, 23]
    return [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a1", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 6.0, 0, 0),
        Span("root", 20.0, 24.0, -1, 1),
        Span("b", 21.0, 23.0, 4, 1),
    ]


def test_self_time_subtracts_direct_children_only():
    assert tr.self_times(_nested_spans()) == [6.0, 2.0, 1.0, 1.0, 2.0, 2.0]


def test_layer_metrics_are_per_pass_medians():
    targets = [("root", "m", "root", None), ("b", "m", "b", None)]
    out = tr.layer_metrics(_nested_spans(), {}, [0, 1], targets)
    assert out["root.calls"] == 1
    assert out["root.total_s"] == pytest.approx(7.0)        # median of 10 and 4
    assert out["root.self_s"] == pytest.approx(4.0)         # median of 6 and 2
    assert out["b.total_s"] == pytest.approx(1.5)
    assert out["b.us_p50"] == pytest.approx(1.5e6)
    only_first = tr.layer_metrics(_nested_spans(), {}, [0], targets)
    assert only_first["root.total_s"] == pytest.approx(10.0)


def test_tick_times_skip_the_set_up_gap():
    name = "trajectory.Trajectory.sample"
    spans = [Span(name, t, t + 0.001, -1, 0) for t in (0.0, 0.5, 0.51, 0.53)]
    assert tr.tick_times_ms(spans, [0]) == pytest.approx([10.0, 20.0])


def test_lp_share_counts_linprog_beneath_envelope_only():
    spans = [
        Span("envelope.envelope", 0.0, 4.0, -1, 0),
        Span("envelope.linprog", 1.0, 4.0, 0, 0),
        Span("envelope.hover_sphere", 5.0, 9.0, -1, 0),
        Span("envelope.linprog", 5.0, 9.0, 2, 0),
    ]
    assert tr.lp_share(spans, {0}) == pytest.approx(0.75)


def test_wrapper_records_nesting_and_restores():
    t = Tracer()

    def inner(x):
        return x + 1

    wrapped_inner = t.wrap("inner", inner)

    def outer(x):
        return wrapped_inner(x) * 2

    assert t.wrap("outer", outer)(1) == 4
    spans = t.finished()
    assert [s.name for s in spans] == ["outer", "inner"]
    assert spans[1].parent == 0 and spans[0].parent == -1


def _bindings(original):
    """(module, attribute) pairs of tiltmav namespaces that bind ``original``."""
    return [(name, key) for name, mod in sorted(sys.modules.items())
            if name == "tiltmav" or name.startswith("tiltmav.")
            for key, value in vars(mod).items() if value is original]


def test_every_namespace_binding_is_patched_and_restored():
    import perfbench.workloads  # noqa: F401  (imports every traced module)

    originals = {}
    for name, module, attr, _ in tr.TARGETS:
        owner = sys.modules[module]
        if "." in attr:
            cls, meth = attr.split(".")
            originals[name] = [(getattr(owner, cls), meth, vars(getattr(owner, cls))[meth])]
        else:
            fn = getattr(owner, attr)
            originals[name] = [(sys.modules[m], k, fn) for m, k in _bindings(fn)]
    with Tracer() as t:
        for name, bindings in originals.items():
            assert bindings, name
            for owner, key, fn in bindings:
                patched = vars(owner)[key]
                assert patched is not fn and patched.__wrapped__ is fn, (name, owner, key)
                # Called without arguments the original raises at once; the
                # span is recorded all the same.
                with pytest.raises(TypeError):
                    patched()
                assert t.spans[-1].name == name, (name, owner, key)
    for bindings in originals.values():
        for owner, key, fn in bindings:
            assert vars(owner)[key] is fn


def test_calls_through_imported_names_record_spans():
    from tiltmav import design, diff_allocation, envelope, lqri, sim
    from tiltmav.rigid_body import RigidBodyState
    from tiltmav.vehicle import prototype_morphology

    m = prototype_morphology()
    with Tracer() as t:
        a = sim.static_allocation(m)
        diff_allocation.invert_static(a, np.array([0, 0, 40.0, 0, 0, 0]), m)
        sim.exact_wrench_rate(np.zeros(3), np.zeros(3), RigidBodyState(), m.body, np.zeros(6))
        envelope.linprog(c=[1.0], bounds=[(0.0, 1.0)], method="highs")
        design.pinv_radii(m, np.array([[0.0, 0.0, 1.0]]))
        lqri.solve_care([[0.0]], [[1.0]], [[4.0]], [[9.0]])
        plant = sim.Plant(m)
        plant.step(np.zeros(m.n_arms), np.zeros(m.n_rotors), 1e-3)
    names = [s.name for s in t.finished()]
    for expected in ("allocation.static_allocation", "allocation.invert_static",
                     "diff_allocation.exact_wrench_rate", "envelope.linprog",
                     "envelope.pinv_radii", "riccati.solve_care", "sim.Plant.step",
                     "sim.Plant.refresh_accelerations"):
        assert expected in names, expected
    spans = t.finished()
    step = names.index("sim.Plant.step")
    refresh = [s for s in spans if s.name == "sim.Plant.refresh_accelerations"]
    assert refresh[-1].parent == step
    assert t.counts[(0, "envelope.linprog.nit")] >= 0
