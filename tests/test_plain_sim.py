"""The rendered kernel against the plain simulator of ``plain_sim.py``.

Both simulators read the same random streams, so the traced kernel's events
(visit beginnings, service starts and ends per class with their arrival
stamps, switch-over ends) must equal the plain simulator's bit for bit.  The
tallies, which the two sum in different orders, must agree within 1e-12
relative.  The goldens pin the kernel's history; this test pins the
disciplines' definition.  If a numpy release changed a Generator sampler,
the goldens would fail and this test would still pass, which tells the two
causes apart.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import plain_sim
from zoo import drawn_models, example1, example2, zero_time_tail
from priopoll import EXHAUSTIVE, GATED, MIXED, validate
from priopoll.sim import _simulate


def _assert_same_run(model, seed, n_cycles, warmup_cycles):
    got = _simulate(model, seed, n_cycles, warmup_cycles, trace=True)
    want = plain_sim.simulate(model, seed, n_cycles, warmup_cycles)
    got_events, want_events = list(map(repr, got.events)), list(map(repr, want.events))
    first = next((i for i, (a, b) in enumerate(zip(got_events, want_events)) if a != b),
                 min(len(got_events), len(want_events)))
    assert got_events == want_events, (first, got_events[first:first + 3],
                                       want_events[first:first + 3])
    assert (got.t_warm, got.t_end) == (want.t_warm, want.t_end)
    assert got.busy == pytest.approx(want.busy, rel=1e-12, abs=0.0)
    for j, (g, w) in enumerate(zip(got.queues, want.queues)):
        assert sorted(g) == sorted(w)
        for name, value in w.items():
            assert g[name] == pytest.approx(value, rel=1e-12, abs=0.0), (j, name)


@st.composite
def _runs(draw):
    """A model, a seed, up to 300 cycles (fewer where that would be over
    about 2000 customers) and a warm-up at a phase edge: none, one cycle,
    or every cycle but the last."""
    model = draw(drawn_models(max_n=12, max_load=0.95))
    customers_per_cycle = validate(model).mean_cycle * sum(
        q.lambda_high + q.lambda_low for q in model.queues)
    n_cycles = min(draw(st.integers(2, 300)), max(2, int(2000 / customers_per_cycle)))
    warmup_cycles = draw(st.sampled_from((0, 1, n_cycles - 1)))
    return model, draw(st.integers(0, 2 ** 32 - 1)), n_cycles, warmup_cycles


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_runs())
def test_kernel_matches_plain_simulator_on_drawn_models(case):
    _assert_same_run(*case)


# example2 is at rho = 0.9, about 90 customers a visit: fewer cycles
@pytest.mark.parametrize("build,n_cycles", [
    (lambda: example1(MIXED), 400), (lambda: example2(GATED, EXHAUSTIVE), 60),
    (zero_time_tail, 400)], ids=["example1_mixed", "example2_gated_exhaustive",
                                 "zero_time_tail"])
@pytest.mark.parametrize("warmup", ["none", "one", "tenth", "all_but_one"])
def test_kernel_matches_plain_simulator(build, n_cycles, warmup):
    warmup_cycles = {"none": 0, "one": 1, "tenth": n_cycles // 10,
                     "all_but_one": n_cycles - 1}[warmup]
    _assert_same_run(build(), 17, n_cycles, warmup_cycles)
