"""Model builders shared across the test suite."""

from dataclasses import fields

import numpy as np
from hypothesis import strategies as st

from priopoll import (DISCIPLINES, EXHAUSTIVE, GATED, MIXED, Deterministic,
                      Erlang, Exponential, Hyperexponential, PollingModel,
                      QueueSpec, Uniform, validate)


def example1(disc1=MIXED, det_switchover=None):
    """Two queues: Q1 two-priority (0.2/0.4), Q2 single-class gated (0.2)."""
    swo = (Deterministic(det_switchover),) * 2 if det_switchover else \
        (Exponential(1.0), Exponential(1.0))
    return PollingModel(
        queues=(QueueSpec(0.2, 0.4, Exponential(1.0), Exponential(1.0), disc1),
                QueueSpec(0.0, 0.2, None, Exponential(1.0), GATED)),
        switchovers=swo,
    )


def example2(d1=MIXED, d2=MIXED):
    """Two two-priority queues, rho = 0.9, mean-10 exponential switchovers."""
    return PollingModel(
        queues=(QueueSpec(0.1, 0.1, Exponential(1.0), Exponential(1.0), d1),
                QueueSpec(0.35, 0.35, Exponential(1.0), Exponential(1.0), d2)),
        switchovers=(Exponential(10.0), Exponential(10.0)),
    )


def published_models():
    """The paper's 15 models by label: example1 under each discipline with
    exponential and with deterministic (length 10) switch-overs, and example2
    under each pair of disciplines."""
    models = {}
    for disc in DISCIPLINES:
        models[f"example1-{disc}"] = example1(disc)
        models[f"example1_det-{disc}"] = example1(disc, det_switchover=10.0)
    for d1 in DISCIPLINES:
        for d2 in DISCIPLINES:
            models[f"example2-{d1}-{d2}"] = example2(d1, d2)
    return models


def heavy_traffic(rho):
    """Two queues, mixed and exhaustive, lambda_H = lambda_L = rho/4 at each,
    Exp(1) services and switch-overs."""
    lam = rho / 4.0
    return PollingModel(
        queues=(QueueSpec(lam, lam, Exponential(1.0), Exponential(1.0), MIXED),
                QueueSpec(lam, lam, Exponential(1.0), Exponential(1.0), EXHAUSTIVE)),
        switchovers=(Exponential(1.0), Exponential(1.0)))


def time_scaled(model, s):
    """``model`` with every time multiplied by s and every rate divided by s."""
    def time(v):
        return tuple(x * s for x in v) if isinstance(v, tuple) else v * s

    def times(d):
        # every distribution parameter is a time, or a tuple of times, but an
        # Erlang shape and hyperexponential probabilities
        return None if d is None else type(d)(*(
            getattr(d, f.name) if f.name in ("shape", "probs") else time(getattr(d, f.name))
            for f in fields(d)))

    return PollingModel(
        tuple(QueueSpec(q.lambda_high / s, q.lambda_low / s, times(q.service_high),
                        times(q.service_low), q.discipline) for q in model.queues),
        tuple(map(times, model.switchovers)))


def time_scaled_probe(s):
    """Queue 1 mixed (0.2/0.4), queue 2 exhaustive with a low class only
    (0.2), Exp(1) services, an Exp(1) and a Deterministic(1) switch-over:
    every time multiplied by s and every rate divided by s."""
    return time_scaled(PollingModel(
        queues=(QueueSpec(0.2, 0.4, Exponential(1.0), Exponential(1.0), MIXED),
                QueueSpec(0.0, 0.2, None, Exponential(1.0), EXHAUSTIVE)),
        switchovers=(Exponential(1.0), Deterministic(1.0))), s)


def huge_switchover():
    """example1 with its first switch-over Exp(1e120): finite mean, but a
    second moment past the float range."""
    m = example1()
    return PollingModel(m.queues, (Exponential(1e120), m.switchovers[1]))


def swamped_queue():
    """One mixed queue with both rates 1e300 and Exp(1e-301) services (load
    0.2) and a Deterministic(1e10) switch-over: its mean queue lengths, 1e300
    times a finite wait, are past the float range."""
    return PollingModel((QueueSpec(1e300, 1e300, Exponential(1e-301), Exponential(1e-301),
                                   MIXED),), (Deterministic(1e10),))


def single_vacation_queue(disc=MIXED, lam_h=0.3, lam_l=0.5, s=10.0):
    """One queue plus a deterministic switch-over: an M/G/1 vacation queue."""
    return PollingModel(
        queues=(QueueSpec(lam_h, lam_l, Exponential(1.0), Exponential(1.0), disc),),
        switchovers=(Deterministic(s),),
    )


def random_distribution(rng, extended=False):
    mean = 0.3 + 1.2 * rng.random()
    kinds = 5 if extended else 3
    k = int(rng.integers(kinds))
    if k == 0:
        return Exponential(mean)
    if k == 1:
        return Deterministic(mean)
    if k == 2:
        return Erlang(2, mean)
    if k == 3:
        return Hyperexponential((0.4, 0.6), (0.5 * mean, 1.5 * mean))
    return Uniform(0.0, 2.0 * mean)


def random_model(rng, max_rho=0.9, extended_dists=False, n=None):
    """Stable random model: N queues (drawn from {1,2,3} unless given),
    every discipline, mixed families."""
    if n is None:
        n = int(rng.integers(1, 4))
    specs = []
    for _ in range(n):
        disc = DISCIPLINES[int(rng.integers(3))]
        shape = rng.random()
        lam_h = 0.0 if shape < 0.15 else float(rng.uniform(0.03, 0.4))
        lam_l = 0.0 if shape > 0.85 else float(rng.uniform(0.03, 0.4))
        if lam_h == 0.0 and lam_l == 0.0:
            lam_l = 0.2
        specs.append([lam_h, lam_l,
                      random_distribution(rng, extended_dists),
                      random_distribution(rng, extended_dists), disc])
    rho_raw = sum(s[0] * s[2].mean + s[1] * s[3].mean for s in specs)
    target = float(rng.uniform(0.2, max_rho))
    if rho_raw > target:
        scale = target / rho_raw
        for s in specs:
            s[0] *= scale
            s[1] *= scale
    queues = tuple(QueueSpec(s[0], s[1],
                             s[2] if s[0] > 0 else None,
                             s[3] if s[1] > 0 else None, s[4])
                   for s in specs)
    switchovers = tuple(random_distribution(rng, extended_dists) for _ in range(n))
    model = PollingModel(queues, switchovers)
    validate(model)
    return model


def drawn_golden_models():
    """The drawn models that tests/golden pins, by label: N = 3, 5 and 12,
    each with every discipline and every family and queues with one class
    absent (a high-only queue in each, a low-only one at N = 5)."""
    return {f"random_n{n}": random_model(np.random.default_rng(seed), extended_dists=True, n=n)
            for n, seed in ((3, 8), (5, 5), (12, 12))}


_FAMILIES = (Exponential, Deterministic, lambda mean: Erlang(3, mean),
             lambda mean: Hyperexponential((0.4, 0.6), (0.5 * mean, 1.5 * mean)),
             lambda mean: Uniform(0.0, 2.0 * mean))


@st.composite
def drawn_models(draw, max_n, max_load=0.9999):
    """Hypothesis strategy: N <= max_n queues under any discipline, each with
    a high class, a low class or both, services and switch-overs of every
    family, scaled to a load of at most ``max_load``."""
    def dist(lo, hi):
        return draw(st.sampled_from(_FAMILIES))(draw(st.floats(lo, hi)))

    n = draw(st.integers(1, max_n))
    specs = []
    for _ in range(n):
        has_h, has_l = draw(st.sampled_from(((True, True), (True, False), (False, True))))
        specs.append((draw(st.floats(0.05, 1.0)) if has_h else 0.0,
                      draw(st.floats(0.05, 1.0)) if has_l else 0.0,
                      dist(0.2, 2.0) if has_h else None, dist(0.2, 2.0) if has_l else None,
                      draw(st.sampled_from(DISCIPLINES))))
    load = sum(lh * sh.mean if sh else 0.0 for lh, _, sh, _, _ in specs) + \
        sum(ll * sl.mean if sl else 0.0 for _, ll, _, sl, _ in specs)
    scale = draw(st.floats(0.01, max_load)) / load
    return PollingModel(
        queues=tuple(QueueSpec(lh * scale, ll * scale, sh, sl, d) for lh, ll, sh, sl, d in specs),
        switchovers=tuple(dist(0.1, 10.0) for _ in range(n)))


def zero_time_tail():
    """Queue 0 mixed (0.2/0.3), then a gated and an exhaustive queue that
    customers rarely reach (rates 1e-3), with Deterministic(0) switch-overs
    after them: an empty visit to either takes no time, so its beginning is
    also queue 0's next one, that of the next cycle."""
    return PollingModel(
        queues=(QueueSpec(0.2, 0.3, Exponential(1.0), Exponential(1.0), MIXED),
                QueueSpec(1e-3, 1e-3, Exponential(1.0), Exponential(1.0), GATED),
                QueueSpec(1e-3, 1e-3, Exponential(1.0), Exponential(1.0), EXHAUSTIVE)),
        switchovers=(Exponential(1.0), Deterministic(0.0), Deterministic(0.0)))
