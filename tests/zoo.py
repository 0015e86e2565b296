"""Model builders shared across the test suite."""

from dataclasses import fields

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


def random_model(rng, max_rho=0.9, extended_dists=False):
    """Stable random model: N in {1,2,3}, every discipline, mixed families."""
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
