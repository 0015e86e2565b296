"""Acceptance suite: one pass/fail line per criterion.

Run under pytest (``pytest tests/test_acceptance.py -s``) or standalone
(``python tests/test_acceptance.py``).  Reference numbers are the published
benchmark values for the two-queue priority polling system (exponential and
deterministic switch-over variants, and the rho = 0.9 discipline grid).
"""

import time

import numpy as np
import pytest

from zoo import example1, example2, random_model
from priopoll import (Analyzer, EXHAUSTIVE, Exponential, GATED, MIXED,
                      PollingModel, QueueSpec, replicate,
                      vacation_crossover, vacation_mean_wait_low)
from oracles import bisect_root

MEAN_TOL = 0.005    # absolute, matches the 3-decimal published precision
VAR_TOL = 0.005     # relative, numerical-differentiation budget

# (queue, class) -> (mean, variance); single-class queue 2 reports as "L"
EXP_SWITCHOVER_REF = {
    GATED: {(0, "H"): (9.578, 56.739), (0, "L"): (14.366, 101.616),
            (1, "L"): (9.690, 58.513)},
    EXHAUSTIVE: {(0, "H"): (2.520, 9.290), (0, "L"): (6.300, 32.812),
                 (1, "L"): (14.880, 231.256)},
    MIXED: {(0, "H"): (2.338, 6.496), (0, "L"): (14.575, 118.217),
            (1, "L"): (10.513, 76.371)},
}

DET_SWITCHOVER_REF = {
    GATED: {(0, "H"): (63.187, 847.377), (0, "L"): (94.781, 894.173),
            (1, "L"): (63.251, 853.777)},
    EXHAUSTIVE: {(0, "H"): (11.333, 195.508), (0, "L"): (28.333, 315.823),
                 (1, "L"): (68.000, 1386.100)},
    MIXED: {(0, "H"): (11.167, 183.907), (0, "L"): (90.417, 850.199),
            (1, "L"): (64.000, 928.914)},
}

# (disc Q1, disc Q2) -> per queue (E(W_L), E(W_H), Var(W_L), Var(W_H))
HIGH_LOAD_REF = {
    (GATED, GATED): ((141.81, 119.99, 5166.03, 4660.09),
                     (222.95, 146.82, 5917.70, 3560.67)),
    (GATED, EXHAUSTIVE): ((165.49, 140.03, 11087.40, 9411.43),
                          (59.45, 17.83, 1862.57, 651.03)),
    (GATED, MIXED): ((147.38, 124.71, 6406.11, 5658.44),
                     (209.86, 16.98, 6213.92, 555.67)),
    (EXHAUSTIVE, GATED): ((97.63, 78.10, 4252.19, 3784.99),
                          (224.00, 147.51, 6186.88, 3690.81)),
    (EXHAUSTIVE, EXHAUSTIVE): ((119.80, 95.84, 9516.58, 7952.09),
                               (61.62, 18.49, 2136.19, 728.97)),
    (EXHAUSTIVE, MIXED): ((102.18, 81.75, 5193.21, 4533.58),
                          (211.90, 17.27, 6722.53, 586.84)),
    (MIXED, GATED): ((140.95, 77.96, 5140.20, 3756.12),
                     (223.45, 147.15, 6045.55, 3622.49)),
    (MIXED, EXHAUSTIVE): ((166.85, 94.38, 11655.90, 7574.67),
                          (60.39, 18.12, 1978.87, 684.25)),
    (MIXED, MIXED): ((146.87, 81.41, 6452.48, 4462.04),
                     (210.82, 17.10, 6451.10, 569.08)),
}


def _check_benchmark(reference, det_switchover):
    worst_mean = worst_var = 0.0
    for disc, expected in reference.items():
        analyzer = Analyzer(example1(disc, det_switchover=det_switchover))
        for (i, cls), (mean_ref, var_ref) in expected.items():
            mean = analyzer.mean_wait(i, cls)
            var = analyzer.var_wait(i, cls)
            worst_mean = max(worst_mean, abs(mean - mean_ref))
            worst_var = max(worst_var, abs(var - var_ref) / var_ref)
    ok = worst_mean <= MEAN_TOL and worst_var <= VAR_TOL
    return ok, worst_mean, worst_var


def criterion_1():
    """18-entry benchmark, exponential switchovers."""
    t0 = time.perf_counter()
    ok, wm, wv = _check_benchmark(EXP_SWITCHOVER_REF, det_switchover=None)
    dt = time.perf_counter() - t0
    return ok and dt < 10.0, (f"worst mean diff {wm:.2e} (<=0.005), worst var "
                              f"rel diff {wv:.2e} (<=0.005), {dt:.1f}s (<10s)")


def criterion_2():
    """18-entry benchmark, deterministic switchovers of length 10."""
    t0 = time.perf_counter()
    ok, wm, wv = _check_benchmark(DET_SWITCHOVER_REF, det_switchover=10.0)
    dt = time.perf_counter() - t0
    return ok and dt < 10.0, (f"worst mean diff {wm:.2e}, worst var rel diff "
                              f"{wv:.2e}, {dt:.1f}s (<10s)")


def criterion_3():
    """All nine discipline combinations at rho = 0.9, 8 quantities each."""
    t0 = time.perf_counter()
    worst_mean = worst_var = 0.0
    for (d1, d2), per_queue in HIGH_LOAD_REF.items():
        analyzer = Analyzer(example2(d1, d2))
        for i, (wl, wh, vl, vh) in enumerate(per_queue):
            worst_mean = max(worst_mean,
                             abs(analyzer.mean_wait(i, "L") - wl),
                             abs(analyzer.mean_wait(i, "H") - wh))
            worst_var = max(worst_var,
                            abs(analyzer.var_wait(i, "L") - vl) / vl,
                            abs(analyzer.var_wait(i, "H") - vh) / vh)
    dt = time.perf_counter() - t0
    ok = worst_mean <= MEAN_TOL and worst_var <= VAR_TOL and dt < 60.0
    return ok, (f"worst mean diff {worst_mean:.2e}, worst var rel diff "
                f"{worst_var:.2e}, {dt:.1f}s (<60s)")


def criterion_4():
    """Simulation cross-validation, 10 x 1e5 cycles on both benchmarks."""
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for model, label in ((example1(MIXED), "two-queue"),
                         (example2(MIXED, MIXED), "high-load")):
        analyzer = Analyzer(model)
        stats = replicate(model, base_seed=20260808, n_reps=10,
                          n_cycles=100_000, warmup_cycles=10_000)
        for (i, cls), sim_mean in stats.wait_mean.items():
            ana = analyzer.mean_wait(i, cls)
            ci = stats.wait_ci[(i, cls)]
            checked += 1
            if not (sim_mean - ci <= ana <= sim_mean + ci):
                failures.append(f"{label} W[{i + 1}{cls}] {ana:.4g} outside "
                                f"{sim_mean:.4g}+-{ci:.2g}")
        rho = analyzer.derived.rho_total
        checked += 1
        if not (stats.busy_fraction - stats.busy_ci <= rho
                <= stats.busy_fraction + stats.busy_ci):
            failures.append(f"{label} busy {stats.busy_fraction:.5g}+-"
                            f"{stats.busy_ci:.2g} misses rho {rho}")
    dt = time.perf_counter() - t0
    ok = not failures and dt < 300.0
    return ok, (f"{checked} analytic means inside 95% CIs, {dt:.0f}s (<300s)"
                + ("; " + "; ".join(failures) if failures else ""))


_RANDOM_SUITE = None


def _random_suite():
    """200 random stable models with the mean waits computed both ways."""
    global _RANDOM_SUITE
    if _RANDOM_SUITE is None:
        rng = np.random.default_rng(20260808)
        rows = []
        while len(rows) < 200:
            model = random_model(rng)
            analyzer = Analyzer(model)
            duals = []
            for i, q in enumerate(model.queues):
                if q.lambda_low > 0:
                    duals.append((analyzer.mean_wait(i, "L"),
                                  analyzer.mean_wait_alt(i, "L")))
            residual = analyzer.report(include_variances=False).pcl_residual
            rows.append((model, residual, duals))
        _RANDOM_SUITE = rows
    return _RANDOM_SUITE


def criterion_5():
    """Workload-conservation residual below 1e-6 on 200 random models."""
    t0 = time.perf_counter()
    worst = max(residual for _, residual, _ in _random_suite())
    dt = time.perf_counter() - t0
    return worst < 1e-6, f"worst residual {worst:.2e} (<1e-6), {dt:.0f}s"


def criterion_6():
    """E(W_low) from the exact moment solve and from differentiating the
    waiting-time transform agree."""
    worst = 0.0
    n = 0
    for _, _, duals in _random_suite():
        for value, alt in duals:
            worst = max(worst, abs(value - alt) / value)
            n += 1
    return worst < 1e-6, f"{n} low-class waits, worst rel gap {worst:.2e} (<1e-6)"


def criterion_7():
    """Vacation model: affinity, crossover vs bisection, long-vacation limit."""
    worst_col = 0.0
    for rho in (0.3, 0.5, 0.8):
        for s in (1.0, 10.0):
            xs = (0.1 * rho, 0.45 * rho, 0.8 * rho)
            ws = [vacation_mean_wait_low(x, rho - x, s, GATED) for x in xs]
            # three-point collinearity residual, scale free
            col = abs((ws[2] - ws[1]) / (xs[2] - xs[1])
                      - (ws[1] - ws[0]) / (xs[1] - xs[0])) / max(abs(w) for w in ws)
            worst_col = max(worst_col, col)
    worst_gap = 0.0
    for rho in (0.3, 0.5, 0.8):
        for s in (1.0, 10.0, 1e6):
            star = vacation_crossover(rho, s)

            def diff(x, rho=rho, s=s):
                return (vacation_mean_wait_low(x, rho - x, s, GATED)
                        - vacation_mean_wait_low(x, rho - x, s, MIXED))

            oracle = bisect_root(diff, 1e-10, rho * (1 - 1e-12), tol=1e-13)
            worst_gap = max(worst_gap, abs(star - oracle))
    worst_lim = max(abs(vacation_crossover(rho, 1e6) - rho)
                    for rho in (0.3, 0.5, 0.8))
    ok = worst_col < 1e-10 and worst_gap < 1e-8 and worst_lim < 1e-3
    return ok, (f"collinearity {worst_col:.1e} (<1e-10), bisection gap "
                f"{worst_gap:.1e} (<1e-8), crossover->rho gap {worst_lim:.1e} (<1e-3)")


def criterion_8():
    """Vanishing-class reductions against the pure disciplines."""
    eps = 1e-8
    swo = (Exponential(1.0), Exponential(1.0))
    q2 = QueueSpec(0.0, 0.2, None, Exponential(1.0), GATED)
    mixed_h = Analyzer(PollingModel(
        (QueueSpec(eps, 0.4, Exponential(1.0), Exponential(1.0), MIXED), q2), swo))
    gated = Analyzer(PollingModel(
        (QueueSpec(0.0, 0.4, None, Exponential(1.0), GATED), q2), swo))
    mixed_l = Analyzer(PollingModel(
        (QueueSpec(0.2, eps, Exponential(1.0), Exponential(1.0), MIXED), q2), swo))
    exh = Analyzer(PollingModel(
        (QueueSpec(0.2, 0.0, Exponential(1.0), None, EXHAUSTIVE), q2), swo))
    gaps = [
        abs(mixed_h.mean_wait(0, "L") - gated.mean_wait(0, "L"))
        / gated.mean_wait(0, "L"),
        abs(mixed_h.mean_wait(1, "L") - gated.mean_wait(1, "L"))
        / gated.mean_wait(1, "L"),
        abs(mixed_l.mean_wait(0, "H") - exh.mean_wait(0, "H"))
        / exh.mean_wait(0, "H"),
        abs(mixed_l.mean_wait(1, "L") - exh.mean_wait(1, "L"))
        / exh.mean_wait(1, "L"),
    ]
    worst = max(gaps)
    return worst < 1e-4, f"worst reduction gap {worst:.2e} (<1e-4)"


def criterion_9():
    """Transform axioms on 1000 randomized probes."""
    rng = np.random.default_rng(99)
    probes = 0
    bad = 0

    def probe(fn, hi):
        nonlocal probes, bad
        ws = sorted(float(w) for w in rng.uniform(0.0, hi, size=3))
        vals = [fn(0.0)] + [fn(w) for w in ws]
        probes += len(vals)
        if abs(vals[0] - 1.0) > 1e-12:
            bad += 1
        if any(not (0.0 < v <= 1.0) for v in vals):
            bad += 1
        if any(a < b - 1e-12 for a, b in zip(vals, vals[1:])):
            bad += 1

    while probes < 1000:
        model = random_model(rng)
        analyzer = Analyzer(model)
        for i, q in enumerate(model.queues):
            qt = analyzer.queues[i]
            probe(lambda w: analyzer.lst(i, "visit", w), 3.0)
            if q.discipline == GATED or (q.discipline == MIXED and qt.lam_l > 0):
                hi = qt.lam_l + qt.lam_h if q.discipline == GATED else qt.lam_l
                probe(lambda w: analyzer.lst(i, "cycle", w), hi)
            if q.discipline != GATED and q.lambda_high > 0:
                probe(lambda w: analyzer.lst(i, "intervisit", w), qt.lam_h)
                probe(lambda w: analyzer.lst(i, "wait_high", w), qt.lam_h)
            if q.discipline == GATED and q.lambda_high > 0:
                probe(lambda w: analyzer.lst(i, "wait_high", w), qt.lam_h)
            if q.lambda_low > 0:
                probe(lambda w: analyzer.lst(i, "wait_low", w), qt.lam_l)
    return bad == 0, f"{probes} probes, {bad} axiom violations"


CRITERIA = [
    ("criterion 1: exp-switchover benchmark (18 entries)", criterion_1),
    ("criterion 2: det-switchover benchmark (18 entries)", criterion_2),
    ("criterion 3: rho=0.9 discipline grid (72 entries)", criterion_3),
    ("criterion 4: simulation cross-validation", criterion_4),
    ("criterion 5: conservation law, 200 random models", criterion_5),
    ("criterion 6: dual derivation, 200 random models", criterion_6),
    ("criterion 7: vacation-model closed forms", criterion_7),
    ("criterion 8: vanishing-class reductions", criterion_8),
    ("criterion 9: transform axioms, 1000 probes", criterion_9),
]


def _report(name, fn):
    ok, detail = fn()
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return ok


@pytest.mark.parametrize("name,fn", [
    pytest.param(name, fn, id=name.split(":")[0],
                 marks=[pytest.mark.slow] if fn is criterion_4 else [])
    for name, fn in CRITERIA])
def test_criterion(name, fn):
    assert _report(name, fn)


if __name__ == "__main__":
    results = [_report(name, fn) for name, fn in CRITERIA]
    raise SystemExit(0 if all(results) else 1)
