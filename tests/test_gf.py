"""Visit-beginning GF: normalization, monotonicity, first-moment identities."""

import dataclasses
import itertools
import math
import time
from operator import mul

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from zoo import (drawn_models, example1, example2, heavy_traffic, published_models,
                 random_model, single_vacation_queue)
from priopoll import (DISCIPLINES, EXHAUSTIVE, GATED, MIXED, Analyzer, Deterministic,
                      Erlang, Exponential, GfEvaluator, Hyperexponential, IllConditioned,
                      NoConvergence, PollingModel, QueueSpec, TransformHandle, Uniform,
                      lst_moment, validate)
import priopoll.gf as gf_module
from priopoll.gf import _STEPS, _cube, _power_series, _product


def test_normalized_at_all_ones():
    a = Analyzer(example1())
    assert a.gf_visit_beginning(0, [1.0] * 4) == 1.0
    assert a.gf_visit_beginning(1, [1.0] * 4) == 1.0


def test_range_and_monotonicity_along_coordinates():
    a = Analyzer(example1())
    for coord in range(4):
        prev = -1.0
        for z in (0.0, 0.25, 0.5, 0.75, 1.0):
            vec = [1.0] * 4
            vec[coord] = z
            val = a.gf_visit_beginning(0, vec)
            assert 0.0 <= val <= 1.0
            assert val >= prev  # nondecreasing in each coordinate
            prev = val


def test_low_coordinate_mean_counts_cycle_arrivals():
    # expected low-priority count at a visit beginning: lam_low * E(C) = 4
    gf = GfEvaluator(example1())
    handle = TransformHandle(lambda s: gf.complement_pair(0, 0.0, s), h0=1e-5,
                             omega_max=1.0)
    est = lst_moment(handle, 1)
    assert est.value == pytest.approx(4.0, rel=1e-9)


def test_high_coordinate_mean_counts_intervisit_arrivals():
    # expected high-priority count: lam_high * E(I_1) = 0.2 * 4 = 0.8
    gf = GfEvaluator(example1())
    handle = TransformHandle(lambda s: gf.complement_pair(0, s, 0.0), h0=1e-5,
                             omega_max=1.0)
    est = lst_moment(handle, 1)
    assert est.value == pytest.approx(0.8, rel=1e-9)


def test_first_moments_on_random_models():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        model = random_model(rng)
        d = validate(model)
        gf = GfEvaluator(model)
        for i, q in enumerate(model.queues):
            if q.lambda_low > 0 and q.discipline != "exhaustive":
                est = lst_moment(TransformHandle(
                    lambda s, i=i: gf.complement_pair(i, 0.0, s),
                    h0=1e-4, omega_max=1.0), 1)
                assert est.value == pytest.approx(
                    q.lambda_low * d.mean_cycle, rel=1e-7)
            if q.lambda_high > 0 and q.discipline != "gated":
                est = lst_moment(TransformHandle(
                    lambda s, i=i: gf.complement_pair(i, s, 0.0),
                    h0=1e-4, omega_max=1.0), 1)
                assert est.value == pytest.approx(
                    q.lambda_high * d.mean_intervisit[i], rel=1e-7)


def test_gated_high_coordinate_counts_cycle():
    # under gated service the high coordinate also spans the full cycle
    model = example1("gated")
    d = validate(model)
    gf = GfEvaluator(model)
    est = lst_moment(TransformHandle(lambda s: gf.complement_pair(0, s, 0.0),
                                     h0=1e-5, omega_max=1.0), 1)
    assert est.value == pytest.approx(0.2 * d.mean_cycle, rel=1e-9)


def test_log_value_matches_value():
    a = Analyzer(example2())
    zeta = [0.1, 0.02, 0.3, 0.0]
    assert math.exp(a.gf.log_value(0, zeta)) == pytest.approx(
        a.gf_visit_beginning(0, [1 - c for c in zeta]), rel=1e-14)


@pytest.mark.parametrize("model,logs,pair", [
    (example1(), ("-0x1.1de4fe8f6aba8p-1", "-0x1.97ab1d14596c4p-1"), "0x1.27599007e542fp-1"),
    (example2(EXHAUSTIVE, GATED), ("-0x1.b06d71634f296p+3", "-0x1.ec6192cc2d3c8p+3"),
     "0x1.ffffff61b84f8p-1"),
], ids=["example1", "example2-exhaustive-gated"])
def test_report_leaves_the_reference_route_unbuilt(model, logs, pair):
    # the busy periods and LST complements of log_value are built on first
    # use, which report() never makes; once built they give the same bits
    a = Analyzer(model)
    a.report()
    assert "_periods" not in vars(a.gf)
    assert "_sigma_c" not in vars(a.gf)
    # nor does it build a differencing step for a transform handle
    assert all("h0" not in vars(qt) for qt in a.queues)
    zeta = [0.05, 0.1, 0.2, 0.4]
    assert tuple(a.gf.log_value(i, zeta).hex() for i in range(2)) == logs
    assert "_periods" in vars(a.gf)
    assert a.gf.complement_pair(1, 0.3, 0.6).hex() == pair


def test_complement_precision_near_one():
    gf = GfEvaluator(example1())
    c = gf.complement_pair(0, 1e-9, 1e-9)
    # complements ~ (E(X_h) + E(X_l)) * 1e-9; must not collapse to float noise
    assert c == pytest.approx((0.8 + 4.0) * 1e-9, rel=1e-5)


def test_near_critical_load_raises_no_convergence(monkeypatch):
    from priopoll import Exponential, PollingModel, QueueSpec
    model = PollingModel(
        queues=(QueueSpec(0.5, 0.4999999, Exponential(1.0), Exponential(1.0)),),
        switchovers=(Exponential(1.0),),
    )
    monkeypatch.setattr(gf_module, "_MAX_CYCLES", 200)
    gf = GfEvaluator(model)
    with pytest.raises(NoConvergence):
        gf.complement_pair(0, 0.01, 0.01)


def test_rejects_out_of_range_arguments():
    a = Analyzer(example1())
    gf = a.gf
    with pytest.raises(ValueError):
        a.gf_visit_beginning(0, [1.0, 1.0, 1.5, 1.0])
    with pytest.raises(ValueError):
        gf.log_value(0, [0.0, 0.0, -0.1, 0.0])
    with pytest.raises(ValueError):
        gf.log_value(0, [0.0, 0.0])
    # a queue index past the model, as Analyzer.queues[i] does (2 and -3 once
    # wrapped onto queues 1 and 2), while -1 still means the last queue
    z = (0.5,) * 4
    for i in (2, -3):
        with pytest.raises(IndexError):
            a.gf_visit_beginning(i, z)
        with pytest.raises(IndexError):
            gf.complement_pair(i, 0.1, 0.1)
    assert a.gf_visit_beginning(-1, z) == a.gf_visit_beginning(1, z)
    assert gf.complement_pair(-1, 0.1, 0.1) == gf.complement_pair(1, 0.1, 0.1)


def _baseline_family(n, rho):
    """N queues at lambda_H = lambda_L = rho/(2N), Exp(1) services and
    switch-overs, disciplines cycling gated/exhaustive/mixed."""
    lam = rho / (2 * n)
    return PollingModel(
        queues=tuple(QueueSpec(lam, lam, Exponential(1.0), Exponential(1.0),
                               DISCIPLINES[i % 3]) for i in range(n)),
        switchovers=(Exponential(1.0),) * n)


def _single_class_queues():
    """An exhaustive queue without a high class, a gated queue without a low
    class and a mixed queue with both, services and switch-overs of several
    families."""
    return PollingModel(
        queues=(QueueSpec(0.0, 0.3, None, Erlang(2, 1.0), EXHAUSTIVE),
                QueueSpec(0.25, 0.0, Hyperexponential((0.4, 0.6), (0.5, 1.5)), None, GATED),
                QueueSpec(0.1, 0.15, Exponential(1.0), Uniform(0.0, 2.0), MIXED)),
        switchovers=(Deterministic(0.5), Exponential(1.0), Erlang(3, 0.7)))


MOMENT_MODELS = {
    "example1": example1(),
    "example2": example2(),
    "example2_exhaustive_gated": example2(EXHAUSTIVE, GATED),
    "single_exhaustive": single_vacation_queue(EXHAUSTIVE),
    "single_without_highs": single_vacation_queue(lam_h=0.0),
    "random_extended": random_model(np.random.default_rng(5), extended_dists=True),
    "baseline_8_rho_0.99": _baseline_family(8, 0.99),
    "single_class_queues": _single_class_queues(),
}


@pytest.mark.parametrize("name", MOMENT_MODELS)
def test_moments_are_the_cycle_fixed_point(name):
    # one cycle of visit maps carries queue 0's (m, f) to itself, and every
    # queue's entry is the image of the previous one
    gf = GfEvaluator(MOMENT_MODELS[name])
    states = gf.moments()
    images = gf._cycle(*states[0])
    for (m, f), (m_img, f_img) in zip(states + states[:1], images):
        assert m_img == pytest.approx(m, rel=1e-13)
        for row, row_img in zip(f, f_img):
            assert row_img == pytest.approx(row, rel=1e-13)


def test_means_only_report_at_32_queues():
    # order 1 in closed form and order 2 summed on N^2 entries: the
    # means-only report at N = 32 takes well under a second, and its states
    # are the one-cycle fixed point
    model = _baseline_family(32, 0.6)
    start = time.perf_counter()
    report = Analyzer(model).report(include_variances=False)
    assert time.perf_counter() - start < 1.0
    assert len(report.classes) == 64 and report.pcl_residual < 1e-9
    gf = GfEvaluator(model)
    states = gf.moments()
    for (m, f), (m_img, f_img) in zip(states + states[:1], gf._cycle(*states[0])):
        assert m_img == pytest.approx(m, rel=1e-12)
        for row, row_img in zip(f, f_img):
            assert row_img == pytest.approx(row, rel=1e-12)


@pytest.mark.parametrize("name", MOMENT_MODELS)
def test_factors_compose_the_cycle_mean_map(name):
    # U W equals P, whose columns are the unit spans carried around a cycle
    gf = GfEvaluator(MOMENT_MODELS[name])
    u, w = gf._factors()
    n2 = 2 * gf.n
    for c in range(n2):
        col = [float(k == c) for k in range(n2)]
        for j in range(gf.n):
            col = gf._visit(j, col)
        assert [sum(x * row[c] for x, row in zip(uk, w)) for uk in u] == \
            pytest.approx(col, rel=1e-14, abs=1e-15)


def _two_row_block(gf, states, i):
    """Queue i's third moments read through both of its unit rows, whether
    or not its coordinates share a span: flat, entry (a, b, c) at 4a + 2b + c."""
    n = gf.n
    latest_first = range(n - 1, -1, -1)
    wr = gf._project(gf._w, [0.0] * n**3, latest_first, states)[1]
    q = _power_series(gf._wu, wr, 3, _STEPS)
    h = [[float(k == l) for l in range(2 * n)] for k in (2 * i, 2 * i + 1)]
    h, t = gf._project(h, [0.0] * 8, range(i - 1, -1, -1), states)
    t = [x + y for x, y in zip(t, _cube(_product(h, gf._u), q, 3))]
    return gf._project(h, t, latest_first, states)[1]


@pytest.mark.parametrize("name", MOMENT_MODELS)
def test_one_span_coordinates_agree_to_the_bit(name):
    # a gated or an exhaustive queue's two coordinates count arrivals over
    # one span: their first, second and third moments agree exactly, and
    # reading the third through one unit row gives the bits of reading
    # through both
    gf = GfEvaluator(MOMENT_MODELS[name])
    states = gf.moments()
    thirds = gf.third_moments(states)
    one_span = [i for i, q in enumerate(gf.model.queues) if q.discipline != MIXED]
    assert [i for i, s in enumerate(gf.spans) if s == (0, 0)] == one_span
    assert all(s == (0, 1) for i, s in enumerate(gf.spans) if i not in one_span)
    for i in one_span:
        m, f = states[i]
        k = 2 * i
        assert m[k] == m[k + 1]
        assert f[k] == f[k + 1]
        assert [row[k] for row in f] == [row[k + 1] for row in f]
        block = [x for mat in thirds[i] for row in mat for x in row]
        assert block == [block[0]] * 8
        assert _two_row_block(gf, states, i) == block


@pytest.mark.parametrize("gap", [1e-6, 1e-8, 1e-9, 2e-10, 1.2e-10])
def test_heavy_traffic_answers_below_the_guard(gap):
    # below the load guard, 1 - rho >= 1.11e-10, the means and variances
    # answer and conserve work within the guard's bound 2^-53/(1 - rho)
    report = Analyzer(heavy_traffic(1.0 - gap)).report()
    assert len(report.classes) == 4
    for r in report.classes:
        assert 0.0 < r.mean_wait < math.inf
        assert 0.0 < r.var_wait < math.inf
    assert report.pcl_residual <= 1e-6


@pytest.mark.parametrize("gap", [1e-10, 1e-12, 1e-14, 2.0 ** -53])
def test_loads_past_the_guard_raise_ill_conditioned(gap):
    # past the guard the moments refuse at once, for means and variances
    # alike, where the rounding of the rates alone could move them by more
    # than 1e-6; without the guard the means read a conservation residual
    # of 1.95 at 1 - 2^-53 and 0.8% at 1 - 1e-14
    model = heavy_traffic(1.0 - gap)
    for include_variances in (False, True):
        start = time.perf_counter()
        with pytest.raises(IllConditioned, match="too close to 1"):
            Analyzer(model).report(include_variances=include_variances)
        assert time.perf_counter() - start < 1.0


def test_guard_sits_where_rounding_reaches_1e_6():
    # example1 at rho = 1 - 1e-10 (the exit-3 model of the CLI tests) is
    # past the guard, and at a gap of 1.2e-10 it is not
    for low, refused in ((0.5999999999, True), (0.59999999988, False)):
        model = example1()
        model = dataclasses.replace(model, queues=(
            dataclasses.replace(model.queues[0], lambda_low=low),) + model.queues[1:])
        gap = 1.0 - validate(model).rho_total
        assert (2.0 ** -53 / gap > 1e-6) == refused
        if refused:
            with pytest.raises(IllConditioned):
                GfEvaluator(model).moments()
        else:
            assert Analyzer(model).report(include_variances=False).pcl_residual <= 1e-6


def _third_moment_cycle(gf, m, f, t):
    """The full (2N)^3 third moments at each visit beginning of one cycle
    from queue 0's (m, f, t), one visit map at a time: t <- S^(x3) t + the
    visit's and the switch-over's contributions."""
    out = [t]
    for j, (m, f) in enumerate(gf._cycle(m, f)[:-1]):
        es, es2, es3 = gf._swo[j]
        keep = gf._keep[j]
        _, (b_h, b_l), (c_h, c_l) = gf.period_rates[j]
        kh = 2 * j
        spread = b_h * m[kh] + b_l * m[kh + 1]
        d3 = c_h * m[kh] + c_l * m[kh + 1]
        y = gf._visit(j, m)
        w = gf._visit(j, [b_h * row[kh] + b_l * row[kh + 1] for row in f])
        f = [gf._visit(j, col) for col in zip(*[gf._visit(j, row) for row in f])]
        f = [[fab + spread * ka * kb for fab, kb in zip(row, keep)]
             for row, ka in zip(f, keep)]
        for _ in range(3):
            t = [[gf._visit(j, fiber) for fiber in mat] for mat in t]
            t = [[[vab[c] for vab in va] for va in t] for c in range(len(t))]
        t = [[[tabc + wa * kb * kc + ka * wb * kc + ka * kb * wc + d3 * ka * kb * kc
               + es * (fab + fac + fbc) + es2 * (ya + yb + yc) + es3
               for tabc, kc, wc, fac, fbc, yc in zip(tab, keep, w, fa, fb, y)]
              for tab, kb, wb, fab, fb, yb in zip(ta, keep, w, fa, f, y)]
             for ta, ka, wa, fa, ya in zip(t, keep, w, f, y)]
        out.append(t)
    return out


def test_third_moments_are_the_cycle_fixed_point():
    # every queue's block equals the same block of the fixed point of the
    # full-tensor cycle map t <- P^(x3) t + r, iterated from zero without
    # doubling until no entry changes (every term is nonnegative, so the
    # iterates increase to it), and is symmetric in its three indices; five
    # queues make the sweeps wrap around past queue 0, and a single-class
    # queue's one span is read at its high coordinate, absent class or not
    for model in (example1(), example2("exhaustive", "gated"),
                  random_model(np.random.default_rng(11), extended_dists=True),
                  _baseline_family(5, 0.6), _single_class_queues()):
        gf = GfEvaluator(model)
        m0, f0 = gf.moments()[0]
        n2 = 2 * gf.n
        t = [[[0.0] * n2 for _ in range(n2)] for _ in range(n2)]
        for _ in range(10_000):
            new = _third_moment_cycle(gf, m0, f0, t)[-1]
            if new == t:
                break
            t = new
        else:
            pytest.fail("the full-tensor iteration did not settle")
        oracle = _third_moment_cycle(gf, m0, f0, t)[:-1]
        thirds = gf.third_moments(gf.moments())
        assert len(thirds) == gf.n
        for i, (block, full) in enumerate(zip(thirds, oracle)):
            k = (2 * i, 2 * i + 1)
            for a in range(2):
                for b in range(2):
                    for c in range(2):
                        assert block[a][b][c] == pytest.approx(full[k[a]][k[b]][k[c]],
                                                               rel=1e-13)
                        assert block[a][b][c] == pytest.approx(block[c][a][b], rel=1e-13)


def test_third_moments_ignore_max_cycles(monkeypatch):
    # _MAX_CYCLES bounds only the reference route, log_value: at rho = 1 -
    # 1e-7 the moments sum in a few dozen doubling steps whatever it is
    model = PollingModel(
        queues=(QueueSpec(0.5, 0.4999999, Exponential(1.0), Exponential(1.0)),),
        switchovers=(Exponential(1.0),),
    )
    free = GfEvaluator(model)
    states = free.moments()
    third = free.third_moments(states)
    monkeypatch.setattr(gf_module, "_MAX_CYCLES", 200)
    capped = GfEvaluator(model)
    assert capped.moments() == states
    assert capped.third_moments(states) == third


def test_variances_answer_past_rho_0_99999():
    # the order-3 doubling is bounded by the load guard, not by a cycle
    # count: the variances answer at 0.99999 and on towards the guard, and
    # (1 - rho) E(W_H) at the mixed queue settles at the rate 1 - rho
    gaps, scaled = (1e-4, 1e-5, 1e-7, 1e-9), []
    for gap in gaps:
        start = time.perf_counter()
        report = Analyzer(heavy_traffic(1.0 - gap)).report()
        assert time.perf_counter() - start < 1.0
        assert all(math.isfinite(r.var_wait) and r.var_wait > 0.0 for r in report.classes)
        scaled.append(gap * report.classes[0].mean_wait)
    for gap, x in zip(gaps, scaled):
        assert abs(x - scaled[-1]) < 2.0 * gap


def _power_series_without_stop(p, r, k):
    """sum_j p^(xk j) r doubled until a step changes no entry, each step
    mapped by ``_cube_by_rotation``: the sum with neither the early stop nor
    the step cap, and the number of steps it took, the confirming one
    included."""
    a, t = p, r
    for step in range(1, 200):
        new = [x + y for x, y in zip(t, _cube_by_rotation(a, t, k))]
        if new == t:
            return t, step
        t, a = new, [[sum(map(mul, row, col)) for col in zip(*a)] for row in a]
    pytest.fail("the doubling did not settle")


STOP_MODELS = {**published_models(), "baseline_5_rho_0.6": _baseline_family(5, 0.6)}


def _series_source(gf, k):
    """What ``moments`` (k = 2) and ``third_moments`` (k = 3) sum over the
    visit times: W R W^T and W^(x3) r, flat."""
    n = gf.n
    states = gf.moments()
    if k == 3:
        return gf._project(gf._w, [0.0] * n**3, range(n - 1, -1, -1), states)[1]
    r = gf._cycle(states[0][0], [[0.0] * 2 * n for _ in range(2 * n)])[-1][1]
    return _cube(gf._w, [x for row in r for x in row], 2)


@pytest.mark.parametrize("name", STOP_MODELS)
def test_doubling_stop_returns_the_full_sum(name):
    # for both orders the stop returns the bits of the step that would
    # confirm it, and only where the step cap allows that step
    gf = GfEvaluator(STOP_MODELS[name])
    for k in (2, 3):
        r = _series_source(gf, k)
        full, steps = _power_series_without_stop(gf._wu, r, k)
        assert _power_series(gf._wu, r, k, _STEPS) == full
        assert _power_series(gf._wu, r, k, steps) == full
        assert _power_series(gf._wu, r, k, steps - 1) is None


def test_step_cap_raises_no_convergence(monkeypatch):
    # the step cap is a time bound: a sum it cuts short is a typed error
    gf = GfEvaluator(example2())
    monkeypatch.setattr("priopoll.gf._STEPS", 3)
    with pytest.raises(NoConvergence, match="order-2 .* within 3 doubling steps"):
        gf.moments()


def _cube_by_rotation(a, t, k):
    """a^(xk) t by rotation, the reference for ``_cube``'s layout: dot every
    fibre with a's rows, then rotate the mapped index to the front with
    strided slices."""
    n, p = len(a[0]), len(a)
    for _ in range(k):
        v = [sum(map(mul, row, fibre))
             for fibre in [t[x:x + n] for x in range(0, len(t), n)] for row in a]
        t = [x for c in range(p) for x in v[c::p]]
    return t


@pytest.mark.parametrize("n", range(1, 5))
def test_cube_is_the_rotation_form_to_the_bit(n):
    # the same dot products in the same order, only laid out directly: the
    # rotation form's bits, and the direct k-fold sum to rounding, for the
    # orders 2 and 3 that the moments sum
    rng = np.random.default_rng(n)
    for p, k in itertools.product(sorted({1, 2, n}), (2, 3)):
        for _ in range(5):
            a = rng.random((p, n)).tolist()
            t = rng.random(n**k).tolist()
            got = _cube(a, t, k)
            assert got == _cube_by_rotation(a, t, k)
            direct = [sum(math.prod(a[i][x] for i, x in zip(out, at)) * t[pos]
                          for pos, at in enumerate(itertools.product(range(n), repeat=k)))
                      for out in itertools.product(range(p), repeat=k)]
            assert got == pytest.approx(direct, rel=1e-14, abs=0.0)


def _full_third_moments(gf, m0, f0):
    """Every queue's full (2N)^3 third moments: the cycle map t <- P^(x3) t
    + r of ``_third_moment_cycle``, its fixed point summed by doubling over
    the full tensor with P carried around the cycle by ``_visit``."""
    n2 = 2 * gf.n
    r = np.array(_third_moment_cycle(gf, m0, f0, np.zeros((n2,) * 3).tolist())[-1])
    cols = []
    for c in range(n2):
        col = [float(k == c) for k in range(n2)]
        for j in range(gf.n):
            col = gf._visit(j, col)
        cols.append(col)
    a, t = np.array(cols).T, r
    for _ in range(200):
        new = t + np.einsum("ai,bj,ck,ijk->abc", a, a, a, t)
        if np.array_equal(new, t):
            return _third_moment_cycle(gf, m0, f0, t.tolist())[:-1]
        t, a = new, a @ a
    pytest.fail("the full-tensor doubling did not settle")


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(drawn_models(max_n=4))
def test_moments_on_drawn_models(model):
    # orders 1 and 2 are the one-cycle fixed point; for N <= 3 every queue's
    # third-moment block is the full-tensor fixed point's
    gf = GfEvaluator(model)
    states = gf.moments()
    for (m, f), (m_img, f_img) in zip(states + states[:1], gf._cycle(*states[0])):
        assert m_img == pytest.approx(m, rel=1e-12)
        for row, row_img in zip(f, f_img):
            assert row_img == pytest.approx(row, rel=1e-12)
    if gf.n > 3:
        return
    full = _full_third_moments(gf, *states[0])
    for i, (block, t) in enumerate(zip(gf.third_moments(states), full)):
        k = (2 * i, 2 * i + 1)
        for a in range(2):
            for b in range(2):
                assert block[a][b] == pytest.approx([t[k[a]][k[b]][x] for x in k], rel=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(drawn_models(max_n=4))
def test_report_on_drawn_models(model):
    # every drawn model gets positive, finite means and variances of its
    # waits and conserves work, each within a second
    start = time.perf_counter()
    report = Analyzer(model).report()
    assert time.perf_counter() - start < 1.0
    for r in report.classes:
        assert 0.0 < r.mean_wait < math.inf
        assert 0.0 < r.var_wait < math.inf
        assert math.isfinite(r.mean_qlen)
    assert report.pcl_residual < 1e-9
