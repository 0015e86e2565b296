"""Joint queue-length generating function at visit beginnings.

The state recorded at the instant the server reaches queue i is the vector of
per-class queue lengths (high_1, low_1, ..., high_N, low_N).  Walking one
server cycle backwards expresses the GF at a visit beginning in terms of the
GF one visit earlier: a switch-over factor times the same GF with the visited
queue's two coordinates substituted according to its service discipline

* gated:       both coordinates become the service LST of the total thinned
               arrival exponent (customers are replaced by their per-service
               arrivals, own queue included),
* exhaustive:  both become delay-busy-period LSTs over the other queues'
               exponent (the queue empties; everything arriving meanwhile is
               absorbed into the busy period),
* mixed:       the high coordinate becomes a high-class busy period and the
               low coordinate a completion time, both over the exponent that
               keeps the queue's own gated low-class term.

Iterating whole cycles yields the convergent infinite product (load < 1).
Evaluation works on complements 1 - z and accumulates log factors, so values
stay fully accurate within 1e-12 of the all-ones point where numerical
differentiation operates.

Read forwards, each substitution is one generation of a multitype branching
process with immigration (Resing 1993): every class-c customer at queue j's
visit beginning is replaced by the Poisson arrivals during its period T_c
into the coordinates the visit keeps, and the switch-over adds Poisson
immigrants.  T_c is the customer's service B_c extended by the busy periods
of the classes the visit clears (gated: none, so T_c = B_c; mixed: the high
class, so T_H is a high busy period and T_L a completion time; exhaustive:
both, so T_c is the queue's busy period started by B_c), and the cleared
classes' own coordinates are not kept.  The moments of the visit-beginning
state up to order three therefore follow one affine map per visit:
``moments`` solves the cycle of maps for the first two exactly as linear
systems, and ``third_moments`` sums the third's series by doubling.
"""

from __future__ import annotations

import functools
import math
from operator import mul

from .busyperiod import BusyPeriod, ServiceMix, _solve_complement
from .errors import NoConvergence
from .model import EXHAUSTIVE, GATED, MIXED, DerivedRates, PollingModel, validate

__all__ = ["GfEvaluator"]

_GATED, _EXHAUSTIVE, _MIXED = 0, 1, 2
_DISC_CODE = {GATED: _GATED, EXHAUSTIVE: _EXHAUSTIVE, MIXED: _MIXED}
_CLEARED = {GATED: (), MIXED: (0,), EXHAUSTIVE: (0, 1)}  # classes a visit empties
_TOL = 1e-15  # log_value stops once a whole cycle adds less than this


class GfEvaluator:
    """Evaluates the visit-beginning GF of a validated polling model.

    All methods are pure; per-call scratch state only, so instances may be
    shared across threads.
    """

    def __init__(self, model: PollingModel, derived: DerivedRates | None = None,
                 max_cycles: int = 100_000):
        self.model = model
        self.derived = derived if derived is not None else validate(model)
        self.max_cycles = max_cycles
        n = model.n
        self.n = n
        self._lam = []
        self._disc = []
        self._lstc_h = []
        self._lstc_l = []
        self._busy = []          # mixed: high-class busy; exhaustive: mixture busy
        self._sigma_c = [s.lst_complement for s in model.switchovers]
        for q in model.queues:
            self._lam.extend((q.lambda_high, q.lambda_low))
            code = _DISC_CODE[q.discipline]
            self._disc.append(code)
            self._lstc_h.append(q.service_high.lst_complement)
            self._lstc_l.append(q.service_low.lst_complement)
            if code == _MIXED:
                self._busy.append(BusyPeriod(q.service_high, q.lambda_high))
            elif code == _EXHAUSTIVE:
                self._busy.append(BusyPeriod(
                    ServiceMix(q.service_high, q.lambda_high, q.service_low, q.lambda_low),
                    q.lambda_high + q.lambda_low))
            else:
                self._busy.append(None)
        # step order per starting queue: previous queue first, wrapping around
        self._order = [[(i - 1 - k) % n for k in range(n)] for i in range(n)]
        # moment maps: per queue, lambda_c E(T_c^k) of its two classes for
        # k = 1, 2, 3, and which coordinates its visit keeps
        self.period_rates = []
        self._keep = []
        for j, q in enumerate(model.queues):
            lams = (q.lambda_high, q.lambda_low)
            svcs = (q.service_high, q.service_low)
            cleared = _CLEARED[q.discipline]
            one = 1.0 - sum(lams[c] * svcs[c].mean for c in cleared)
            r2 = sum(lams[c] * svcs[c].moment(2) for c in cleared)
            r3 = sum(lams[c] * svcs[c].moment(3) for c in cleared)
            self.period_rates.append((
                tuple(lam * s.mean / one for lam, s in zip(lams, svcs)),
                tuple(lam * (s.moment(2) / one**2 + s.mean * r2 / one**3)
                      for lam, s in zip(lams, svcs)),
                tuple(lam * (s.moment(3) / one**3 + 3.0 * s.moment(2) * r2 / one**4
                             + s.mean * (r3 / one**4 + 3.0 * r2 * r2 / one**5))
                      for lam, s in zip(lams, svcs))))
            keep = [1.0] * (2 * n)
            for c in cleared:
                keep[2 * j + c] = 0.0
            self._keep.append(keep)
        self._swo = [(s.mean, s.moment(2), s.moment(3)) for s in model.switchovers]

    # ------------------------------------------------------------------ core

    def log_value(self, i: int, zeta) -> float:
        """log of the GF at visit beginning of queue i, arguments given as
        complements zeta_k = 1 - z_k (length 2N, each in [0, 1])."""
        n = self.n
        if len(zeta) != 2 * n:
            raise ValueError(f"expected {2 * n} coordinates, got {len(zeta)}")
        lam = self._lam
        disc = self._disc
        lstc_h = self._lstc_h
        lstc_l = self._lstc_l
        busy = self._busy
        sigma_c = self._sigma_c
        order = self._order[i % n]

        w = [float(c) for c in zeta]
        for c in w:
            if not 0.0 <= c <= 1.0:
                raise ValueError(f"complement {c!r} outside [0, 1]")
        lam_tot = 0.0
        for k in range(2 * n):
            lam_tot += lam[k] * w[k]
        if lam_tot == 0.0:
            return 0.0

        terms = []
        warm = [0.0] * n
        log1p = math.log1p
        prev_csum = 0.0
        for _cycle in range(self.max_cycles):
            # refresh the exponent from scratch: the incremental updates below
            # would otherwise leave a rounding-error floor that never decays
            lam_tot = 0.0
            for k in range(2 * n):
                lam_tot += lam[k] * w[k]
            if lam_tot <= 0.0:
                return math.fsum(terms)
            csum = 0.0
            for j in order:
                kh = 2 * j
                lh = lam[kh]
                ll = lam[kh + 1]
                wh = w[kh]
                wl = w[kh + 1]
                t = log1p(-sigma_c[j](lam_tot))
                csum += t
                terms.append(t)
                code = disc[j]
                if code == _MIXED:
                    arg = lam_tot - lh * wh
                    if lh > 0.0:
                        b = busy[j]
                        u = _solve_complement(b._lstc, b.lam, arg, warm[j])
                        warm[j] = u
                    else:
                        u = 0.0
                    nh = u
                    nl = lstc_l[j](arg + lh * u) if ll > 0.0 else 0.0
                elif code == _GATED:
                    nh = lstc_h[j](lam_tot) if lh > 0.0 else 0.0
                    nl = lstc_l[j](lam_tot) if ll > 0.0 else 0.0
                else:  # exhaustive
                    arg = lam_tot - lh * wh - ll * wl
                    b = busy[j]
                    u = _solve_complement(b._lstc, b.lam, arg, warm[j])
                    warm[j] = u
                    e = arg + b.lam * u
                    nh = lstc_h[j](e) if lh > 0.0 else 0.0
                    nl = lstc_l[j](e) if ll > 0.0 else 0.0
                lam_tot += lh * (nh - wh) + ll * (nl - wl)
                w[kh] = nh
                w[kh + 1] = nl
            if lam_tot <= 0.0:
                return math.fsum(terms)
            if -csum <= _TOL:
                # geometric tail of the remaining cycles
                if prev_csum < 0.0:
                    r = csum / prev_csum
                    if 0.0 < r < 0.999:
                        terms.append(csum * r / (1.0 - r))
                return math.fsum(terms)
            prev_csum = csum
        raise NoConvergence(
            f"visit-beginning GF did not converge within {self.max_cycles} cycles "
            f"(load {self.derived.rho_total:.6g})")

    # ------------------------------------------------------------ moments

    def moments(self):
        """Exact first and second factorial moments of the state at every
        visit beginning, divided by the arrival rates: per queue i a pair
        (m, f) with ``m[k] = E(X_k)/lam_k`` and ``f[k][l] = E(X_k (X_l -
        [k == l]))/(lam_k lam_l)``.

        In these units coordinate k holds the moments of the span S_k it
        counts arrivals over (the cycle or intervisit of ``transforms``),
        E(S_k) and E(S_k S_l), finite for every rate, zero included.  A visit
        maps (m, f) to (S m, S f S^T + keep keep^T sum_c lam_c E(T_c^2) m_c),
        a switch-over adds its length to every span, and one cycle's fixed
        point solves two linear systems with 2N and (2N)^2 unknowns.
        """
        n2 = 2 * self.n
        zero = [[0.0] * n2 for _ in range(n2)]
        # m_0 = P m_0 + b, with P's columns the cycle's visits applied to e_k
        cols = self._cycle_columns()
        m0 = _solve([[float(a == c) - cols[c][a] for c in range(n2)] for a in range(n2)],
                    self._cycle([0.0] * n2, zero)[-1][0])
        # f_0 = P f_0 P^T + (f after one cycle from (m_0, 0))
        rhs = self._cycle(m0, zero)[-1][1]
        f0 = _solve([[float(a == c and b == d) - cols[c][a] * cols[d][b]
                      for c in range(n2) for d in range(n2)]
                     for a in range(n2) for b in range(n2)],
                    [v for row in rhs for v in row])
        return [(m, f) for m, f, _ in
                self._cycle(m0, [f0[a * n2:(a + 1) * n2] for a in range(n2)])[:-1]]

    def third_moments(self, m0: list, f0: list) -> list:
        """Exact third factorial moments of the state at every visit
        beginning, divided by the rates, given queue 0's entry (m0, f0) of
        ``moments()``: per queue i ``t[k][l][r] = E(S_k S_l S_r)``, the
        spans' third moments.

        A visit maps the spans s to S s + keep D, where D, centred given s,
        has variance and third moment sum_c lam_c E(T_c^k) s_c (k = 2, 3); so
        t maps to S^(x3) t plus terms in f, m and the switch-over moments, and
        the cycle's fixed point is the series t_0 = sum_k P^(x3 k) r, summed by
        doubling.  Raises NoConvergence when it needs more than
        ``max_cycles`` cycles, as ``log_value`` does.
        """
        n2 = 2 * self.n
        zero3 = [[[0.0] * n2 for _ in range(n2)]] * n2
        t0 = _power_series3([list(row) for row in zip(*self._cycle_columns())],
                            self._cycle(m0, f0, zero3)[-1][2], self.max_cycles)
        if t0 is None:
            raise NoConvergence(
                f"third visit-beginning moments did not converge within "
                f"{self.max_cycles} cycles (load {self.derived.rho_total:.6g})")
        return [t for _, _, t in self._cycle(m0, f0, t0)[:-1]]

    def _cycle_columns(self) -> list:
        """The columns P e_c of the cycle's mean map, from queue 0's visit
        beginning."""
        n2 = 2 * self.n
        cols = [[float(k == c) for k in range(n2)] for c in range(n2)]
        for j in range(self.n):
            cols = [self._visit(j, col) for col in cols]
        return cols

    def _visit(self, j: int, x: list) -> list:
        """S x for queue j's visit: its own spans restart (or end, when the
        visit empties them) and every kept span grows by the visit."""
        a_h, a_l = self.period_rates[j][0]
        v = a_h * x[2 * j] + a_l * x[2 * j + 1]
        keep = self._keep[j]
        y = [xk + v for xk in x]
        y[2 * j] = keep[2 * j] * v
        y[2 * j + 1] = keep[2 * j + 1] * v
        return y

    def _cycle(self, m: list, f: list, t: list | None = None) -> list:
        """(m, f, t) at each visit beginning of one cycle from queue 0's; t
        stays None when not given."""
        out = [(m, f, t)]
        for j in range(self.n):
            es, es2, es3 = self._swo[j]
            keep = self._keep[j]
            _, (b_h, b_l), (c_h, c_l) = self.period_rates[j]
            kh = 2 * j
            spread = b_h * m[kh] + b_l * m[kh + 1]
            y = self._visit(j, m)
            if t is not None:
                # u = S s + keep D: E(u u u) = S^(x3) t + the three placements
                # of keep keep (S f b) + E(D^3) keep keep keep
                w = self._visit(j, [b_h * row[kh] + b_l * row[kh + 1] for row in f])
                d3 = c_h * m[kh] + c_l * m[kh + 1]
                visit = functools.partial(self._visit, j)
                t = _turn(visit, _turn(visit, _turn(visit, t)))
            f = [self._visit(j, col) for col in zip(*[self._visit(j, row) for row in f])]
            f = [[fab + spread * ka * kb for fab, kb in zip(row, keep)]
                 for row, ka in zip(f, keep)]
            if t is not None:
                # then s' = u + sigma 1 with the switch-over sigma independent
                t = [[[tabc + wa * kb * kc + ka * wb * kc + ka * kb * wc + d3 * ka * kb * kc
                       + es * (fab + fac + fbc) + es2 * (ya + yb + yc) + es3
                       for tabc, kc, wc, fac, fbc, yc in zip(tab, keep, w, fa, fb, y)]
                      for tab, kb, wb, fab, fb, yb in zip(ta, keep, w, fa, f, y)]
                     for ta, ka, wa, fa, ya in zip(t, keep, w, f, y)]
            f = [[fab + es * (ya + yb) + es2 for fab, yb in zip(row, y)]
                 for row, ya in zip(f, y)]
            m = [yk + es for yk in y]
            out.append((m, f, t))
        return out

    # ------------------------------------------------------- convenience API

    def value(self, i: int, z) -> float:
        """GF value at z in [0, 1]^(2N)."""
        zeta = [1.0 - float(v) for v in z]
        return math.exp(self.log_value(i, zeta))

    def complement(self, i: int, zeta) -> float:
        """1 - GF, full relative precision for small complements."""
        return -math.expm1(self.log_value(i, zeta))

    def complement_pair(self, i: int, zeta_high: float, zeta_low: float) -> float:
        """1 - GF with only queue i's own coordinates displaced from 1."""
        zeta = [0.0] * (2 * self.n)
        zeta[2 * i] = zeta_high
        zeta[2 * i + 1] = zeta_low
        return -math.expm1(self.log_value(i, zeta))

    def value_pair(self, i: int, z_high: float, z_low: float) -> float:
        return 1.0 - self.complement_pair(i, 1.0 - z_high, 1.0 - z_low)


def _turn(fn, t: list) -> list:
    """u[c][a][b] = fn(t[a][b])[c]: a linear map applied along the last index
    of a cubic 3-tensor, which then becomes the first."""
    v = [[fn(fiber) for fiber in mat] for mat in t]
    return [[[vab[c] for vab in va] for va in v] for c in range(len(v))]


def _power_series3(p: list, r: list, max_terms: int) -> list | None:
    """sum_k p^(x3 k) r, the fixed point of t = p^(x3) t + r, by doubling:
    t <- t + a^(x3) t and a <- a a, so that t sums 2^s terms after s steps.
    Every term is nonnegative; the sum ends at the first step that changes no
    entry, and is None when that takes more than about ``max_terms`` terms."""
    a, t = p, r
    for _ in range(max_terms.bit_length()):
        def apply(x, a=a):
            return [sum(map(mul, row, x)) for row in a]
        step = _turn(apply, _turn(apply, _turn(apply, t)))
        new = [[[x + d for x, d in zip(xr, dr)] for xr, dr in zip(xm, dm)]
               for xm, dm in zip(t, step)]
        if new == t:
            return t
        t = new
        cols = list(zip(*a))
        a = [[sum(map(mul, row, col)) for col in cols] for row in a]
    return None


def _solve(a: list, b: list) -> list:
    """x with a x = b by Gaussian elimination with partial pivoting."""
    n = len(b)
    rows = [row + [v] for row, v in zip(a, b)]
    for k in range(n):
        p = max(range(k, n), key=lambda r: abs(rows[r][k]))
        rows[k], rows[p] = rows[p], rows[k]
        pivot = rows[k]
        for row in rows[k + 1:]:
            g = row[k] / pivot[k]
            if g:
                for c in range(k, n + 1):
                    row[c] -= g * pivot[c]
    x = [0.0] * n
    for k in reversed(range(n)):
        row = rows[k]
        x[k] = (row[n] - sum(row[c] * x[c] for c in range(k + 1, n))) / row[k]
    return x
