"""Joint queue-length generating function at visit beginnings.

The state recorded at the instant the server reaches queue i is the vector of
per-class queue lengths (high_1, low_1, ..., high_N, low_N).  Walking one
server cycle backwards expresses the GF at a visit beginning in terms of the
GF one visit earlier: a switch-over factor times the same GF with the visited
queue's two coordinates substituted by one rule: each class-c coordinate
becomes the LST of the customer's period T_c at the exponent of the
coordinates the visit keeps, where T_c is its service B_c extended by the
busy period of the classes ``CLEARED`` says the visit empties:

* gated (none):        T_c = B_c, at the total exponent;
* mixed (high):        T_H is a high-class busy period and T_L a completion
                       time, at the exponent without the high coordinate;
* exhaustive (both):   T_c is the queue's busy period started by B_c, at the
                       other queues' exponent.

Iterating whole cycles yields the convergent infinite product (load < 1).
Evaluation works on complements 1 - z and accumulates log factors, so values
stay fully accurate within 1e-12 of the all-ones point where numerical
differentiation operates.

Read forwards, each substitution is one generation of a multitype branching
process with immigration (Resing 1993): every class-c customer at queue j's
visit beginning is replaced by the Poisson arrivals during its period T_c
into the coordinates the visit keeps (the cleared classes' own are not), and
the switch-over adds Poisson immigrants.  Both readings use the same T_c:
``period_complements`` gives its transform and ``period_rates`` its
moments.  The moments of the visit-beginning state up to order three
therefore follow one affine map per visit, which acts only through the mean
visit time: its linear part is a rank-one update of the identity with the
visited queue's coordinates zeroed, so a visit carries the second moments in
one O(N^2) pass, and the cycle's mean map factors as P = U W through the N
visit times.  Order one needs no solve: a coordinate's mean is the mean of
the span it counts arrivals over, a sum of mean visit and switch-over times.
Orders two and three are nonnegative series in the visit times' map M = W U,
summed on N^k entries by one doubling (``_power_series``) that ends once a
bound proves that the next step would change no entry.  ``third_moments``
reads order three only where it is used, without forming a (2N)^3 tensor:
it pulls rows back through the visits and projects each visit's
contribution onto them, onto the N visit times for the doubling and onto
each queue's distinct spans (``spans``): one for a gated or an exhaustive
queue, whose two coordinates count arrivals over the same period, and two
for a mixed one.

Near saturation the moments grow like 1/(1 - rho), and so does the error
that the rounding of the rates leaves in them: a relative 2^-53 in the
load moves the moments by about 2^-53/(1 - rho) relative, which the
conservation residual tracks within a factor of about 2.  ``moments``
raises ``IllConditioned`` where that bound passes ``_GUARD`` = 1e-6, that
is, for 1 - rho < 1.11e-10, rather than return numbers it cannot vouch for.
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import mul

from .busyperiod import BusyPeriod
from .errors import IllConditioned, NoConvergence, OutOfRange
from .model import CLEARED, PollingModel, validate

__all__ = ["GfEvaluator"]

_TOL = 1e-15  # log_value stops once a whole cycle adds less than this
_STOP = 2.0 ** -55  # _power_series stops once the next step adds less than this
_STEPS = 64  # doubling steps allowed per moment order: a time bound only
_GUARD = 1e-6  # moments refuses loads whose rounding bound 2^-53/(1 - rho) passes this
_MAX_CYCLES = 100_000  # log_value's cycle cap: a time bound only


class GfEvaluator:
    """Evaluates the visit-beginning GF of a polling model, which it
    validates (``derived``).

    The constructor is where the analytic engine reads the service and
    switch-over moments, and it raises ``OutOfRange`` when one is not finite,
    so that every layer built on it reads only finite input moments.

    All methods are pure; per-call scratch state only, so instances may be
    shared across threads.  The one attribute built on first use
    (``_periods``) is the same whichever thread builds it.  ``_MAX_CYCLES``
    bounds ``log_value`` alone; the moments are bounded by the load guard.
    """

    def __init__(self, model: PollingModel):
        self.model = model
        self.derived = validate(model)
        self.n = n = model.n
        self._lam = []
        self._cleared = []       # per queue, the coordinates its visit clears
        self._sigma_c = [s.lst_complement for s in model.switchovers]
        # moment maps: per queue, lambda_c E(T_c^k) of its two classes for
        # k = 1, 2, 3, and which coordinates its visit keeps
        self.period_rates = []
        self._keep = []
        # the span rule: two of a queue's coordinates count arrivals over one
        # span exactly when its visit keeps both or clears both.  Per queue,
        # the span of its high and low class, numbered so that span s is read
        # at class s's coordinate: (0, 0) for one span, (0, 1) for two
        self.spans = []
        # each class's rate and service moments E(B), E(B^2), E(B^3), and
        # each switch-over's moments, read once
        services = [{c: (lam, s.mean, s.moment(2), s.moment(3)) for c, _, lam, s in q.classes}
                    for q in model.queues]
        self._swo = [(s.mean, s.moment(2), s.moment(3)) for s in model.switchovers]
        # a moment past the float range is inf (the rates are finite already)
        read = [x for moms in services for v in moms.values() for x in v]
        if not all(map(math.isfinite, read + [x for es in self._swo for x in es])):
            raise OutOfRange("a service or switch-over moment does not fit in a float")
        for j, (q, moms) in enumerate(zip(model.queues, services)):
            cleared = CLEARED[q.discipline]
            self._lam.extend((q.lambda_high, q.lambda_low))
            self._cleared.append([2 * j + c for c in cleared])
            live = [moms[c] for c in cleared if c in moms]
            one = 1.0 - sum(lam * b1 for lam, b1, _, _ in live)
            r2 = sum(lam * b2 for lam, _, b2, _ in live)
            r3 = sum(lam * b3 for lam, _, _, b3 in live)
            # an absent class has zero rates
            rates = [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
            for c, (lam, b1, b2, b3) in moms.items():
                rates[0][c] = lam * b1 / one
                rates[1][c] = lam * (b2 / one**2 + b1 * r2 / one**3)
                rates[2][c] = lam * (b3 / one**3 + 3.0 * b2 * r2 / one**4
                                     + b1 * (r3 / one**4 + 3.0 * r2 * r2 / one**5))
            self.period_rates.append(tuple(map(tuple, rates)))
            keep = [float(k not in self._cleared[j]) for k in range(2 * n)]
            self._keep.append(keep)
            self.spans.append((0, int(keep[2 * j] != keep[2 * j + 1])))
        # the cycle's mean map P = U W and the visit times' map M = W U, which
        # both moment orders use
        self._u, self._w = self._factors()
        self._wu = _product(self._w, self._u)

    @cached_property
    def _periods(self) -> list:
        """Per queue, the busy period of the classes its visit clears (None
        when it clears none) and its high and low class's LST complement
        (None for an absent class): what ``period_complements`` reads.  Only
        the reference route reads them, so they are built on first use."""
        periods = []
        for q in self.model.queues:
            cleared = CLEARED[q.discipline]
            live = [x for c, _, lam, s in q.classes if c in cleared for x in (s, lam)]
            busy = BusyPeriod(*live) if live else None
            lstc = [None, None]
            for c, _, _, s in q.classes:
                lstc[c] = s.lst_complement
            periods.append((busy, *lstc))
        return periods

    # ------------------------------------------------------------------ core

    def log_value(self, i: int, zeta) -> float:
        """log of the GF at visit beginning of queue i, arguments given as
        complements zeta_k = 1 - z_k (length 2N, each in [0, 1]).  Raises
        IndexError for i outside [-N, N), as a list of the queues would."""
        n = self.n
        i = range(n)[i]
        if len(zeta) != 2 * n:
            raise ValueError(f"expected {2 * n} coordinates, got {len(zeta)}")
        lam = self._lam
        cleared = self._cleared
        sigma_c = self._sigma_c
        period_complements = self.period_complements
        # previous queue first, wrapping around
        order = [(i - 1 - k) % n for k in range(n)]

        w = [float(c) for c in zeta]
        for c in w:
            if not 0.0 <= c <= 1.0:
                raise ValueError(f"complement {c!r} outside [0, 1]")

        terms = []
        warm = [0.0] * n
        log1p = math.log1p
        prev_csum = 0.0
        for _cycle in range(_MAX_CYCLES):
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
                # the kept coordinates' exponent, a sum of nonnegative terms
                # that the incremental updates may round just below 0
                kept = lam_tot
                for k in cleared[j]:
                    kept -= lam[k] * w[k]
                nh, nl, warm[j] = period_complements(j, kept if kept > 0.0 else 0.0,
                                                     warm[j])
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
            f"visit-beginning GF did not converge within {_MAX_CYCLES} cycles "
            f"(load {self.derived.rho_total:.6g})")

    def period_complements(self, j: int, omega: float, warm: float = 0.0):
        """(1 - E exp(-omega T_H), 1 - E exp(-omega T_L), u) for queue j's
        visit, where T_c is a class-c service extended by the busy period of
        the classes the visit clears and u is that busy period's LST
        complement at omega (0 when none is cleared), a warm start for a
        nearby argument.  A class without arrivals gets 0."""
        busy, lstc_h, lstc_l = self._periods[j]
        u = 0.0 if busy is None else busy.lst_complement(omega, warm)
        e = omega if busy is None else omega + busy.lam * u
        return lstc_h(e) if lstc_h else 0.0, lstc_l(e) if lstc_l else 0.0, u

    # ------------------------------------------------------------ moments

    def moments(self):
        """Exact first and second factorial moments of the state at every
        visit beginning, divided by the arrival rates: per queue i a pair
        (m, f) with ``m[k] = E(X_k)/lam_k`` and ``f[k][l] = E(X_k (X_l -
        [k == l]))/(lam_k lam_l)``.

        In these units coordinate k holds the moments of the span S_k it
        counts arrivals over (the cycle or intervisit of ``transforms``),
        E(S_k) and E(S_k S_l), finite for every rate, zero included.  At
        queue 0's visit beginning, E(S_k) of queue j's kept coordinate is the
        time since queue j's visit began, sum_(l >= j) of the mean visit and
        switch-over times l, and of a cleared one that less queue j's visit.
        A visit maps (m, f) to (S m, S f S^T + keep keep^T sum_c lam_c
        E(T_c^2) m_c) and a switch-over adds its length to every span.  The
        cycle's mean map is P = U W (``_factors``), so the fixed point of f_0
        = P f_0 P^T + R, R one cycle's contribution, is f_0 = R + U Q U^T
        with Q = sum_k M^k W R W^T (M^T)^k, M = W U, summed by
        ``_power_series`` on the N^2 entries of Q.

        Raises IllConditioned when 2^-53/(1 - rho) passes ``_GUARD`` (see the
        module docstring), before any work.
        """
        rho = self.derived.rho_total
        bound = 2.0 ** -53 / (1.0 - rho)
        if bound > _GUARD:
            raise IllConditioned(
                f"load {rho!r} is too close to 1: rounding alone may move the "
                f"moments by {bound:.3g} relative, above {_GUARD:g}")
        n2 = 2 * self.n
        m0, tail = [0.0] * n2, 0.0
        for j in reversed(range(self.n)):
            visit = self.derived.mean_visit[j]
            tail += visit + self._swo[j][0]
            m0[2 * j:2 * j + 2] = (tail if k else tail - visit
                                   for k in self._keep[j][2 * j:2 * j + 2])
        r = self._cycle(m0, [[0.0] * n2 for _ in range(n2)])[-1][1]
        q = self._series(_cube(self._w, [x for row in r for x in row], 2), 2)
        uqu = _cube(self._u, q, 2)
        f0 = [[x + y for x, y in zip(row, uqu[k * n2:(k + 1) * n2])]
              for k, row in enumerate(r)]
        return self._cycle(m0, f0)[:-1]

    def third_moments(self, states: list) -> list:
        """Exact third factorial moments of the state at every visit
        beginning, divided by the rates, given the states (m, f) that
        ``moments()`` returns: per queue i the 2 x 2 x 2 block ``t[a][b][c] =
        E(S_a S_b S_c)`` of the spans of its two classes (0 high, 1 low).

        A visit maps the spans s to S s + keep D, where D, centred given s,
        has variance and third moment sum_c lam_c E(T_c^k) s_c (k = 2, 3), so
        the third moments t_j at queue j's visit beginning follow t_(j+1) =
        S_j^(x3) t_j + c_j, c_j from (m_j, f_j) and the switch-over, and a
        cycle maps t to P^(x3) t + r.  Its fixed point is t_0 = r + U^(x3) q,
        with the visit times' moments q = sum_k M^(x3 k) W^(x3) r summed by
        ``_power_series``, as ``moments`` sums order two.  Every tensor is
        read through rows pulled back over the visits (``_project``): W^(x3)
        r over one cycle, and queue i's block from one unit row per distinct
        span (``spans``) over the visits since queue 0's, then U^(x3) q, then
        the cycle before.  Where both classes share a span, its one entry
        fills the block.
        """
        n = self.n
        u = self._u
        latest_first = range(n - 1, -1, -1)
        _, wr = self._project(self._w, [0.0] * n**3, latest_first, states)
        q = self._series(wr, 3)
        out = []
        for i, span in enumerate(self.spans):
            p = span[1] + 1
            h = [[float(k == l) for l in range(2 * n)] for k in range(2 * i, 2 * i + p)]
            h, t = self._project(h, [0.0] * p**3, range(i - 1, -1, -1), states)
            t = [x + y for x, y in zip(t, _cube(_product(h, u), q, 3))]
            t = self._project(h, t, latest_first, states)[1]
            out.append([[[t[(a * p + b) * p + c] for c in span] for b in span] for a in span])
        return out

    def _series(self, r: list, k: int) -> list:
        """sum_j M^(xk j) r over the visit times, by ``_power_series``;
        raises NoConvergence past ``_STEPS`` doubling steps."""
        t = _power_series(self._wu, r, k, _STEPS)
        if t is None:
            raise NoConvergence(
                f"order-{k} visit-beginning moments did not converge within {_STEPS} "
                f"doubling steps (load {self.derived.rho_total:.6g})")
        return t

    def _project(self, h: list, t: list, visits, states: list) -> tuple:
        """Adds the contributions of ``visits`` (latest first) to t as seen
        through the p rows h, pulling h back through each visit in turn: t +=
        h^(x3) c_j, then h <- h S_j.  t is a flat p^3 list, entry (a, b, c)
        at (a p + b) p + c, updated in place; returns (h, t).  Each
        contribution is symmetric, so the fibres a <= b are computed and
        copied to b, a.

        Visit j's contribution, from its beginning state (m, f) = states[j],
        is c_j = sym(keep keep w) + d3 keep^3 + es sym(f' 1) + es2 sym(y 1 1)
        + es3 1^3, with w = S f b, y = S m, f' = S f S^T + spread keep keep^T,
        spread = b . m and d3 = c . m on queue j's coordinates (b, c the
        ``period_rates`` of order 2 and 3) and the switch-over moments es.
        So h^(x3) c_j needs no tensor: only h keep, h 1 and, through the
        pulled-back rows h S, h w = (h S) f b, h y = (h S) m and h f' h^T =
        (h S) f (h S)^T + spread (h keep)(h keep)^T (f is symmetric).
        """
        p = len(h)
        for j in visits:
            m, f = states[j]
            keep = self._keep[j]
            (a_h, a_l), (b_h, b_l), (c_h, c_l) = self.period_rates[j]
            es, es2, es3 = self._swo[j]
            kh = 2 * j
            spread = b_h * m[kh] + b_l * m[kh + 1]
            d3 = c_h * m[kh] + c_l * m[kh + 1]
            fb = [b_h * row[kh] + b_l * row[kh + 1] for row in f]
            hk = [sum(map(mul, x, keep)) for x in h]
            h1 = [sum(x) for x in h]
            # x S_j: queue j's two entries become a_j (x . keep)
            h = [x[:kh] + [a_h * v, a_l * v] + x[kh + 2:] for x, v in zip(h, hk)]
            hw = [sum(map(mul, x, fb)) for x in h]
            hy = [sum(map(mul, x, m)) for x in h]
            hf = [[sum(map(mul, x, row)) for row in f] for x in h]
            g = [[sum(map(mul, xf, y)) + spread * ka * kb for y, kb in zip(h, hk)]
                 for xf, ka in zip(hf, hk)]
            rows = list(zip(hk, h1, hw, hy, g))
            for a, (ka, oa, wa, ya, ga) in enumerate(rows):
                for b in range(a, p):
                    kb, ob, wb, yb, gb = rows[b]
                    # t[a][b][c] += the coefficients of (h keep)_c, (h 1)_c,
                    # (h w)_c, (h y)_c, g[a][c] and g[b][c]
                    kk = ka * kb
                    by_k = wa * kb + ka * wb + d3 * kk
                    by_1 = es * ga[b] + es2 * (ya * ob + oa * yb) + es3 * oa * ob
                    by_y = es2 * oa * ob
                    s = (a * p + b) * p
                    t[s:s + p] = fibre = [
                        x + by_k * kc + by_1 * oc + kk * wc + by_y * yc
                        + es * (ob * gac + oa * gbc)
                        for x, kc, oc, wc, yc, gac, gbc
                        in zip(t[s:s + p], hk, h1, hw, hy, ga, gb)]
                    s = (b * p + a) * p
                    t[s:s + p] = fibre
        return h, t

    def _factors(self) -> tuple:
        """(U, W) with P = U W, the cycle's mean map from queue 0's visit
        beginning.  W (N x 2N) maps the spans to the N mean visit times, each
        a_j = ``period_rates[j][0]`` times queue j's spans grown by the earlier
        visits; U (2N x N) maps those back: a span restarts (times ``keep``)
        at its own queue's visit and grows by each later one."""
        n = self.n
        w, grown = [], [0.0] * (2 * n)
        for j, ((a_h, a_l), _, _) in enumerate(self.period_rates):
            w.append([(a_h + a_l) * x for x in grown])
            w[j][2 * j:2 * j + 2] = a_h, a_l
            grown = [x + y for x, y in zip(grown, w[j])]
        return [[self._keep[k // 2][k] if l == k // 2 else float(l > k // 2)
                 for l in range(n)] for k in range(2 * n)], w

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

    def _cycle(self, m: list, f: list) -> list:
        """(m, f) at each visit beginning of one cycle from queue 0's.

        Visit j is the rank-one update S = B + keep a^T of B, which zeroes
        queue j's two coordinates, with a = ``period_rates[j][0]`` there.  So
        S f S^T = B f B + g keep^T + keep g^T + (a^T f a) keep keep^T with
        g = B f a, one pass over f per visit, and the visit's own variance
        term spread keep keep^T joins a^T f a."""
        out = [(m, f)]
        for j in range(self.n):
            es, es2, _ = self._swo[j]
            keep = self._keep[j]
            (a_h, a_l), (b_h, b_l), _ = self.period_rates[j]
            kh = 2 * j
            g = [a_h * row[kh] + a_l * row[kh + 1] for row in f]
            half = 0.5 * (a_h * g[kh] + a_l * g[kh + 1] + b_h * m[kh] + b_l * m[kh + 1])
            g[kh:kh + 2] = 0.0, 0.0
            # f' = B f B + u keep^T + keep u^T + e 1^T + 1 e^T
            u = [gk + half * kk for gk, kk in zip(g, keep)]
            y = self._visit(j, m)
            e = [es * yk + 0.5 * es2 for yk in y]
            f = [row[:kh] + [0.0, 0.0] + row[kh + 2:] for row in f]
            f[kh] = f[kh + 1] = [0.0] * len(f)
            f = [[x + uk * kl + kk * ul + ek + el for x, kl, ul, el in zip(row, keep, u, e)]
                 for row, kk, uk, ek in zip(f, keep, u, e)]
            m = [yk + es for yk in y]
            out.append((m, f))
        return out

    # ------------------------------------------------------- convenience API

    def complement_pair(self, i: int, zeta_high: float, zeta_low: float) -> float:
        """1 - GF with only queue i's own coordinates displaced from 1."""
        zeta = [0.0] * (2 * self.n)
        zeta[2 * i:2 * i + 2] = zeta_high, zeta_low
        return -math.expm1(self.log_value(i, zeta))


def _product(a: list, b: list) -> list:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _cube(a: list, t: list, k: int) -> list:
    """a^(xk) t: the matrix a (p x n) applied along each index of a flat
    order-k tensor of n^k entries.  Each pass dots a's rows with the
    contiguous fibres of the last index, row-major over (row, fibre), so the
    mapped index comes out in front and after k passes the layout is the
    original one again."""
    n = len(a[0])
    for _ in range(k):
        fibres = list(zip(*[iter(t)] * n))
        t = [sum(map(mul, row, f)) for row in a for f in fibres]
    return t


def _power_series(p: list, r: list, k: int, steps: int) -> list | None:
    """sum_j p^(xk j) r, the fixed point of t = p^(xk) t + r, by doubling:
    t <- t + a^(xk) t and a <- a a, so that t sums 2^s terms after s steps
    (flat order-k tensors, as ``_cube`` takes them).  Every term is
    nonnegative, so each entry of the next step's increment is at most g^k
    max(t), g the largest row sum of the squared a.  Once g^k max(t) < 2^-55
    min(t) that increment is below half an ulp of every entry, with a factor
    2 to spare for the rounding of the bound, so the next step would change
    no entry and the sum ends here, with the same bits.  It also ends at a
    step that changes no entry, and is None when either takes more than
    ``steps`` steps: the stop returns only where a further step is allowed.
    ``moments`` (k = 2) and ``third_moments`` (k = 3) pass the visit times'
    map M (N x N), so every step works on N^k entries."""
    a, t = p, r
    for s in range(steps):
        new = [x + y for x, y in zip(t, _cube(a, t, k))]
        if new == t:
            return t
        t = new
        if s + 1 == steps:
            break
        a = _product(a, a)
        if max(map(sum, a)) ** k * max(t) < _STOP * min(t):
            return t
    return None
