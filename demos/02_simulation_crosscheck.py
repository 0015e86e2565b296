"""Cross-validate the transform results with the discrete-event simulator.

Every number the analytic engine produces should sit inside the simulation
confidence interval; this script prints them side by side for the two-queue
benchmark with mixed service in queue 1.
"""

from priopoll import (Analyzer, Exponential, GATED, MIXED, PollingModel,
                      QueueSpec, replicate)

model = PollingModel(
    queues=(
        QueueSpec(0.2, 0.4, Exponential(1.0), Exponential(1.0), MIXED),
        QueueSpec(0.0, 0.2, None, Exponential(1.0), GATED),
    ),
    switchovers=(Exponential(1.0), Exponential(1.0)),
)

analytic = Analyzer(model)
print("simulating 6 replications x 20000 cycles ...")
sim = replicate(model, base_seed=7, n_reps=6, n_cycles=20_000,
                warmup_cycles=2_000)

print(f"\n{'quantity':14s} {'analytic':>10s} {'simulated':>10s} {'95% hw':>9s}")
rows = [
    ("E(W_1H)", analytic.mean_wait(0, 'H'), sim.wait_mean[(0, 'H')], sim.wait_ci[(0, 'H')]),
    ("E(W_1L)", analytic.mean_wait(0, 'L'), sim.wait_mean[(0, 'L')], sim.wait_ci[(0, 'L')]),
    ("E(W_2)", analytic.mean_wait(1, 'L'), sim.wait_mean[(1, 'L')], sim.wait_ci[(1, 'L')]),
    ("E(N_1H)", analytic.mean_qlen(0, 'H'), sim.qlen_mean[(0, 'H')], sim.qlen_ci[(0, 'H')]),
    ("E(N_1L)", analytic.mean_qlen(0, 'L'), sim.qlen_mean[(0, 'L')], sim.qlen_ci[(0, 'L')]),
    ("E(C)", analytic.derived.mean_cycle, sim.cycle_mean[0], sim.cycle_ci[0]),
    ("E(I_1)", analytic.derived.mean_intervisit[0], sim.intervisit_mean[0], sim.intervisit_ci[0]),
    ("E(V_1)", analytic.derived.mean_visit[0], sim.visit_mean[0], sim.visit_ci[0]),
    ("busy frac", analytic.derived.rho_total, sim.busy_fraction, sim.busy_ci),
]
for name, ana, est, hw in rows:
    flag = "ok" if abs(est - ana) <= 3 * hw else "MISMATCH"
    print(f"{name:14s} {ana:10.4f} {est:10.4f} {hw:9.4f}  {flag}")

print(f"\nsecond moments: Var(W_1L) analytic {analytic.var_wait(0, 'L'):.2f}"
      f" vs simulated {sim.wait_var[(0, 'L')]:.2f}")
print(f"total waits sampled: {sum(sim.wait_count.values())}")
