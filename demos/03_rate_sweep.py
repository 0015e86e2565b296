"""How does promoting traffic to high priority affect the ones left behind?

Keeping the total arrival rate of queue 1 fixed at 0.6, we shift mass from
the low class to the high class and track the low-class mean wait under
gated and mixed service.  With long switch-overs, a moderate amount of
high-priority traffic actually *helps* the remaining gated customers: the
server returns sooner after clearing high work, shortening residual cycles.
"""

from priopoll import (Analyzer, Deterministic, Exponential, GATED, MIXED,
                      PollingModel, QueueSpec)

TOTAL = 0.6
GRID = [k * 0.05 for k in range(12)]


def build(lam_h, disc, switchover=5.0):
    return PollingModel(
        queues=(
            QueueSpec(lam_h, TOTAL - lam_h, Exponential(1.0), Exponential(1.0), disc),
            QueueSpec(0.0, 0.2, None, Exponential(1.0), GATED),
        ),
        switchovers=(Deterministic(switchover), Deterministic(switchover)),
    )


print(f"{'lam_high':>8s} {'gated':>10s} {'mixed':>10s} {'mixed-gated':>12s}")
for lam_h in GRID:
    if TOTAL - lam_h <= 0:
        break
    w = {}
    for disc in (GATED, MIXED):
        w[disc] = Analyzer(build(lam_h, disc)).mean_wait(0, "L")
    print(f"{lam_h:8.2f} {w[GATED]:10.4f} {w[MIXED]:10.4f} "
          f"{w[MIXED] - w[GATED]:+12.4f}")

print("\nAt lam_high = 0 the disciplines coincide; the sign change of the")
print("last column locates the crossover beyond which gated wins again.")
