"""Tour of the transform layer: busy periods, completion times, GFs, moments.

Everything the waiting-time results are built from can be evaluated directly:
the busy-period fixed point, the completion time of a low-priority service,
the joint queue-length GF at visit beginnings, and the period transforms.
"""

from priopoll import (Analyzer, BusyPeriod, Exponential, GATED, MIXED,
                      PollingModel, QueueSpec, TransformHandle, lst_moment)

# --- busy period of an M/G/1 queue: root of pi = beta(w + lam*(1 - pi))
bp = BusyPeriod(Exponential(1.0), lam=0.5)
print("busy period, exponential(1) services at rate 0.5:")
for w in (0.0, 0.1, 0.5, 2.0):
    print(f"   pi({w:3.1f}) = {bp.lst(w):.10f}")
print(f"   mean busy period = {bp.mean:.4f} (= 1/(1-rho))")

# --- the two-queue benchmark again
model = PollingModel(
    queues=(QueueSpec(0.2, 0.4, Exponential(1.0), Exponential(1.0), MIXED),
            QueueSpec(0.0, 0.2, None, Exponential(1.0), GATED)),
    switchovers=(Exponential(1.0), Exponential(1.0)),
)
a = Analyzer(model)

print("\ncompletion time of a low service (high work absorbed):")
for w in (0.0, 0.5, 1.0):
    print(f"   beta*(w={w:3.1f}) = {a.lst(0, 'completion', w):.8f}")

print("\njoint queue-length GF at a visit beginning of queue 1:")
for z in ((1.0, 1.0, 1.0, 1.0), (0.9, 0.9, 1.0, 1.0), (0.5, 0.5, 0.5, 0.5)):
    print(f"   V_b{z} = {a.gf_visit_beginning(0, z):.8f}")

print("\ntransforms at w = 0.05, by the name Analyzer.lst takes:")
for name in ("cycle", "intervisit", "visit", "wait_high", "wait_low"):
    print(f"   {name:10s} {a.lst(0, name, 0.05):.8f}")

print("\nmarginal queue-length GFs of queue 1 at z = 0.5:")
for cls in ("H", "L"):
    print(f"   class {cls} {a.qlen_gf(0, cls, 0.5):.8f}")

# --- numerical moment extraction from any transform handle
handle = TransformHandle(Exponential(2.0).lst_complement, h0=1e-4,
                         name="exponential(2)")
m1 = lst_moment(handle, 1)
m2 = lst_moment(handle, 2)
print(f"\nmoment extraction on a known transform: mean {m1.value:.8f} "
      f"(err est {m1.error:.1e}), second moment {m2.value:.8f} "
      f"(err est {m2.error:.1e})")
