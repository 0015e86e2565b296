"""The benchmark's own copy of the published reference values.

Two-queue priority polling system, exponential and deterministic
switch-over variants (queue 2 is single-class and reports as "L"), and the
rho = 0.9 discipline grid.  Kept here rather than imported from the test
suite so that the benchmark checks outputs against fixed numbers.
"""

MEAN_TOL = 0.005   # absolute: the tables print three decimals
VAR_TOL = 0.005    # relative

# discipline of queue 1 -> {(queue, class): (mean wait, wait variance)}
EXP_SWITCHOVER = {
    "gated": {(0, "H"): (9.578, 56.739), (0, "L"): (14.366, 101.616),
              (1, "L"): (9.690, 58.513)},
    "exhaustive": {(0, "H"): (2.520, 9.290), (0, "L"): (6.300, 32.812),
                   (1, "L"): (14.880, 231.256)},
    "mixed_ge": {(0, "H"): (2.338, 6.496), (0, "L"): (14.575, 118.217),
                 (1, "L"): (10.513, 76.371)},
}

DET_SWITCHOVER = {
    "gated": {(0, "H"): (63.187, 847.377), (0, "L"): (94.781, 894.173),
              (1, "L"): (63.251, 853.777)},
    "exhaustive": {(0, "H"): (11.333, 195.508), (0, "L"): (28.333, 315.823),
                   (1, "L"): (68.000, 1386.100)},
    "mixed_ge": {(0, "H"): (11.167, 183.907), (0, "L"): (90.417, 850.199),
                 (1, "L"): (64.000, 928.914)},
}

# (discipline Q1, discipline Q2) -> per queue (E(W_L), E(W_H), Var(W_L), Var(W_H))
HIGH_LOAD = {
    ("gated", "gated"): ((141.81, 119.99, 5166.03, 4660.09),
                         (222.95, 146.82, 5917.70, 3560.67)),
    ("gated", "exhaustive"): ((165.49, 140.03, 11087.40, 9411.43),
                              (59.45, 17.83, 1862.57, 651.03)),
    ("gated", "mixed_ge"): ((147.38, 124.71, 6406.11, 5658.44),
                            (209.86, 16.98, 6213.92, 555.67)),
    ("exhaustive", "gated"): ((97.63, 78.10, 4252.19, 3784.99),
                              (224.00, 147.51, 6186.88, 3690.81)),
    ("exhaustive", "exhaustive"): ((119.80, 95.84, 9516.58, 7952.09),
                                   (61.62, 18.49, 2136.19, 728.97)),
    ("exhaustive", "mixed_ge"): ((102.18, 81.75, 5193.21, 4533.58),
                                 (211.90, 17.27, 6722.53, 586.84)),
    ("mixed_ge", "gated"): ((140.95, 77.96, 5140.20, 3756.12),
                            (223.45, 147.15, 6045.55, 3622.49)),
    ("mixed_ge", "exhaustive"): ((166.85, 94.38, 11655.90, 7574.67),
                                 (60.39, 18.12, 1978.87, 684.25)),
    ("mixed_ge", "mixed_ge"): ((146.87, 81.41, 6452.48, 4462.04),
                               (210.82, 17.10, 6451.10, 569.08)),
}


def high_load_reference(d1, d2):
    """{(queue, class): (mean, variance)} for one cell of the rho = 0.9 grid."""
    ref = {}
    for i, (wl, wh, vl, vh) in enumerate(HIGH_LOAD[(d1, d2)]):
        ref[(i, "L")] = (wl, vl)
        ref[(i, "H")] = (wh, vh)
    return ref
