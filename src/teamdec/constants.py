"""Numeric tolerances and caps used throughout the package.

Every tolerance that appears in a public contract lives here so reports
can embed the full set in force.
"""

# Input probability masses may be off by this much before normalization
# is refused; within it, vectors are divided by their sum.
INPUT_MASS_TOL = 1e-9

# Exact-identity checks on probabilities and conditionals.
EQ_TOL = 1e-12

# Expected-cost agreement between a problem and its static reduction.
REDUCTION_TOL = 1e-10

# For checking a `solve --method mixture-lp` value against an independent
# scan.  No library code compares with it; reports carry it as lp_tol.
LP_TOL = 1e-9

# Two profile costs within this much (relative to max(1, |optimum|)) tie;
# exhaustive scans report the first tying profile in lexicographic order.
TIE_TOL = 1e-12

# Midpoint convexity slack on grids, and the margin rate for the separate
# strictness report (margin >= STRICT_RATE * squared distance).
MIDPOINT_TOL = 1e-9
STRICT_RATE = 1e-9

# Stationarity: central finite-difference step and the gradient-norm gate.
FD_STEP = 1e-5
STATIONARITY_TOL = 1e-6

# A sampled variational inequality refutes optimality below this floor.
KRAINAK_TOL = 1e-8

# Default cap on enumerations (deterministic profiles, joint table cells).
ENUM_CAP = 10**6

# Cells allowed in a materialized joint or reduced table.
TABLE_CAP = 2 * 10**7


def tolerances() -> dict:
    """All constants above, keyed by name, for embedding into reports."""
    return {name.lower(): v for name, v in globals().items() if name.isupper()}
