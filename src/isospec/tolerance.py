"""The tolerance policy: every float threshold, named by its role, and the verdict.

A question on rational values is decided exactly.  A float side (a float
chain's value, a Jacobi eigenvalue or eigenvector) gets the slack named here.
"""

from __future__ import annotations

from fractions import Fraction

ROW_SUM = 1e-12              # a float kernel row may miss a unit sum by this
INPUT = 1e-10                # a supplied float pi, a family's L1 norm, a frame's orthonormality
JACOBI_OFFDIAG = 1e-12       # the Jacobi sweeps stop below this off-diagonal norm
ZERO = 1e-10                 # a float eigenvector entry this small has no sign
CLUSTER = 1e-8               # eigenvalues this close are flagged degenerate
VERDICT = 1e-9               # slack of a verdict with a float side
# Relative and absolute slack of the minimizer's float pruning filter.  A bound
# is a float sum of at most n + 1 correctly rounded nonnegative terms, so its
# relative error is below (n + 2) * 2**-53, under 1e-14 for any n a 2^V table
# can hold; 1e-9 leaves five orders of magnitude between that error and a prune.
PRUNE_MARGIN = 1e-9


def is_exact(*values):
    """True when every value is rational: a Fraction or an int, not a bool."""
    return all(isinstance(x, (Fraction, int)) and not isinstance(x, bool) for x in values)


def at_most(a, b):
    """The verdict a <= b: exact when both sides are rational, else with VERDICT slack."""
    return a <= b if is_exact(a, b) else a <= b + VERDICT


def signed(f):
    """The entries of f whose sign counts: a float within ZERO of 0 becomes 0."""
    return list(f) if is_exact(*f) else [0 if abs(x) <= ZERO else x for x in f]
