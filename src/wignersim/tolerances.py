"""The numerical contract: every tolerance of the package, each named once.

Modules read a value through this module at call time (``from . import
tolerances as tol`` … ``tol.ATOL_DIST``), never through a copy of it, so
setting one here moves every verdict and message that uses it.  A bound is
written as ``not (x <= tol)``, which NaN fails.
"""

# Construction: |norm² − 1|, |trace − 1|, Hermitian skew, projector idempotence.
ATOL_CONSTRUCT = 1e-12
# How far below 0 an eigenvalue of a density or a Born probability may lie.
ATOL_PSD = 1e-10
# How far above 1 a Born probability may lie.
ATOL_PROB = 1e-9
# Amplitudes and imaginary parts this small print as zero: rounding noise.
PRINT_ZERO = 1e-12
# The unit roundoff u of an IEEE double, in the Gram product's rounding bound.
UNIT_ROUNDOFF = 2.0**-53
# max |V†V − 1| of an isometry.
ATOL_ISOMETRY = 1e-12
# A child this improbable given its parent is dropped: it is rounding noise,
# which a reader normalizing it would blow up into a unit-norm state.
BRANCH_CUT = 1e-12
# max |⟨a|b⟩ − δ_ab| of a measurement basis.
ATOL_ORTHO = 1e-9
# Basis completion keeps a Gram–Schmidt residual of norm above this.
COMPLETION_RESIDUAL = 1e-6
# |sum − 1| of a joint distribution or of a conditional column.
ATOL_DIST = 1e-9
# A readout cell at or below this is zero.
SUPPORT_EPS = 1e-15
# An event at or below this cannot be conditioned on; a cell may lie this far below 0.
CONDITION_EPS = 1e-12
# A rule needs its column's point mass within this of 1.
CERTAINTY_SLACK = 1e-9
# A Deutsch answer bit reads 1 when P(phi-) exceeds this: far above the
# float noise of an exact zero, far below every possible outcome's weight.
POSSIBILITY = 1e-9


def _spelled(tol: float) -> str:
    """A tolerance as error messages spell it: ``1e-9`` where repr gives ``1e-09``."""
    return repr(tol).replace("e-0", "e-")
