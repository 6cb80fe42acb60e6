"""Numeric tolerance policy, pinned in one place.

Matrix residual checks use a base epsilon scaled by the valency; the
balanced-set sweep uses a looser relative threshold because each instance
aggregates up to a sphere's worth of summands.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    matrix_eps_base: float = 1e-8   # matrix residuals, scaled by max(1, k)
    eig_rel: float = 1e-12          # relative width for eigenvalue bisection
    integer_snap: float = 1e-6      # snap eigenvalues this close to integers
    mult_round: float = 1e-6        # allowed |multiplicity - integer|, scaled by n
    balanced_rel: float = 1e-6      # relative residual for the balanced-set sweep
    dual_zero_snap: float = 1e-9    # dual values this close to 0 count as 0

    def matrix_eps(self, k: float) -> float:
        return self.matrix_eps_base * max(1.0, k)

    def with_override(self, tolerance: float | None) -> "Tolerances":
        """CLI knob: one value overrides both residual thresholds."""
        if tolerance is None:
            return self
        return replace(self, matrix_eps_base=tolerance, balanced_rel=tolerance)


DEFAULT_TOLERANCES = Tolerances()
