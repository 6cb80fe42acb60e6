"""Numeric tolerance policy, pinned in one place.

Matrix residual checks use a base epsilon scaled by the valency; the
balanced-set sweep uses a looser relative threshold because each instance
aggregates up to a sphere's worth of summands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    matrix_eps_base: float = 1e-8   # matrix residuals, scaled by max(1, k)
    integer_snap: float = 1e-6      # snap eigenvalues this close to integers
    mult_round: float = 1e-6        # allowed |multiplicity - integer|, scaled by n
    balanced_rel: float = 1e-6      # relative residual for the balanced-set sweep
    dual_zero_snap: float = 1e-9    # dual values this close to 0 count as 0

    def matrix_eps(self, k: float) -> float:
        return self.matrix_eps_base * max(1.0, k)

    def with_override(self, tolerance: float | None) -> "Tolerances":
        """CLI knob: one value overrides both residual thresholds.  It must be
        finite and positive: NaN and inf pass every residual, 0 fails all."""
        if tolerance is None:
            return self
        if not (math.isfinite(tolerance) and tolerance > 0):
            raise ValueError(f"--tolerance must be a finite positive number, got {tolerance}")
        return replace(self, matrix_eps_base=tolerance, balanced_rel=tolerance)


DEFAULT_TOLERANCES = Tolerances()
