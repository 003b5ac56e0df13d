"""The records a distance computation returns, shared by the plane and the torus.

Named tuples with no numerics, so a report that needs no optimizer or box norm (every
torus certificate and closed form) is built without loading numpy.  Not dataclasses: the
dataclasses module imports inspect, and each dataclass execs generated source at every
import, a start-up cost every job would pay.
"""

from __future__ import annotations

from collections import namedtuple


class OptimizeResult(namedtuple(
        "OptimizeResult", "value iterations converged feasibility_residual order")):
    # order: the plane's truncation order, the torus's box radius
    __slots__ = ()


class DistanceReport(namedtuple(
        "DistanceReport",
        "theta order state_a state_b certificate_lower certificate_id closed_form "
        "analytic_upper optimizer_lower iterations feasibility_residual converged divergence",
        defaults=(None,) * 7)):
    """Bracketed distance estimate with the provenance of each bound."""

    __slots__ = ()

    @classmethod
    def of(cls, s1, s2, order, certificate_lower, certificate_id, closed_form, analytic_upper,
           res=None, divergence=None):
        """The report on states s1 and s2, which give theta and the spec strings; the four
        optimizer fields come from the OptimizeResult res, all None where no optimizer ran."""
        return cls(s1.theta, order, s1.spec_string(), s2.spec_string(), certificate_lower,
                   certificate_id, closed_form, analytic_upper,
                   *((res.value, res.iterations, res.feasibility_residual, res.converged)
                     if res else (None,) * 4), divergence)

    @property
    def bracket_width(self) -> float | None:
        if self.analytic_upper is None:
            return None
        return self.analytic_upper - max(self.certificate_lower, self.optimizer_lower or 0.0)

    def to_dict(self) -> dict:
        return {**self._asdict(), "bracket_width": self.bracket_width}
