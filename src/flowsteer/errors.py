"""Exception types shared across the toolkit."""

from __future__ import annotations


class FlowsteerError(Exception):
    """Base class for all toolkit failures."""


class FieldConstructionError(FlowsteerError):
    """A field constructor was given inconsistent or insufficient data."""


class ConfigError(FlowsteerError):
    """A run configuration failed schema validation."""


class IntegrationError(FlowsteerError):
    """The adaptive stepper could not continue (step underflow, blowup).

    Carries the last valid time and state so callers can diagnose.
    """

    def __init__(self, message, t=None, state=None):
        super().__init__(message)
        self.t = t
        self.state = state


class ScheduleError(FlowsteerError):
    """Control schedules with gaps, overlaps, or bad segment spans."""


class TargetOutOfRange(FlowsteerError):
    """Endpoint steering asked to reach a target outside its radius."""

    def __init__(self, distance, rho):
        super().__init__(
            f"target at distance {distance:.6g} but steering radius is {rho:.6g}"
        )
        self.distance = distance
        self.rho = rho


class NoReturnFound(FlowsteerError):
    """No near-return found inside the search horizon.

    ``best_miss`` is the smallest recorded distance, ``best_candidate`` the
    start it was achieved from; raising the horizon is the usual remedy.
    """

    def __init__(self, message, best_miss=None, best_candidate=None, best_time=None):
        super().__init__(message)
        self.best_miss = best_miss
        self.best_candidate = best_candidate
        self.best_time = best_time


class NoTransitFound(FlowsteerError):
    """No orbit from the start ball reached the target ball in time.

    Carries closest-approach diagnostics.
    """

    def __init__(self, message, closest=None, at_time=None, from_start=None):
        super().__init__(message)
        self.closest = closest
        self.at_time = at_time
        self.from_start = from_start


class ResidualTooLarge(FlowsteerError):
    """Weighted-divergence residual of a corrected field exceeds tolerance."""


class EpsilonUnreachable(FlowsteerError):
    """Field correction could not be made small enough within the cap."""


class DegenerateBudget(FlowsteerError):
    """No admissible deformation scale exists above the floor."""


class HypothesisViolation(FlowsteerError):
    """A construction hypothesis (for instance a displacement cap) fails.

    ``required`` carries the bound that the inputs must satisfy.
    """

    def __init__(self, message, required=None):
        super().__init__(message)
        self.required = required


class VMDViolation(FlowsteerError):
    """The field failed the vanishing-mean-drift gate."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class BudgetExceeded(FlowsteerError):
    """An audited planner bound failed; the message names the inequality."""


class SupportOverlap(FlowsteerError):
    """Correction balls overlap or could not be made disjoint."""
