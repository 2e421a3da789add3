"""Shared verification-report type."""

from collections import namedtuple

_REPORT_FIELDS = "name passed checks worst_residual counterexample details"


class VerificationReport(namedtuple("VerificationReport", _REPORT_FIELDS)):
    """Outcome of one numerical verification run.

    passed is true exactly when no counterexample was found; worst_residual is
    check-specific (an inequality margin, a maximum relative residual, ...)
    and is documented by the producing operation.  details carries auxiliary
    values for human inspection and is not part of the serialized schema;
    each report gets its own details dict unless one is passed.
    """

    __slots__ = ()

    def __new__(cls, name, passed, checks, worst_residual, counterexample=None, details=None):
        if passed != (counterexample is None):
            raise ValueError("passed must hold exactly when counterexample is absent")
        details = {} if details is None else details
        return tuple.__new__(cls, (name, passed, checks, worst_residual, counterexample, details))

    _make = classmethod(lambda cls, it: cls(*it))  # validates, and so does _replace

    @classmethod
    def of(cls, suite, params, checks, worst_residual, counterexample=None, details=None):
        """The report of one run, named suite(k=v, ...) from the dict params
        in order: a str value as it is and any other by repr, so that
        distinct inputs get distinct names.  passed is counterexample is None."""
        args = ", ".join(f"{k}={v if isinstance(v, str) else repr(v)}" for k, v in params.items())
        passed = counterexample is None
        return cls(f"{suite}({args})", passed, checks, worst_residual, counterexample, details)

    def to_schema(self) -> dict:
        """Fixed-field-order mapping matching the CLI JSON report schema."""
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": self.checks,
            "worst_residual": self.worst_residual,
            "counterexample": self.counterexample,
        }
