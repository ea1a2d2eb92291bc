"""Exception types shared across the library."""


class ErfApproxError(Exception):
    """Base class for all library errors."""


class WindowEmpty(ErfApproxError):
    """ceil(n*a) > floor(n*b): no sample index lies in [a, b]."""


class PreconditionViolated(ErfApproxError):
    """A stated hypothesis (e.g. n**(1-alpha) >= 3) does not hold."""


class DomainViolation(ErfApproxError):
    """Evaluation point outside the operator's interval."""


class UnboundedFunction(ErfApproxError):
    """A whole-line operator needs a finite sup norm and none was given."""


class InvalidWeights(ErfApproxError):
    """Quadrature weights are negative or do not sum to one."""


class MissingDerivative(ErfApproxError):
    """A required closed-form derivative was not supplied."""


class IntervalViolation(ErfApproxError):
    """Modulus query interval is not contained in the function's domain."""


class CriticalPointViolated(ErfApproxError):
    """Critical-point bound mode requires vanishing derivatives at x0."""


class DegenerateFit(ErfApproxError):
    """Rate fit needs >= 3 points with positive errors and distinct n."""


class ConfigError(ErfApproxError):
    """Experiment configuration is malformed."""

    def __init__(self, field, message):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")


class ExprError(ErfApproxError):
    """Base class for expression-language errors."""


class ExprSyntaxError(ExprError):
    """Parse failure; carries the byte offset of the offending token."""

    def __init__(self, message, offset):
        self.offset = offset
        super().__init__(f"{message} (at offset {offset})")


class UnknownFunction(ExprError):
    """Function name not in the expression language."""


class DivisionByZero(ExprError):
    """Division node evaluated with a zero denominator."""


class NonDifferentiable(ExprError):
    """Symbolic differentiation refused (abs nodes)."""
