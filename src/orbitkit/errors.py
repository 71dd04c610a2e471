"""Exception hierarchy shared by all orbitkit modules."""


class OrbitkitError(Exception):
    """Base class for every error raised by orbitkit."""


class DimensionMismatch(OrbitkitError):
    pass


class AntisymmetryViolation(OrbitkitError):
    pass


class JacobiViolation(OrbitkitError):
    """Jacobi identity fails on a basis triple; carries the witness."""

    def __init__(self, i, j, k, defect, names=None):
        self.triple = (i, j, k)
        self.defect = tuple(defect)
        label = f"({i},{j},{k})" if names is None else f"({names[i]},{names[j]},{names[k]})"
        shown = ", ".join(map(str, self.defect))
        super().__init__(f"Jacobi identity fails on triple {label}, defect ({shown})")


class NotSubalgebra(OrbitkitError):
    pass


class NotIdeal(OrbitkitError):
    pass


class NotCoabelianIdeal(OrbitkitError):
    pass


class NonRationalSpectrum(OrbitkitError):
    """An adjoint (or flow) matrix has eigenvalues outside the Gaussian rationals."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class FlagInvalid(OrbitkitError):
    pass


class PreconditionFailed(OrbitkitError):
    pass


class NonlinearExponentSubstitution(OrbitkitError):
    pass


class InconsistentExponentialAssignment(OrbitkitError):
    pass


class InvariantNotVanishing(OrbitkitError):
    pass


class RepCheckFailed(OrbitkitError):
    pass


class ParseError(OrbitkitError):
    """Positioned error while reading an algebra definition file."""

    def __init__(self, line, col, message):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}")
