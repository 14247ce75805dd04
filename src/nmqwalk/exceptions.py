"""Exception types shared across the package."""


class NmqwalkError(Exception):
    """Base class for all package-specific errors."""


class KernelRangeError(NmqwalkError, ValueError):
    """A decoherence kernel value left the physical range [-1, 1]."""


class NonInvertibleMapError(NmqwalkError, ValueError):
    """The dynamical map cannot be inverted because the kernel vanishes."""


class NonPhysicalStateError(NmqwalkError, ValueError):
    """A stepwise state has a negative eigenvalue: it left the set of states."""


class FitError(NmqwalkError, RuntimeError):
    """A fit overflowed: its error or a parameter is not finite."""


class ConfigError(NmqwalkError, ValueError):
    """Experiment configuration is malformed or violates a parameter range."""
