"""The one exception class for bad parameters.

``UsageError`` marks a caller's parameter that no computation can satisfy
(a size, a sample count, a point set); the command line maps it to exit
code 2.  Numerical failures keep their own classes and exit code 1.
"""


class UsageError(ValueError):
    """A parameter is out of its supported range."""
