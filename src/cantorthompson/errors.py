"""Exception types shared across the package.

User-input problems raise subclasses of :class:`InputError`; horizon
failures (a computation that cannot be certified within the requested
depth/horizon) raise subclasses of :class:`HorizonError`.  The CLI maps
these to exit codes 1 and 2 respectively.
"""


class CantorThompsonError(Exception):
    pass


class InputError(CantorThompsonError):
    pass


class HorizonError(CantorThompsonError):
    pass


class NotStandard(InputError):
    """Interval is not a standard dyadic interval [k/2^n, (k+1)/2^n]."""


class NotStandardPartition(InputError):
    """Partition points do not cut [0,1] into standard dyadic intervals."""


class NotThompson(InputError):
    """PL data has a slope that is not a power of 2 or a non-dyadic breakpoint."""


class OutOfDomain(InputError):
    """Evaluation point lies outside [0,1)."""


class IndexOutOfRange(InputError):
    """Cantor interval/gap/circle index out of range at the given depth."""


class DegenerateParams(InputError):
    """Cantor parameters degenerate (some q_n outside (0,1))."""


class NotAPartition(InputError):
    """Curve set whose intervals do not partition [0,1]."""


class Malformed(InputError):
    """Combinatorial mapping class violates its invariants."""


class WordTooLong(InputError):
    """Word whose size, the sum of |exponent| over its letters, exceeds the limit."""


class NumericalBreakdown(CantorThompsonError):
    """|mu| >= 1 at a sample: the map data is not quasiconformal."""


class NotFoundWithinHorizon(HorizonError):
    """No depth d <= maxdepth satisfies K*L(d) < delta(omega)."""


class HorizonTooSmall(HorizonError):
    """A tail-emptiness certificate cannot be issued at this horizon."""
