"""Exception hierarchy shared by all modules."""


class WiretapNCError(Exception):
    """Base class for all library errors."""


class EntryOutOfRange(WiretapNCError, ValueError):
    """A field element or matrix entry outside [0, q)."""


class MalformedInput(WiretapNCError):
    """An input file or argument that is not the JSON the command expects."""


class NonPrimeCharacteristic(WiretapNCError):
    pass


class CapExceeded(WiretapNCError):
    """An instance above a resource cap; the message names the cap's constant."""


class FieldMismatch(WiretapNCError):
    pass


class DivisionByZero(WiretapNCError):
    pass


class DimensionMismatch(WiretapNCError):
    pass


class SingularMatrix(WiretapNCError):
    def __init__(self, message, rank=None):
        super().__init__(message)
        self.rank = rank


class LengthExceedsField(WiretapNCError):
    pass


class ExtensionTooSmall(WiretapNCError):
    pass


class UnknownNode(WiretapNCError):
    pass


class AcyclicityViolated(WiretapNCError):
    pass


class InsufficientCut(WiretapNCError):
    def __init__(self, message, receiver=None):
        super().__init__(message)
        self.receiver = receiver


class SingularDecodingMatrix(WiretapNCError):
    pass


class BadParameters(WiretapNCError):
    pass


class BudgetExceedsCut(WiretapNCError):
    pass


class FieldTooSmall(WiretapNCError):
    def __init__(self, message, edge=None, bound=None):
        super().__init__(message)
        self.edge = edge
        self.bound = bound


class BadBudgets(WiretapNCError):
    pass


class CutNotInvertible(WiretapNCError):
    pass


class InvariantViolated(WiretapNCError):
    """A result failed its own final check; `witness` shows where."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
