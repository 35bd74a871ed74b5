"""Exception types shared across the package.

Every error raised by fedarena derives from FedArenaError so callers can
catch simulator failures without swallowing unrelated bugs.
"""


class FedArenaError(Exception):
    """Base class for all fedarena errors."""


# vector / geometry layer
class DimensionMismatch(FedArenaError):
    pass


class DegenerateGradient(FedArenaError):
    pass


# model layer
class InvalidShapes(FedArenaError):
    pass


class EmptyBatch(FedArenaError):
    pass


# data layer
class InvalidConfig(FedArenaError):
    """A rejected config value; `path` names its ExperimentConfig field
    (dotted, e.g. "rule.kind") when the value came from one."""

    def __init__(self, message: str, path: str | None = None):
        super().__init__(message)
        self.path = path


class ParseError(FedArenaError):
    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row


class EmptyFile(FedArenaError):
    pass


class TooManyClients(FedArenaError):
    pass


class TooFewClients(FedArenaError):
    pass


class InvalidBeta(FedArenaError):
    pass


class InsufficientData(FedArenaError):
    pass


# aggregation layer
class WeightMismatch(FedArenaError):
    pass


class EmptyInput(FedArenaError):
    pass


class TrimTooLarge(FedArenaError):
    pass


class InvalidKrumParams(FedArenaError):
    pass


class InvalidK(FedArenaError):
    pass


class EmptyValidationSet(FedArenaError):
    pass


# attack layer
class SingleClassDataset(FedArenaError):
    pass


class TooFewReferences(FedArenaError):
    pass


class EmptyMaskBudget(FedArenaError):
    pass


# engine layer
class InvalidC(InvalidConfig):
    pass


class EmptyHistory(FedArenaError):
    pass


class EmptySet(FedArenaError):
    pass


# theory layer
class InvalidParams(FedArenaError):
    pass


# cli layer
class ConfigError(FedArenaError):
    def __init__(self, key: str, message: str = ""):
        detail = f": {message}" if message else ""
        super().__init__(f"config key '{key}'{detail}")
        self.key = key
