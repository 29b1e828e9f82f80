"""Exception types shared across the package, the two number predicates
that every check of a setting uses, and the checks of a seed and a size."""

import math
import numbers
import sys


class CdnnError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(CdnnError, ValueError):
    """Input dimensions do not match what the model or operation expects."""


class StaleCacheError(CdnnError, RuntimeError):
    """A forward cache was reused after the network parameters changed."""


class TrainingDivergenceError(CdnnError, RuntimeError):
    """Training produced a non-finite loss or gradient."""

    def __init__(self, message, epoch=None, step=None):
        super().__init__(message)
        self.epoch = epoch
        self.step = step


class DegenerateTreatmentError(CdnnError, ValueError):
    """Both treatment arms are required but only one is present."""


class DegenerateArmError(CdnnError, ValueError):
    """A treatment arm has too few samples for the requested fit."""


class ConfigError(CdnnError, ValueError):
    """Invalid configuration value, file, or combination."""


class SchemaError(CdnnError, ValueError):
    """A data file does not match the expected CSV schema."""

    def __init__(self, message, row=None):
        if row is not None:
            message = f"{message} (row {row})"
        super().__init__(message)
        self.row = row


class SplitError(CdnnError, ValueError):
    """Requested split fractions leave some part empty or are invalid."""


class OverlapError(CdnnError, ValueError):
    """Treatment assignment is (near-)deterministic; residual variance vanished."""


class InvalidPerturbationError(CdnnError, ValueError):
    """A nuisance perturbation pushes the propensity outside (0, 1)."""


class IdentityViolationError(CdnnError, RuntimeError):
    """A fitted model broke a stage contract: stage-1 treatment edges that
    moved away from 0, or a frozen stage-2 entry that is not stage 1's."""


def _is_count(value, least=1):
    """An integer >= least (a bool is not one)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least


def _is_finite_number(value):
    """A real number with a finite float value (a bool is not one)."""
    try:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an integer past the float range
        return False


def _check_seed(seed):
    """ConfigError unless `seed` is a nonnegative integer: the one rule for a
    seed, checked before it reaches numpy."""
    if not _is_count(seed, least=0):
        raise ConfigError("seed must be a nonnegative integer")


def _check_size(name, value):
    """ConfigError unless the size `value` fits the index range, so that an
    array of it can be asked for at all."""
    if value > sys.maxsize:
        raise ConfigError(f"bad config value: {name} must be at most {sys.maxsize}, got {value}")
