"""Shared exception types, and the config field checks that raise them."""

import math


class InputError(ValueError):
    """A value is out of range, non-finite, or otherwise unusable."""


class ConfigurationError(ValueError):
    """A configuration combination is invalid."""


def is_finite_number(value) -> bool:
    """A finite int or float. Booleans are not numbers here, nor is an int
    too large to convert to a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _bounds(low, high) -> str:
    if high != math.inf:
        return f" in [{low}, {high}]"
    return "" if low == -math.inf else f" >= {low}"


def check_int_fields(config, fields) -> None:
    """Reject, by name, the first of `fields` ((name, low, high) triples) whose
    value on `config` is not an integer in [low, high]; booleans are not
    integers here."""
    for name, low, high in fields:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, int) or not low <= value <= high:
            raise ConfigurationError(f"{name} must be an integer{_bounds(low, high)}, got {value!r}")


def check_number_fields(config, fields) -> None:
    """Reject, by name, the first of `fields` ((name, low, high) triples) whose
    value on `config` is not a finite int or float in [low, high]."""
    for name, low, high in fields:
        value = getattr(config, name)
        if not is_finite_number(value) or not low <= value <= high:
            raise ConfigurationError(
                f"{name} must be a finite number{_bounds(low, high)}, got {value!r}"
            )


def check_noise_rates(fp_name: str, fp, fn_name: str, fn) -> None:
    """Reject, by name, a verifier's false-positive and false-negative rates
    unless each is a finite number in [0, 1) and they sum below 1, so that
    the verifier stays informative."""
    for name, value in ((fp_name, fp), (fn_name, fn)):
        if not is_finite_number(value) or not 0.0 <= value < 1.0:
            raise ConfigurationError(f"{name} must be a finite number in [0, 1), got {value!r}")
    if fp + fn >= 1.0:
        raise ConfigurationError(
            f"{fp_name} + {fn_name} must stay below 1 (verifier must be informative)"
        )
