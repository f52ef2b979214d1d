"""Shared exception types, and the parameter rules whose violations they
report.

ModelError covers bad model definitions and structural misuse (wrong
dimensions, wrong structure kind, missing tabulated lags, missing
classifier metadata).  NumericalError covers runtime numerical failures
(non-embeddable covariances, quadrature non-convergence, degenerate
statistics).  ConfigError carries the full list of schema violations
found while parsing an experiment config.

A parameter table maps each kind of a model (a covariance family, a phi
kind) to its parameters and the ``check_number`` rule of each (None: a
value that is not a number, checked by its owner).  The model's
constructor and the config parser both walk it with ``check_params``.
"""
import math
import numbers


class ModelError(ValueError):
    pass


class NumericalError(RuntimeError):
    pass


class ConfigError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def check_number(value, kind=float, positive=False, minimum=None, between=None):
    """``value`` as a ``kind`` (int or float) that passes the rule: positive,
    at least ``minimum``, inside the open interval ``between``, and finite;
    ModelError saying why not.  Booleans are not numbers."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ModelError(f"expected a number, got {type(value).__name__}")
    if (kind is int and not isinstance(value, numbers.Integral)
            and not float(value).is_integer()):
        raise ModelError(f"must be an integer, got {value}")
    try:
        value = kind(value)
    except OverflowError:
        raise ModelError("must be a finite number, got an integer too large "
                         "for a float") from None
    if positive and value <= 0:
        raise ModelError(f"must be positive, got {value}")
    if minimum is not None and value < minimum:
        raise ModelError(f"must be at least {minimum}, got {value}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ModelError(f"must be a finite number, got {value}")
    if between is not None and not between[0] < value < between[1]:
        raise ModelError(f"must lie in ({between[0]:g}, {between[1]:g}), got {value}")
    return value


def param_names(table) -> tuple:
    """Every parameter name in ``table``, in table order."""
    return tuple(dict.fromkeys(name for params in table.values() for name in params))


def check_params(table, kind, values, what):
    """The parameters ``table`` gives ``kind``, read from the mapping
    ``values``, and the (name, message) of each violation: a parameter of
    ``kind`` that is missing (or None) or fails its rule, and any other
    parameter of the table that ``values`` holds, which is not one of
    ``what``.  A parameter without a rule is passed through as given."""
    params = table[kind]
    checked, violations = {}, []
    for name, rule in params.items():
        value = values.get(name)
        if value is None:
            violations.append((name, "missing required key"))
        elif rule is None:
            checked[name] = value
        else:
            try:
                checked[name] = check_number(value, **rule)
            except ModelError as exc:
                violations.append((name, str(exc)))
    for name in param_names(table):
        if name in values and name not in params:
            violations.append((name, f"not a parameter of {what}"))
    return checked, violations


def set_params(obj, table, kind, what):
    """Check the frozen dataclass ``obj``'s parameters against ``table`` with
    ``check_params`` (a None attribute is not given), refuse any violation,
    and store each checked value on ``obj``."""
    values = {name: getattr(obj, name) for name in param_names(table)
              if getattr(obj, name) is not None}
    checked, violations = check_params(table, kind, values, what)
    if violations:
        raise ModelError("; ".join(f"{name}: {message}" for name, message in violations))
    for name, value in checked.items():
        object.__setattr__(obj, name, value)
