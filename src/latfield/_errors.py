"""Shared exception types, and the value rules the model constructors
apply.

ModelError covers bad model definitions and structural misuse (wrong
dimensions, wrong structure kind, missing tabulated lags, missing
classifier metadata).  A constructor refuses its input with one
ModelError that lists every violation of its fields as (key, message)
pairs, the key naming the field ('' for the object as a whole); the config
parser records each at the document path of the object joined with its
key.  NumericalError covers runtime numerical failures (non-embeddable
covariances, quadrature non-convergence, degenerate statistics).
ConfigError carries the full list of schema violations found while
parsing an experiment config.

A parameter table maps each kind of a model (a covariance family, a phi
kind) to its parameters and the ``check_number`` rule of each (None: a
value that is not a number, checked by its owner).  The model's
constructor checks them with ``set_params``.  The same rules cover
function arguments: each kind of count is one rule (COUNT, CHAOS_ORDER,
SEED, ...), which a public function applies with ``checked_arg``.
"""
import math
import numbers
from collections.abc import Collection

#: the rules of a count that may be 0 (a replicate id) and of one that may not (a size)
COUNT = {"kind": int, "minimum": 0}
POSITIVE_COUNT = {"kind": int, "minimum": 1}


class ModelError(ValueError):
    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = [("", message)] if violations is None else list(violations)


class NumericalError(RuntimeError):
    pass


class ConfigError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def check_number(value, kind=float, positive=False, minimum=None, maximum=None, between=None):
    """``value`` as a ``kind`` (int or float) that passes the rule: positive,
    in [``minimum``, ``maximum``], inside the open interval ``between``, and
    finite; ModelError saying why not.  Booleans are not numbers."""
    if type(value) is not kind:  # a plain int or float is already its kind
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
    if maximum is not None and value > maximum:
        raise ModelError(f"must be at most {maximum}, got {value}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ModelError(f"must be a finite number, got {value}")
    if between is not None and not between[0] < value < between[1]:
        raise ModelError(f"must lie in ({between[0]:g}, {between[1]:g}), got {value}")
    return value


def is_sequence(value) -> bool:
    return isinstance(value, Collection) and not isinstance(value, (str, bytes))


def checked_number(violations, key, value, **rule):
    """``check_number(value, **rule)``, or None once its violation is added
    to ``violations`` at ``key``."""
    try:
        return check_number(value, **rule)
    except ModelError as exc:
        violations.append((key, str(exc)))
        return None


def checked_arg(key, value, rule):
    """The argument ``value`` as ``check_number(value, **rule)`` gives it;
    else a ModelError keyed ``key``, the argument's name."""
    violations = []
    value = checked_number(violations, key, value, **rule)
    refuse(violations)
    return value


def checked_numbers(violations, key, values, **rule):
    """``values`` as a tuple of numbers that each pass ``check_number`` with
    ``rule``, or None once the violation of each that does not is added to
    ``violations`` at ``key[i]``."""
    values = tuple(checked_number(violations, f"{key}[{i}]", value, **rule)
                   for i, value in enumerate(values))
    return None if None in values else values


def refuse(violations, sep=": "):
    """Raise a ModelError listing ``violations``, if there are any; its text
    joins each as key, ``sep``, message."""
    if violations:
        raise ModelError("; ".join(f"{key}{sep}{message}" if key else message
                                   for key, message in violations), violations)


def param_names(table) -> tuple:
    """Every parameter name in ``table``, in table order."""
    return tuple(dict.fromkeys(name for params in table.values() for name in params))


def set_params(obj, table, kind, what) -> list:
    """Check the frozen dataclass ``obj``'s parameters against ``table``,
    store each value that passes its rule on ``obj``, and return the
    (name, message) of each violation: a parameter of ``kind`` that is None
    (not given) or fails its rule, and any other parameter of the table
    that ``obj`` holds, which is not one of ``what``.  A parameter without a
    rule is kept as given."""
    params, violations = table[kind], []
    for name, rule in params.items():
        value = getattr(obj, name)
        if value is None:
            violations.append((name, "missing required key"))
        elif rule is not None:
            value = checked_number(violations, name, value, **rule)
            if value is not None:
                object.__setattr__(obj, name, value)
    for name in param_names(table):
        if name not in params and getattr(obj, name) is not None:
            violations.append((name, f"not a parameter of {what}"))
    return violations
