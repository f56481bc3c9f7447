"""Exception types shared across the package, and the shape checks of the
group-file readers."""


def json_int(value, name: str) -> int:
    """value if it is a JSON integer, an int that is not a bool; otherwise a
    ValueError naming the field."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def json_list(value, name: str) -> list:
    """value if it is a JSON array; otherwise a ValueError naming the field."""
    if type(value) is not list:
        raise ValueError(f"{name} must be a list, got {type(value).__name__}")
    return value


def json_field(obj, key: str, name: str):
    """obj[key] if obj, called `name`, is a JSON object that holds key;
    otherwise a ValueError naming both."""
    if type(obj) is not dict:
        raise ValueError(f"{name} must be an object, got {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f"{name} lacks {key!r}")
    return obj[key]


class CommGraphError(Exception):
    """Base class for all errors raised by this package."""


# field layer

class NotPrime(CommGraphError):
    pass


class CapExceeded(CommGraphError):
    pass


class FactorBudgetExceeded(CapExceeded):
    """primes.factorize ran out of Pollard-rho steps."""


class DivisionByZero(CommGraphError):
    pass


class SpecMismatch(CommGraphError):
    pass


class ZeroElement(CommGraphError):
    pass


class NoSuchOrder(CommGraphError):
    pass


# group layer

class BackendMismatch(CommGraphError):
    pass


class NotMember(CommGraphError):
    pass


class NotNormal(CommGraphError):
    pass


# commuting graph layer

class EmptyGraph(CommGraphError):
    pass


class NotAVertex(CommGraphError):
    pass


# witness family layer

class NoSuchParams(CommGraphError):
    pass


class EigenvalueClash(CommGraphError):
    pass


class CheckFailed(CommGraphError):
    def __init__(self, clause, detail=""):
        super().__init__(f"{clause}: {detail}" if detail else clause)
        self.clause = clause
        self.detail = detail


class NotNormalizing(CommGraphError):
    pass


class NotInD(CommGraphError):
    pass


class SymbolicFailure(CommGraphError):
    pass


class PathBroken(CommGraphError):
    def __init__(self, edge_index, detail=""):
        super().__init__(f"edge {edge_index}: {detail}" if detail else f"edge {edge_index}")
        self.edge_index = edge_index
