"""Ground facts and the constants they are built from.

A fact is a predicate name applied to constants. Constants come in three
kinds: integers, symbols (bare lowercase identifiers such as ``failed`` or
``opened``) and strings (quoted, used for IPs and usernames). The same
representation serves as the ground-atom currency of the rule engine.

A :class:`Fact` is a named tuple ``(predicate, args)``: hashing and
comparing one runs in C, and so does building one with :data:`new_tuple`,
as the engine does for each atom it derives. It hashes as the tuple of its
fields and equals the plain tuple of its fields:
``Fact("p", (1,)) == ("p", (1,))``. A :class:`Symbol` stays a class of its
own, since it validates its name and must not equal ``("name",)``; it is
interned, one instance per name, so it compares and hashes by identity.
"""
from __future__ import annotations

import re
from typing import IO, Iterable, NamedTuple, Union

_SYMBOL_RE = re.compile(r"[a-z][A-Za-z0-9_]*\Z")
_SYMBOLS: dict[str, "Symbol"] = {}  # name -> its one instance


class Frozen:
    """A slotted class whose fields ``__init__`` sets once, through
    ``object.__setattr__``: its instances are hashed, so none may change."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), tuple([getattr(self, name) for name in self.__slots__])


class Symbol(Frozen):
    """A bare lowercase identifier constant, distinct from the string kind.

    Symbols are interned: ``Symbol(name)`` returns the one instance made for
    that name, so equality and hashing are identity and run in C. The table
    keeps every name made in the process, as ``sys.intern`` does."""

    __slots__ = ("name",)

    def __new__(cls, name: str) -> Symbol:
        symbol = _SYMBOLS.get(name)
        if symbol is None:
            if not _SYMBOL_RE.match(name):
                raise ValueError(f"invalid symbol: {name!r}")
            symbol = object.__new__(cls)
            object.__setattr__(symbol, "name", name)
            # two threads making one name both get the instance stored first
            symbol = _SYMBOLS.setdefault(name, symbol)
        return symbol

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Symbol({self.name!r})"


# int, Symbol, or str (in serialized form: 42, failed, "218.188.2.4")
Constant = Union[int, Symbol, str]


def constant_key(value: Constant) -> tuple:
    """Sort key for the kind-first total order: integers < symbols < strings."""
    if isinstance(value, bool):
        raise TypeError("booleans are not constants")
    if isinstance(value, int):
        return (0, value)
    if isinstance(value, Symbol):
        return (1, value.name)
    if isinstance(value, str):
        return (2, value)
    raise TypeError(f"not a constant: {value!r}")


def format_constant(value: Constant) -> str:
    """Serialize a constant; strings are double-quoted with backslash escapes."""
    if isinstance(value, bool):
        raise TypeError("booleans are not constants")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Symbol):
        return value.name
    if isinstance(value, str):
        escaped = (value.replace("\\", "\\\\").replace('"', '\\"')
                   .replace("\n", "\\n").replace("\t", "\\t"))
        return f'"{escaped}"'
    raise TypeError(f"not a constant: {value!r}")


#: ``new_tuple(Cls, fields)`` builds a named tuple in C; the class's own
#: ``__new__`` is a Python function. The hot loops that make values use it
#: and pass exactly one item per field, since nothing is checked.
new_tuple = tuple.__new__


class Fact(NamedTuple):
    """A ground atom: predicate name plus constant arguments."""

    predicate: str
    args: tuple[Constant, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.predicate
        return f"{self.predicate}({','.join(format_constant(a) for a in self.args)})"

    def sort_key(self) -> tuple:
        return (self.predicate, tuple(constant_key(a) for a in self.args))


def fact(predicate: str, *args: Constant) -> Fact:
    """Convenience constructor: ``fact("session", "cyrus", 0, Symbol("opened"), t)``."""
    return Fact(predicate, tuple(args))


def format_fact(f: Fact) -> str:
    """One serialized fact statement, terminator included: ``pred(a,b).``"""
    return f"{f}."


def write_facts_file(facts: Iterable[Fact], sink: IO[str]) -> None:
    """Write facts one per line in input order, ``pred(arg1,...,argN).`` each."""
    for f in facts:
        sink.write(format_fact(f))
        sink.write("\n")
