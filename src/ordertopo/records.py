"""Frozen, slotted value records.

``@record`` turns a class whose body annotates its fields into an immutable
value type, the way ``dataclasses.dataclass(frozen=True)`` would, at a
fraction of the cost of defining it:

* the constructor takes the fields positionally or by keyword, in the
  order they are annotated, with the class-body values as defaults, and
  then calls ``__post_init__`` when the class defines one;
* assigning or deleting an attribute raises ``FrozenInstanceError``;
  ``__post_init__`` normalizes a field with ``object.__setattr__``;
* ``==`` holds only between instances of the same class with equal fields;
* the hash is the hash of the field tuple; the constructor stores that
  tuple after ``__post_init__``, so ``==`` builds no tuple, and the hash is
  stored on first use, so a record is hashed once;
* the repr is ``Name(field=value, ...)``, byte-identical to the dataclass
  one.

``__match_args__`` holds the field names; ``replace`` copies a record with
some fields changed.
"""

from __future__ import annotations


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, an attribute of a record."""


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _eq(self, other):
    if other.__class__ is self.__class__:
        return self._values == other._values
    return NotImplemented


def _stored_hash(self):
    h = self._hash
    if h is None:
        h = hash(self._values)
        object.__setattr__(self, "_hash", h)
    return h


def _repr(self):
    fields = zip(self.__match_args__, self._values)
    return f"{self.__class__.__qualname__}({', '.join(f'{n}={v!r}' for n, v in fields)})"


def record(cls):
    """Rebuild ``cls`` as a frozen, slotted record of its annotated fields."""
    ns = dict(cls.__dict__)
    names = tuple(ns.get("__annotations__", {}))
    scope = {f"_d_{name}": ns.pop(name) for name in names if name in ns}  # defaults
    ns.pop("__dict__", None)
    ns.pop("__weakref__", None)
    ns["__qualname__"] = cls.__qualname__
    if names:
        ns["__slots__"] = names + ("_values", "_hash")
    else:  # every instance has the same, empty field tuple
        ns["__slots__"] = ()
        ns["_values"] = ()
        ns["_hash"] = hash(())
    ns["__match_args__"] = names
    ns["__eq__"] = _eq
    ns["__hash__"] = _stored_hash
    ns.setdefault("__repr__", _repr)
    ns["__setattr__"] = _frozen_setattr
    ns["__delattr__"] = _frozen_delattr
    new = type(cls)(cls.__name__, cls.__bases__, ns)

    # one small constructor: each slot is filled through its descriptor, and
    # the field tuple is stored once __post_init__ has normalized the fields
    params = ["self"] + [f"{n}=_d_{n}" if f"_d_{n}" in scope else n for n in names]
    scope.update((f"_set_{name}", getattr(new, name).__set__) for name in new.__slots__)
    body = [f"_set_{name}(self, {name})" for name in names]
    if names:
        body.append("_set__hash(self, None)")
    if hasattr(new, "__post_init__"):
        body.append("self.__post_init__()")
    if names:
        body.append(f"_set__values(self, ({''.join(f'self.{name}, ' for name in names)}))")
    exec(f"def __init__({', '.join(params)}):\n    " + "\n    ".join(body or ["pass"]), scope)
    new.__init__ = scope["__init__"]
    new.__init__.__qualname__ = f"{new.__qualname__}.__init__"
    return new


def replace(obj, **changes):
    """A copy of record ``obj`` with ``changes`` applied; ``__post_init__`` runs again."""
    values = {name: getattr(obj, name) for name in obj.__match_args__}
    values.update(changes)
    return obj.__class__(**values)
