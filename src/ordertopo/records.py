"""Frozen, slotted value records.

``@record`` turns a class whose body annotates its fields into an immutable
value type, the way ``dataclasses.dataclass(frozen=True)`` would, at a
fraction of the cost of defining it:

* the constructor takes the fields positionally or by keyword, in the
  order they are annotated, with the class-body values as defaults, and
  then calls ``__post_init__`` when the class defines one;
* assigning or deleting an attribute raises ``FrozenInstanceError``;
  ``__post_init__`` normalizes a field with ``object.__setattr__``;
* each field is stored once, in its slot;
* ``==`` holds only between instances of the same class with equal fields;
* the hash is the hash of the tuple of field values, stored on first use,
  so a record is hashed once;
* the repr is ``Name(field=value, ...)``, byte-identical to the dataclass
  one;
* ``copy``, ``deepcopy`` and ``pickle`` rebuild a record by calling the
  class on its field values.

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


def _repr(self):
    fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
    return f"{self.__class__.__qualname__}({fields})"


def record(cls):
    """Rebuild ``cls`` as a frozen, slotted record of its annotated fields."""
    ns = dict(cls.__dict__)
    names = tuple(ns.get("__annotations__", {}))
    scope = {f"_d_{name}": ns.pop(name) for name in names if name in ns}  # defaults
    ns.pop("__dict__", None)
    ns.pop("__weakref__", None)
    ns["__qualname__"] = cls.__qualname__
    ns["__slots__"] = names + ("_hash",)
    ns["__match_args__"] = names
    ns.setdefault("__repr__", _repr)
    ns["__setattr__"] = _frozen_setattr
    ns["__delattr__"] = _frozen_delattr

    # the constructor fills each slot through its descriptor; == and the
    # hash read the slots, so no record keeps a second copy of its fields
    params = ["self"] + [f"{n}=_d_{n}" if f"_d_{n}" in scope else n for n in names]
    init = [f"_set_{n}(self, {n})" for n in names] + ["_set__hash(self, None)"]
    if hasattr(cls, "__post_init__"):
        init.append("self.__post_init__()")
    mine = "".join(f"self.{n}, " for n in names)
    theirs = "".join(f"other.{n}, " for n in names)
    exec(f"""
def __init__({', '.join(params)}):
    {'; '.join(init)}
def __eq__(self, other):
    if other.__class__ is self.__class__:
        return ({mine}) == ({theirs})
    return NotImplemented
def __hash__(self):
    h = self._hash
    if h is None:
        h = hash(({mine}))
        _set__hash(self, h)
    return h
def __reduce__(self):
    return (self.__class__, ({mine}))
""", scope)
    for fn in ("__init__", "__eq__", "__hash__", "__reduce__"):
        scope[fn].__qualname__ = f"{cls.__qualname__}.{fn}"
        ns[fn] = scope[fn]
    new = type(cls)(cls.__name__, cls.__bases__, ns)
    scope.update((f"_set_{name}", getattr(new, name).__set__) for name in new.__slots__)
    return new


def replace(obj, **changes):
    """A copy of record ``obj`` with ``changes`` applied; ``__post_init__`` runs again."""
    values = {name: getattr(obj, name) for name in obj.__match_args__}
    values.update(changes)
    return obj.__class__(**values)
