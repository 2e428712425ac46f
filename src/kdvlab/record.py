"""Bases of the package's record types.

A record's fields are its instance attributes, in the order that its
constructor sets them, all at once by ``self.__dict__.update(...)``
after checking its inputs.  Unlike a dataclass, defining one compiles no code.
"""

__all__ = ["Record", "Frozen"]


class Record:
    """Compared and shown by its fields: equal when the class and every field are."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__name__}({fields})"


class Frozen(Record):
    """An immutable record: hashed by its fields; assigning or deleting one raises."""

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")
