"""The base of the package's immutable value classes (specs, transfer
functions, series, sweeps, ladder elements).

It gives what a frozen dataclass would, read off one tuple of field names
per class. The dataclasses module imports inspect and compiles six methods
for each class it decorates, a cost that every CLI process paid at start-up.
"""


class Value:
    """Fields are listed in order in `_fields`, stored in the instance
    __dict__ once, by the subclass's __init__ through _set, and never
    assigned again. Instances of one class are equal when their
    `_compared` fields (every field unless the class lists fewer) are, and
    hash as the tuple of those fields; an instance of another class is
    NotImplemented. The repr shows every field."""

    _fields: tuple = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls.__match_args__ = cls._fields
        if "_compared" not in vars(cls):
            cls._compared = cls._fields

    def _set(self, *values):
        self.__dict__.update(zip(self._fields, values))

    def _key(self) -> tuple:
        return tuple([self.__dict__[name] for name in self._compared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
