"""Records as plain classes: each names its fields in order in ``__match_args__``
and sets them in its own ``__init__``.  ``Record`` compares by class and field
tuple, prints ``Name(field=value, ...)`` and does not hash, as a mutable
``@dataclass`` does; ``FrozenRecord`` hashes its field tuple and refuses
assignment and deletion, as a frozen one does, so its ``__init__`` sets fields
with ``set_field``.  (``dataclasses`` cost about a fifth of a CLI start.)"""

set_field = object.__setattr__


class Record:
    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    __hash__ = None

    def _field_values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._field_values() == other._field_values()  # `is` first, as tuples do
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._field_values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
