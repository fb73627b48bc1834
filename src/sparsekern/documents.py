"""One JSON document format for the package's configuration and result types.

A ``Document`` dataclass saves each field under its own name: arrays as
nested lists, ``Document`` fields as nested documents, and ``None`` fields
left out.  ``from_dict`` is the one reader of every such file.  It raises a
``ConfigError`` naming the class and the key for an unknown key, a JSON
boolean anywhere in a value (no field takes one, and ``True`` would pass for
1), a non-number in a field typed ``float`` or ``int`` (``None`` only where
the field is optional), and a non-integer in an ``int`` field; an integral
float for an ``int`` field becomes an int.  It then calls ``cls(**d)`` with
the nested documents rebuilt first, so each class's ``__post_init__``
converts and validates the rest, and a missing key is a ``TypeError``.
"""

from __future__ import annotations

import json
import typing
from dataclasses import fields

import numpy as np

from .errors import ConfigError


class Document:
    def to_dict(self) -> dict:
        doc = {}
        for f in fields(self):
            val = getattr(self, f.name)
            if isinstance(val, Document):
                val = val.to_dict()
            elif isinstance(val, np.ndarray):
                val = val.tolist()
            if val is not None:
                doc[f.name] = val
        return doc

    @classmethod
    def from_dict(cls, d: dict):
        hints = typing.get_type_hints(cls)
        kw = {}
        for key, val in d.items():
            if key not in hints:
                raise ConfigError(f"{cls.__name__} has no field {key!r}")
            if _holds_bool(val):
                raise ConfigError(f"{cls.__name__} field {key!r} must not be a boolean, got {val!r}")
            kinds = typing.get_args(hints[key]) or (hints[key],)  # float | None gives both
            integer = int in kinds
            if (integer or float in kinds) and not (val is None and type(None) in kinds):
                if not isinstance(val, (int, float)) or integer and not float(val).is_integer():
                    kind = "an integer" if integer else "a number"
                    raise ConfigError(f"{cls.__name__} field {key!r} must be {kind}, got {val!r}")
                val = int(val) if integer else val
            elif isinstance(hints[key], type) and issubclass(hints[key], Document):
                val = hints[key].from_dict(val)
            kw[key] = val
        return cls(**kw)


def _holds_bool(val) -> bool:
    if isinstance(val, list):
        return any(_holds_bool(v) for v in val)
    return isinstance(val, bool)


def save_json(doc: dict, path) -> None:
    """Write a ``to_dict`` document as one line of key-sorted JSON."""
    # json.dumps takes the C encoder, which json.dump never does
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True) + "\n")


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
