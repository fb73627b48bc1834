"""One JSON document format for the package's configuration and result types.

A ``Document`` dataclass saves each field under its own name: arrays as
nested lists, ``Document`` fields as nested documents, and ``None`` fields
left out.  Loading is ``cls(**d)`` with the nested documents rebuilt first,
so each class's ``__post_init__`` converts and validates what a file holds,
and an unknown or missing key, or a JSON boolean (no field takes one), is
refused with a ``TypeError``: ``True`` would otherwise pass for 1.
"""

from __future__ import annotations

import json
import typing
from dataclasses import fields

import numpy as np


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
        for key, val in d.items():
            if _holds_bool(val):
                raise TypeError(f"{cls.__name__} field {key!r} must not be a boolean, got {val!r}")
        nested = {
            key: hints[key].from_dict(val)
            for key, val in d.items()
            if isinstance(hints.get(key), type) and issubclass(hints[key], Document)
        }
        return cls(**{**d, **nested})


def _holds_bool(val) -> bool:
    if isinstance(val, list):
        return any(_holds_bool(v) for v in val)
    return isinstance(val, bool)


def save_json(doc: dict, path) -> None:
    """Write a ``to_dict`` document as one line of key-sorted JSON."""
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
