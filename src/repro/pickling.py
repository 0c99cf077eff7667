"""Positional pickling for the slotted dataclass records a compiled
program is made of.

A slotted dataclass pickles by default as its class plus a state that
names every field (or, frozen, a state list that unpickling matches to
``dataclasses.fields()`` once per object).  The records that fill a
compile envelope — VIR registers and instructions, ``PtxasInfo``, the
timing verdict — are many and small, so :func:`positional_pickle` makes
each pickle as a call of its class with the field values in order.

Records pickled the default way still load: the class keeps the state
handling they were written for.
"""

from __future__ import annotations

from dataclasses import fields
from operator import attrgetter


def positional_pickle(cls):
    """Class decorator: pickle instances of the dataclass ``cls`` as
    ``cls(*field values)``.  Every field must be an ``__init__``
    parameter, and there must be at least two."""
    names = [f.name for f in fields(cls)]
    if len(names) < 2 or not all(f.init for f in fields(cls)):
        raise TypeError(f"{cls.__name__}: needs two or more init fields")
    state = attrgetter(*names)

    def __reduce__(self):
        return cls, state(self)

    cls.__reduce__ = __reduce__
    return cls
