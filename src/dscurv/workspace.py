"""Scratch memory that a run of like evaluations takes and gives back.

The identity monitor evaluates a grid ring slab by ring slab.  Arrays a
slab allocates for itself go back to the system when it frees them, and
the next slab faults the same memory in again.  A Workspace keeps that
memory for the whole run: each slab takes its arrays from it and gives
them back, and every slab finds its arrays where the first one did.

Callers without a workspace pass FRESH, whose take() is np.empty and
whose give() does nothing, so one code path serves both.
"""

import math

import numpy as np


class Workspace:
    """Scratch arrays for a run of evaluations that take and give back
    arrays of the same leading shapes in the same order.

    The workspace is one buffer of ``units`` units of ``nodes`` doubles,
    each room for the largest field of any evaluation.  An array whose
    last ``field_ndim`` axes are a field takes as many adjacent units as
    its leading axes hold fields (a bool array an eighth of that, rounded
    up), whatever the field's size.  take() places it at the lowest run
    of free units; give() and reset() free units again.  An evaluation
    that starts from a reset and takes and gives like an earlier one
    finds every array where that one put it.  take() raises MemoryError
    when no run is free: ``units`` must cover the evaluation's
    placements.
    """

    def __init__(self, nodes, field_ndim, units):
        self.nodes, self.field_ndim, self.units = nodes, field_ndim, units
        self.buffer = self._allocate(units * nodes)
        self._free = (1 << units) - 1     # bit i set: unit i is free
        self._taken = {}        # id(array) -> (array, first unit, units)

    def _allocate(self, size):
        return np.empty(size)

    def take(self, shape, dtype=float):
        """An array of ``shape`` and ``dtype`` in free units; its values
        are whatever the units last held."""
        split = len(shape) - self.field_ndim
        if math.prod(shape[split:]) > self.nodes:
            raise ValueError(f"a field of shape {shape[split:]} exceeds the "
                             f"workspace's {self.nodes} nodes")
        units = -(-math.prod(shape[:split]) * np.dtype(dtype).itemsize // 8)
        fits = self._free           # bit i set: units i .. i + units - 1 free
        for i in range(1, units):
            fits &= self._free >> i
        if not fits:
            raise MemoryError(f"no {units} adjacent free units in a "
                              f"workspace of {self.units}")
        first = (fits & -fits).bit_length() - 1
        self._free &= ~(((1 << units) - 1) << first)
        array = np.ndarray(shape, dtype, self.buffer, first * self.nodes * 8)
        self._taken[id(array)] = (array, first, units)
        return array

    def give(self, *arrays):
        """Free the units of arrays take() returned."""
        for array in arrays:
            taken, first, units = self._taken.pop(id(array))
            assert taken is array
            self._free |= ((1 << units) - 1) << first

    def reset(self):
        """Free every unit."""
        self._taken.clear()
        self._free = (1 << self.units) - 1


class _Fresh:
    """The allocator of callers without a workspace."""

    take = staticmethod(np.empty)

    @staticmethod
    def give(*arrays):
        pass


FRESH = _Fresh()
