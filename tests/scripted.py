"""A stand-in generator for tests that need chosen draws."""

import numpy as np


class ScriptedNormals:
    """Stand-in generator whose normals and uniforms come from a script; its
    state, the count of values used, can be read and set."""

    def __init__(self, values):
        self.values = np.hstack(values).astype(float)
        self.used = 0

    @property
    def bit_generator(self):
        return self

    @property
    def state(self):
        return self.used

    @state.setter
    def state(self, used):
        self.used = used

    def standard_normal(self, size):
        count = int(np.prod(size))
        out = self.values[self.used : self.used + count]
        self.used += count
        return out.reshape(size)

    def normal(self, size):
        return self.standard_normal(size)

    def uniform(self, low, high, size=None):
        if size is None:
            return low + (high - low) * float(self.standard_normal(1)[0])
        return low + (high - low) * self.standard_normal(size)
