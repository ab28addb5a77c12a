"""Exception hierarchy shared by all modules."""

import numpy as np


class NetredError(Exception):
    """Base class for every error raised by this package."""


class NotSymmetric(NetredError):
    """A matrix that must be symmetric is not, beyond tolerance."""


class NotHurwitz(NetredError):
    """A matrix that must have all eigenvalues in the open left half plane does not."""


class UnstablePoles(NetredError):
    """The output matrix observes a mode in the closed right half plane, so the
    transfer function has poles there and its H2 and H-infinity norms are
    infinite or undefined."""


class IllConditioned(NetredError, np.linalg.LinAlgError):
    """A numerical kernel failed on ill-conditioned data, so the quantity it computes
    is not reported.  Any ``LinAlgError`` in a norm route counts as one."""


class WitnessInvalid(NetredError):
    """The supplied witness matrix does not intertwine C and A (CA != XC)."""


class KernelViolated(NetredError):
    """ker A is not contained in ker C, so the DC gain formula does not apply."""


class NegativeWeight(NetredError):
    """An input graph carries a negative edge weight."""


class InvalidPartition(NetredError):
    """A collection of cells is not a partition of the node set."""

    def __init__(self, message, node=None, cell_index=None):
        super().__init__(message)
        self.node = node
        self.cell_index = cell_index


class Disconnected(NetredError):
    """The network graph is not connected."""


class NotSynchronized(NetredError):
    """The network does not synchronize, so norm-based analysis is refused."""


class NotAEP(NetredError):
    """The partition is not almost equitable for the given graph."""


class NotSingleIntegrator(NetredError):
    """The agent dynamics is not the scalar integrator (A=0, B=1, E=1)."""


class NotSymmetricDynamics(NetredError):
    """The agent matrices A and B are not both symmetric."""


class UnknownExample(NetredError):
    """No generator is registered under the requested example name."""
