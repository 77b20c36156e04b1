"""qcurv: numerical verification lab for the fourth-order Q-curvature
equation on 4-manifolds."""

__version__ = "0.1.0"

# points per block of the blocked kernels, whose workspaces cnc, pohozaev and
# potential size from it; a curved Pohozaev sweep of k metrics takes at most
# JET_BLOCK // k of the suite's 12,288 curved interior nodes per block
JET_BLOCK = 4096
