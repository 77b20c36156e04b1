"""qcurv: numerical verification lab for the fourth-order Q-curvature
equation on 4-manifolds."""

__version__ = "0.1.0"

# points per block of the blocked kernels, whose workspaces cnc, pohozaev and
# potential size from it; the 98k curved Pohozaev nodes in one add ~60 MB
JET_BLOCK = 4096
