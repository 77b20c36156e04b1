"""qcurv: numerical verification lab for the fourth-order Q-curvature
equation on 4-manifolds."""

__version__ = "0.1.0"

# the block size of the Pohozaev interior, runs of JET_BLOCK // (k n_r)
# directions over n_r shells for k curved metrics, and of the torus Green's
# function's slabs of at most JET_BLOCK * 40 gathered entries
JET_BLOCK = 4096
