"""taylordp: second-order Taylor (TCP) approximations of lattice MDPs.

Exact solvers for discounted MDPs on truncated integer lattices, drift and
diffusion extraction, TCP-equivalent Kushner-Dupuis coarse chains, Taylored
Approximate Policy Iteration, and computable optimality-gap diagnostics.
"""

from .bounds import (GapReport, GridFunction1d, SmoothFunction, corner_states,
                     discounted_accumulation, fd_hessian_1d, gap_report,
                     holder_seminorm_estimate, taylor_remainder,
                     third_derivative_proxy)
from .exact import (PiResult, discounted_functional, policy_evaluation, policy_improvement,
                    policy_iteration, value_iteration)
from .kdchain import (CoarseGrid, KdChain, TcpEquivalenceReport, build_multidim_chain,
                      verify_tcp_equivalence)
from .lattice import (ExplicitActionSet, LatticeMdp, PolyhedralActionSet, StateLattice,
                      max_jump, truncate_renormalize)
from .tapi import (TapiOptions, TapiResult, disaggregate_policy, disaggregate_value,
                   tapi_solve)
from .taylor import (BoundarySpec, EllipticityReport, TaylorProblem, ellipticity_check,
                     kernel_moment_provider)

__version__ = "0.1.0"
