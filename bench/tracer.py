"""Spans around taylordp's public functions, installed from outside the package.

A span records name, start, end and parent.  Spans are kept in memory and
turned into per-layer metrics, per pass, when the worker's last pass ends;
a layer's self time is its span minus the time its child spans cover.
Solver calls are named by their argument: a LatticeMdp is fine-lattice work
(exact.*), a KdChain is chain work (tapi.chain_pi).  Matvecs are counted without a span because
there are hundreds of thousands of them.

Nothing here changes what a call computes; untraced workers never import it.
"""

from __future__ import annotations

import sys
import time
import weakref
from collections import Counter

import numpy as np

# metric -> span name whose self time (and call count) it reports
SPAN_TIMES = {
    "models.build_s": "models.build",
    "lattice.enumerate_s": "lattice.enumerate",
    "lattice.kernel_s": "lattice.kernel",
    "exact.assembly_s": "exact.assembly",
    "exact.eval_s": "exact.eval",
    "exact.improve_s": "exact.improve",
    "taylor.moments_s": "taylor.moments",
    "kdchain.build_s": "kdchain.build",
    "kdchain.verify_s": "kdchain.verify",
    "tapi.chain_pi_s": "tapi.chain_pi",
    "tapi.value_extension_s": "tapi.value_extension",
    "tapi.policy_extension_s": "tapi.policy_extension",
    "tapi.disaggregate_policy_s": "tapi.disaggregate_policy",
}
SPAN_CALLS = {
    "lattice.enumerate_calls": "lattice.enumerate",
    "lattice.kernel_calls": "lattice.kernel",
    "exact.eval_calls": "exact.eval",
    "exact.improve_calls": "exact.improve",
    "taylor.moments_calls": "taylor.moments",
}
COUNTERS = ("lattice.n_states", "lattice.n_pairs", "exact.matvecs", "exact.pi_iterations",
            "kdchain.n_states", "kdchain.n_pairs", "kdchain.nnz",
            "tapi.chain_pi_iterations", "tapi.exact_loop_iterations", "tapi.oscillated")
# (unit, better) of every per-layer metric the traced run prints
PER_LAYER = {
    **{m: ("s", "lower") for m in SPAN_TIMES},
    **{m: ("count", "lower") for m in SPAN_CALLS},
    **{m: ("count", "lower") for m in COUNTERS},
    "kdchain.clipped_frac": ("ratio", "lower"),
    "kdchain.inflated_frac": ("ratio", "lower"),
    "tapi.fine_eval_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.ops_s": ("s", "lower"),
}
# Zero is a legitimate reading for these; every other per-layer metric must be
# positive on every workload, which is how a misplaced wrapper shows.
MAY_BE_ZERO = ("tapi.oscillated", "kdchain.clipped_frac", "kdchain.inflated_frac")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.chain_pairs = Counter()      # interior, clipped, inflated
        self._seen_assemblies = weakref.WeakSet()

    # -- recording -----------------------------------------------------------

    def wrap(self, fn, name, post=None):
        """Record a span per call; name is a string or a callable of the args."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            if label is None:
                return fn(*args, **kwargs)
            rec = [label, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if post is not None:
                post(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, fn, counter):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap the public functions in every taylordp namespace that binds them."""
        from taylordp import exact, kdchain, lattice, models, tapi
        from taylordp.kdchain import KdChain
        from taylordp.lattice import LatticeMdp

        def solver(fine_name):
            def label(args):
                if isinstance(args[0], LatticeMdp):
                    return fine_name
                if isinstance(args[0], KdChain):
                    return "tapi.chain_pi"
                return None
            return label

        def after_assembly(args, kwargs, asm):
            if not isinstance(args[0], LatticeMdp) or asm in self._seen_assemblies:
                return
            self._seen_assemblies.add(asm)
            self.counters["lattice.n_states"] += asm.n_states
            self.counters["lattice.n_pairs"] += asm.n_pairs
            if isinstance(asm, exact.FactoredAssembly):
                asm.apply_expectation = self.count(asm.apply_expectation, "exact.matvecs")

        def after_pi(args, kwargs, result):
            key = "exact.pi_iterations" if isinstance(args[0], LatticeMdp) else "tapi.chain_pi_iterations"
            self.counters[key] += result.iterations

        def after_chain(args, kwargs, chain):
            asm = chain.assembly()
            self.counters["kdchain.n_states"] += chain.n_states
            self.counters["kdchain.n_pairs"] += asm.n_pairs
            self.counters["kdchain.nnz"] += len(asm.probs)
            interior = np.repeat(chain.interior_mask, np.diff(asm.offsets))
            self.chain_pairs["interior"] += int(interior.sum())
            self.chain_pairs["clipped"] += int((chain.cross_scale[interior] < 1.0).sum())
            self.chain_pairs["inflated"] += int(
                (chain.second_moment_slack[interior] > 0.0).any(axis=1).sum())

        def after_tapi(args, kwargs, result):
            options = args[1] if len(args) > 1 else kwargs.get("options")
            if options is not None and options.improvement == "exact":
                self.counters["tapi.exact_loop_iterations"] += result.iterations
                self.counters["tapi.oscillated"] += int(result.oscillated)

        def after_build(args, kwargs, model):
            mdp = model.mdp
            mdp.kernel = self.wrap(mdp.kernel, "lattice.kernel")
            model.problem.moments_batch = self.wrap(model.problem.moments_batch,
                                                    "taylor.moments")

        targets = [
            (exact.get_assembly, solver("exact.assembly"), after_assembly),
            (exact.policy_evaluation, solver("exact.eval"), None),
            (exact.policy_improvement, solver("exact.improve"), None),
            (exact.policy_iteration, solver("exact.pi"), after_pi),
            (kdchain.build_multidim_chain, "kdchain.build", after_chain),
            (kdchain.verify_tcp_equivalence, "kdchain.verify", None),
            (tapi.tapi_solve, "tapi.solve", after_tapi),
            (tapi.disaggregate_value, "tapi.value_extension", None),
            (tapi.taylored_greedy_policy, "tapi.policy_extension", None),
            (tapi.disaggregate_policy, "tapi.disaggregate_policy", None),
            (models.build_routing, "models.build", after_build),
            (models.build_service_rate, "models.build", after_build),
        ]
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "taylordp" or n.startswith("taylordp."))]
        for fn, name, post in targets:
            wrapped = self.wrap(fn, name, post)
            bound = [(m, attr) for m in modules for attr, v in vars(m).items() if v is fn]
            if not bound:
                raise RuntimeError(f"no taylordp namespace binds {fn.__qualname__}")
            for m, attr in bound:
                setattr(m, attr, wrapped)
        for cls in (lattice.PolyhedralActionSet, lattice.ExplicitActionSet):
            cls.at = self.wrap(cls.at, "lattice.enumerate")

    # -- reduction -----------------------------------------------------------

    def counts(self, ops_s: float, passes: int) -> dict:
        """Per-layer totals of this process, per pass; summarize() finishes them."""
        spans = self.spans
        child = np.zeros(len(spans))
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter = Counter()
        calls: Counter = Counter()
        fine_eval = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            own = (end - start) - child[i]
            self_s[name] += own
            calls[name] += 1
            if name == "exact.eval" and self._under(i, "tapi.solve"):
                fine_eval += own
        out = {m: self_s[s] for m, s in SPAN_TIMES.items()}
        out.update({m: calls[s] for m, s in SPAN_CALLS.items()})
        out.update({c: self.counters[c] for c in COUNTERS})
        out.update({f"kdchain.{k}_pairs": v for k, v in self.chain_pairs.items()})
        out["tapi.fine_eval_s"] = fine_eval
        out["trace.spans"] = len(spans)
        out["trace.overhead_s"] = (len(spans) * _added_cost(Tracer().wrap(_noop, "probe"))
                                   + self.counters["exact.matvecs"]
                                   * _added_cost(Tracer().count(_noop, "probe")))
        out["trace.ops_s"] = ops_s
        return {m: v / passes for m, v in out.items()}

    def _under(self, i, ancestor):
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][3]
        return False


def summarize(counts: dict) -> dict:
    """Per-layer metrics of a pass from counts()."""
    total = Counter(counts)
    interior = max(total["kdchain.interior_pairs"], 1)
    total["kdchain.clipped_frac"] = total["kdchain.clipped_pairs"] / interior
    total["kdchain.inflated_frac"] = total["kdchain.inflated_pairs"] / interior
    return {m: total[m] for m in PER_LAYER}


def _noop():
    return None


def _per_call(fn, calls=20000):
    t0 = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - t0) / calls


def _added_cost(wrapped):
    """Seconds a wrapper adds to one call, measured on a no-op."""
    return max(_per_call(wrapped) - _per_call(_noop), 0.0)
