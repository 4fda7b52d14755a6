"""In-memory span tracer that wraps treegibbs' public functions from outside.

``Tracer.install`` replaces each listed function, in every ``treegibbs.*``
module whose attribute *is* the original object, by a wrapper that records a
span (name, start, end, parent span, op id).  Re-exports and ``from .x
import f`` bindings are all rebound, so nested calls such as ``counting ->
gibbs.critical_exponent`` or ``wsg -> gibbs.spectral_radius`` are caught.
``TailGreen`` is traced by wrapping its ``__init__``, which runs the solve.
``uninstall`` restores every binding.  Nothing is written until the caller
asks for the spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# module -> public functions whose spans the benchmark records
TRACED = {
    "graph": ("graph_from_json", "validate_graph", "propagate_orders", "materialize",
              "length_spectrum_period"),
    "gibbs": ("tail_critical_value", "critical_exponent", "spectral_radius", "transfer_matrix",
              "shadow_vector", "shadow_residual", "compute_gibbs", "potential_from_json",
              "cusp_exponent_bound"),
    "chain": ("build_chain", "check_markov_property", "periodic_classes", "taboo_table",
              "taboo_matrix_powers", "mixing_rate_estimate", "mean_return_time",
              "correlation_decay", "second_eigenvalue_modulus", "counterexample_chain"),
    "wsg": ("verify_certificate", "tail_certificate", "search_certificate",
            "lemma_bound_check", "degradation_probe"),
    "counting": ("biregular_params", "orbit_oracle", "renewal_constant", "main_term",
                 "error_decay_report", "sphere_size", "mgamma_ball_measure"),
    "cover": ("cover_census", "build_cover_ball"),
    "cli": ("main", "parse_config", "run_command", "emit_report"),
}
MODULES = tuple(TRACED)


def _states_built(tracer, args, kwargs, result):
    tracer.counts["chain.states_built"] += len(result.states)


def _census_vertices(tracer, args, kwargs, result):
    tracer.counts["cover.census_vertices"] += sum(result.values())


def _renewal_outcome(tracer, args, kwargs, result):
    # the exact rational path is attempted for finite, zero-potential,
    # bipartite cores when the caller does not opt out
    import treegibbs.counting as counting

    g = args[0]
    F = args[2] if len(args) > 2 else kwargs.get("F")
    prefer = args[4] if len(args) > 4 else kwargs.get("prefer_exact", True)
    if g.tails or not prefer:
        return
    if F is not None and not counting._potential_is_zero(F):
        return
    if not counting._is_bipartite(g):
        return
    tracer.counts["counting.renewal_exact_attempts"] += 1
    if result.method == "perron-exact":
        tracer.counts["counting.renewal_exact_hits"] += 1


HOOKS = {
    "chain.build_chain": _states_built,
    "cover.cover_census": _census_vertices,
    "counting.renewal_constant": _renewal_outcome,
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.counts = Counter()
        self.op_id = None
        self.enabled = True
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        tracer = self
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.op_id]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def install(self):
        import treegibbs.gibbs as gibbs

        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "treegibbs" or n.startswith("treegibbs."))]
        for short, names in TRACED.items():
            home = sys.modules[f"treegibbs.{short}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapped = self._wrap(f"{short}.{fname}", orig)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapped)
                            self._restore.append((m, attr, orig))
        cls = gibbs.TailGreen
        init = cls.__init__
        cls.__init__ = self._wrap("gibbs.TailGreen", init)
        self._restore.append((cls, "__init__", init))

    def uninstall(self):
        for obj, attr, orig in reversed(self._restore):
            setattr(obj, attr, orig)
        self._restore.clear()

    # -- summaries -----------------------------------------------------------

    def totals(self):
        """name -> (calls, busy seconds); busy time skips spans nested inside a
        span of the same name so recursion is not double counted."""
        calls = Counter()
        busy = defaultdict(float)
        for name, t0, t1, parent, _ in self.spans:
            calls[name] += 1
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                busy[name] += t1 - t0
        return calls, busy

    def self_times(self):
        """module -> seconds during which its span is the innermost one open."""
        child = defaultdict(float)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = dict.fromkeys(MODULES, 0.0)
        for idx, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name.split(".", 1)[0]] += (t1 - t0) - child[idx]
        return out

    def count_under(self, name, ancestor):
        """Spans called ``name`` with some enclosing span called ``ancestor``."""
        n = 0
        for span in self.spans:
            if span[0] != name:
                continue
            p = span[3]
            while p >= 0:
                if self.spans[p][0] == ancestor:
                    n += 1
                    break
                p = self.spans[p][3]
        return n
