"""Tracing wrappers installed from outside the package, for the traced run.

Every target is a public function, method or property of one quasispin
module.  A *span* target gets a wrapper that records a span (name, start,
end, parent span, run id, optional info number); a *count* target gets a
wrapper that only bumps a counter, because it is called millions of times
and a span per call would swamp the run.  A function wrapper replaces the
original in every loaded module namespace that holds it (``cli`` imports
``evaluate_in_representation`` by name, ``replab`` imports ``solve``, the
package ``__init__`` re-exports most names), so no call escapes through an
alias.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute path, span name, info hook or None)
SPAN_TARGETS = (
    ("quasispin.linalg", "ExactMatrix.rref", "linalg.rref", "cells"),
    ("quasispin.linalg", "solve", "linalg.solve", None),
    ("quasispin.linalg", "rank_and_kernel", "linalg.rank_kernel", None),
    ("quasispin.linalg", "coordinates_in_basis", "linalg.coords", None),
    ("quasispin.linalg", "characteristic_polynomial", "linalg.charpoly", None),
    ("quasispin.linalg", "ExactMatrix.__matmul__", "linalg.dense_matmul", None),
    ("quasispin.linalg", "LinOp.__matmul__", "linalg.sparse_matmul", None),
    ("quasispin.linalg", "SpanBasis.add", "linalg.span_add", None),
    ("quasispin.uea", "UEAElement.normal_order", "uea.normal_order", None),
    ("quasispin.uea", "pfaffian", "uea.pfaffian", None),
    ("quasispin.uea", "capelli", "uea.capelli", None),
    ("quasispin.uea", "check_lemma_l2", "uea.checker", None),
    ("quasispin.uea", "check_split_formula", "uea.checker", None),
    ("quasispin.uea", "check_corollary_split", "uea.checker", None),
    ("quasispin.uea", "check_minorn", "uea.checker", None),
    ("quasispin.uea", "evaluate_in_representation", "uea.eval", None),
    ("quasispin.uea", "CheckResult.matrix_oracle", "uea.oracle", None),
    ("quasispin.fock", "FockSpace.__init__", "fock.space", None),
    ("quasispin.fock", "FockSpace.car_violations", "fock.car", None),
    ("quasispin.fock", "quasispin_operators", "fock.operators", None),
    ("quasispin.fock", "dictionary_to_o5", "fock.operators", None),
    ("quasispin.fock", "verify_representation", "fock.bracket_table", None),
    ("quasispin.replab", "fock_representation", "replab.source", None),
    ("quasispin.replab", "tensor_power_representation", "replab.source",
     None),
    ("quasispin.replab", "extract_irreps", "replab.extract", "irreps"),
    ("quasispin.replab", "multiplicity_slices", "replab.slices", None),
    ("quasispin.replab", "pf_slice_maps", "replab.slice_maps", None),
    ("quasispin.replab", "_restrict_to_slices", "replab.slice_maps", None),
    ("quasispin.replab", "omega_operator", "replab.omega", None),
    ("quasispin.replab", "theta_transport", "replab.theta", None),
    ("quasispin.replab", "Irrep.matrix_of", "replab.matrix_of", None),
    ("quasispin.replab", "extremal_projector_o3", "replab.projector", None),
    ("quasispin.tableaux", "enumerate_tableaux", "tableaux.enumerate", None),
    ("quasispin.tableaux", "assign_k", "tableaux.assign_k", None),
    ("quasispin.tableaux", "validate_against_representation",
     "tableaux.validate", None),
    ("quasispin.tableaux", "predicted_slice_matrix", "tableaux.model", None),
    ("quasispin.tableaux", "structural_slice_matrix", "tableaux.model", None),
    ("quasispin.cli", "find_irrep", "cli.find_irrep", "found"),
    ("quasispin.report", "write_output", "report.export", "bytes"),
    ("quasispin.report", "genmap_to_json", "report.serialize", None),
    ("quasispin.report", "VerificationReport.to_json", "report.serialize",
     None),
    ("quasispin.report", "classification_table", "report.serialize", None),
)

# (module, attribute path, counter)
COUNT_TARGETS = (
    ("quasispin.liealg", "pbw_sort_key", "liealg.sort_key_calls"),
    ("quasispin.liealg", "root_of", "liealg.root_of_calls"),
    ("quasispin.liealg", "bracket", "liealg.bracket_calls"),
    ("quasispin.replab", "SliceMap.rank", "replab.rank_evals"),
    ("quasispin.replab", "SliceMap.nullity", "replab.rank_evals"),
    ("quasispin.replab", "SliceMap.kernel", "replab.rank_evals"),
)

SCALAR_COUNTS = ("scalars.quad_mul_calls", "scalars.quad_add_calls",
                 "scalars.quad_inverse_calls")

# span name -> (per-layer metric of its outermost inclusive time,
#               per-layer metric of its call count or None)
SPAN_METRICS = {
    "linalg.rref": ("linalg.rref_s", "linalg.rref_calls"),
    "linalg.solve": (None, "linalg.solve_calls"),
    "linalg.rank_kernel": (None, "linalg.rank_kernel_calls"),
    "linalg.coords": (None, "linalg.coords_calls"),
    "linalg.charpoly": ("linalg.charpoly_s", None),
    "linalg.dense_matmul": ("linalg.dense_matmul_s",
                            "linalg.dense_matmul_calls"),
    "linalg.sparse_matmul": ("linalg.sparse_matmul_s",
                             "linalg.sparse_matmul_calls"),
    "linalg.span_add": ("linalg.span_add_s", "linalg.span_add_calls"),
    "uea.normal_order": ("uea.normal_order_s", "uea.normal_order_calls"),
    "uea.pfaffian": ("uea.pfaffian_s", None),
    "uea.capelli": ("uea.capelli_s", None),
    "uea.checker": ("uea.checker_s", None),
    "uea.eval": ("uea.eval_s", "uea.eval_calls"),
    "uea.oracle": ("uea.oracle_s", None),
    "fock.space": ("fock.space_s", None),
    "fock.car": ("fock.car_s", "fock.car_calls"),
    "fock.operators": ("fock.operators_s", None),
    "fock.bracket_table": ("fock.bracket_table_s", None),
    "replab.source": ("replab.source_s", None),
    "replab.extract": ("replab.extract_s", "replab.extract_calls"),
    "replab.slices": ("replab.slices_s", "replab.slices_calls"),
    "replab.slice_maps": ("replab.slice_maps_s", None),
    "replab.omega": ("replab.omega_s", None),
    "replab.theta": ("replab.theta_s", None),
    "replab.matrix_of": ("replab.matrix_of_s", None),
    "replab.projector": ("replab.projector_s", None),
    "tableaux.enumerate": ("tableaux.enumerate_s", None),
    "tableaux.assign_k": ("tableaux.assign_k_s", None),
    "tableaux.validate": ("tableaux.validate_s", None),
    "tableaux.model": ("tableaux.model_s", "tableaux.model_calls"),
    "cli.find_irrep": ("cli.find_irrep_s", None),
    "report.export": ("report.export_s", None),
    "report.serialize": ("report.serialize_s", None),
}


def unit_of(metric):
    """Unit of a per-layer metric, from its name."""
    for suffix, unit in (("_s", "s"), ("_bits", "bits"), ("_bytes", "bytes"),
                         ("_frac", "ratio"), ("_ratio", "ratio")):
        if metric.endswith(suffix):
            return unit
    return "count"


def _resolve(module_name, path):
    """(owner object, attribute name, current value) or None if absent."""
    owner = sys.modules.get(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1], owner.__dict__.get(parts[-1],
                                               getattr(owner, parts[-1]))


def _replace_everywhere(orig, wrapper):
    """Rebind every module-level name that holds ``orig``."""
    for mod in list(sys.modules.values()):
        names = getattr(mod, "__dict__", None)
        if not names:
            continue
        for attr, val in list(names.items()):
            if val is orig:
                setattr(mod, attr, wrapper)


def _bits(x):
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _entry_bits(irreps):
    best = 0
    for irr in irreps:
        for m in irr.genmats.values():
            for row in m.data:
                for v in row:
                    if v:
                        parts = (v.a, v.b) if hasattr(v, "b") else (v,)
                        best = max(best, *map(_bits, parts))
    return best


class Tracer:
    """Spans and counters of one traced child process."""

    def __init__(self):
        # span record: [name, start, end, parent index, run id, info]
        self.spans = []
        self._stack = []
        self.run_id = 0
        self.counts = Counter()
        self.missing = []
        self._bits_by_source = {}

    # -- installation ---------------------------------------------------

    def install(self):
        for module, path, name, hook in SPAN_TARGETS:
            self._install(module, path, lambda fn, n=name, h=hook:
                          self._span_wrapper(n, fn, h))
        for module, path, key in COUNT_TARGETS:
            self._install(module, path, lambda fn, k=key:
                          self._count_wrapper(k, fn))
        self._install_scalar_counters()

    def _install(self, module, path, make):
        found = _resolve(module, path)
        if found is None:
            self.missing.append(f"{module}:{path}")
            return
        owner, attr, orig = found
        if isinstance(orig, property):
            setattr(owner, attr, property(make(orig.fget)))
        elif isinstance(owner, type):
            setattr(owner, attr, make(orig))
        else:
            _replace_everywhere(orig, make(orig))

    def _span_wrapper(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1,
                   tracer.run_id, None]
            spans.append(rec)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if hook is not None:
                rec[5] = tracer._info(hook, args, out)
            return out

        return wrapper

    def _info(self, hook, args, out):
        if hook == "cells":
            return args[0].rows * args[0].cols
        if hook == "irreps":
            label = out[0].source if out else ""
            if label not in self._bits_by_source:
                self._bits_by_source[label] = _entry_bits(out)
            return [len(out), max((i.dim for i in out), default=0),
                    self._bits_by_source[label]]
        if hook == "found":
            return 0 if out is None else 1
        if hook == "bytes":
            return len(out.encode())
        raise ValueError(hook)

    def _count_wrapper(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _install_scalar_counters(self):
        scalars = sys.modules.get("quasispin.scalars")
        quad = getattr(scalars, "QuadScalar", None)
        if quad is None:
            self.missing.append("quasispin.scalars:QuadScalar")
            return
        counts = self.counts

        def counted(fn, key):
            def wrapper(self, other):
                counts[key] += 1
                if self.b or getattr(other, "b", 0):
                    counts["scalars.irrational_ops"] += 1
                return fn(self, other)
            return wrapper

        mul = counted(quad.__mul__, "scalars.quad_mul_calls")
        add = counted(quad.__add__, "scalars.quad_add_calls")
        sub = counted(quad.__sub__, "scalars.quad_add_calls")
        quad.__mul__ = quad.__rmul__ = mul
        quad.__add__ = quad.__radd__ = add
        quad.__sub__ = sub
        quad.inverse = self._count_wrapper("scalars.quad_inverse_calls",
                                           quad.inverse)

    # -- commands -------------------------------------------------------

    def command(self, label, fn):
        """Run one workload command as a root span with its own run id."""
        self.run_id += 1
        return self._span_wrapper(f"cmd.{label}", fn, None)()

    # -- results ----------------------------------------------------------

    def metrics(self, memo_words):
        spans = self.spans
        out = {}
        for timed, calls in SPAN_METRICS.values():
            if timed:
                out[timed] = 0.0
            if calls:
                out[calls] = 0
        for key in SCALAR_COUNTS + tuple(k for _, _, k in COUNT_TARGETS):
            out[key] = self.counts[key]
        ops = out["scalars.quad_mul_calls"] + out["scalars.quad_add_calls"]
        out["scalars.irrational_frac"] = (
            self.counts["scalars.irrational_ops"] / ops if ops else 0.0)
        out["uea.memo_words"] = memo_words
        out["linalg.rref_cells"] = 0
        out["replab.irreps_extracted"] = 0
        out["replab.largest_irrep_dim"] = 0
        out["replab.max_entry_bits"] = 0
        out["report.export_bytes"] = 0
        found = in_find = 0
        for idx, (name, start, end, parent, _, info) in enumerate(spans):
            timed, calls = SPAN_METRICS.get(name, (None, None))
            if calls:
                out[calls] += 1
            if timed and not self._has_ancestor(idx, name):
                out[timed] += end - start
            if name == "linalg.rref":
                out["linalg.rref_cells"] += info
            elif name == "replab.extract":
                out["replab.irreps_extracted"] += info[0]
                out["replab.largest_irrep_dim"] = max(
                    out["replab.largest_irrep_dim"], info[1])
                out["replab.max_entry_bits"] = max(
                    out["replab.max_entry_bits"], info[2])
                if self._has_ancestor(idx, "cli.find_irrep"):
                    in_find += info[0]
            elif name == "cli.find_irrep":
                found += info
            elif name == "report.export":
                out["report.export_bytes"] += info
        out["cli.find_irrep_useful_ratio"] = found / in_find if in_find else 0.0
        return out

    def _has_ancestor(self, idx, name):
        spans = self.spans
        parent = spans[idx][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    def self_times(self):
        """Self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for idx, (name, start, end, _, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[idx]
        return dict(out)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run",
                                  "info"],
                       "spans": self.spans,
                       "self_s": self.self_times(),
                       "counts": dict(self.counts),
                       "missing": self.missing}, fh)
