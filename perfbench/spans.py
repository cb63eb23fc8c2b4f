"""Span tracer for the benchmark's traced run.

The tracer replaces the public `cmforge` functions and methods listed in
LAYERS by wrappers that record one span per call: the layer it belongs
to, start, end, the enclosing span and whether the call raised.  A
module-level function is replaced in every `cmforge.*` module that binds
it, because several modules import lattice and scenario helpers by value;
a method is replaced on its class.  A call made while a span of the same
layer is open records no span of its own, so `calls` counts entries into
a layer from outside it (for `lattice.kernel`, the outermost kernel call)
and its time stays in the outer span.

Spans are kept in flat arrays while the run lasts and written out when it
ends.  Self time is a span's duration minus the durations of its direct
children, so the self times of every layer plus the self time of the
benchmark's own op spans (the unattributed remainder) add up to the
traced op time.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter

MODULES = ("galois", "tori", "lattice", "cyclotomic", "cm", "symplectic",
           "bc", "modular", "arith")

# layer name -> the cmforge callables it covers, as (module, qualified name)
LAYERS = (
    ("lattice.hnf", [("lattice", "hermite_normal_form")]),
    ("lattice.snf", [("lattice", "smith_normal_form")]),
    ("lattice.kernel", [("lattice", "kernel_lattice"), ("lattice", "right_kernel"),
                        ("lattice", "solution_sublattice"),
                        ("lattice", "lattice_intersection")]),
    ("lattice.solve", [("lattice", "solve_int_rowspan")]),
    ("lattice.intmatrix_mul", [("lattice", "IntMatrix.__mul__")]),
    ("lattice.frac", [("lattice", "frac_matmul"), ("lattice", "frac_inv"),
                      ("lattice", "frac_solve"), ("lattice", "frac_nullspace")]),
    ("cyclotomic.mul", [("cyclotomic", "CyclotomicElement.__mul__")]),
    ("cyclotomic.inverse", [("cyclotomic", "CyclotomicElement.inverse")]),
    ("cyclotomic.norm", [("cyclotomic", "CyclotomicElement.norm")]),
    ("bc.prime_window", [("bc", "prime_window")]),
    ("bc.is_unit", [("bc", "ResidueRing.is_unit")]),
    ("bc.sample_arrow", [("bc", "sample_arrow")]),
    ("bc.arrow", [("bc", "GroupoidArrow.__init__")]),
    ("bc.orbit_key", [("bc", "GroupoidArrow.orbit_key")]),
    ("bc.make_key", [("bc", "make_key")]),
    ("bc.saturate_coset", [("bc", "FiniteLevelParams.saturate_coset")]),
    ("bc.convolve", [("bc", "convolve")]),
    ("bc.equals", [("bc", "AlgebraElement.equals")]),
    ("bc.partition_function", [("bc", "partition_function")]),
    ("cm.serre_group", [("cm", "serre_group")]),
    ("cm.serre_kernel_report", [("cm", "serre_kernel_report")]),
    ("tori.matrix_rank", [("tori", "matrix_rank")]),
    ("galois.scenario", [("galois", "builtin_scenario"), ("galois", "cyclotomic_scenario"),
                         ("galois", "c2_s3_scenario"), ("galois", "d4_scenario")]),
    ("symplectic.decompose_gsp", [("symplectic", "decompose_gsp")]),
    ("symplectic.sample_adelic_gsp", [("symplectic", "sample_adelic_gsp")]),
    ("symplectic.gsp_mul", [("symplectic", "GSpElement.__mul__")]),
    ("modular.oracle", [("modular", "ModularOracle.__call__")]),
    ("arith.theta_map", [("arith", "theta_map")]),
    ("arith.value", [("arith", "ArithmeticElement.value")]),
)

OP = "op"


def _count_primes(counters, out):
    counters["primes"] += len(out)


def _count_unit_hits(counters, out):
    counters["is_unit_hits"] += bool(out)


def _count_terms_out(counters, out):
    counters["terms_out"] += out.support_size()


def _track_oracle_error(counters, out):
    counters["oracle_max_error"] = max(counters["oracle_max_error"], out.error)


# Counters read off return values, by layer.
_RESULT_HOOKS = {
    "bc.prime_window": _count_primes,
    "bc.is_unit": _count_unit_hits,
    "bc.convolve": _count_terms_out,
    "modular.oracle": _track_oracle_error,
}


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """Records spans at the layer boundaries of LAYERS while enabled."""

    def __init__(self):
        self.names = [name for name, _ in LAYERS] + [OP]
        self._gid = {name: i for i, name in enumerate(self.names)}
        self.group = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.counters = Counter()
        self.enabled = False
        self._stack = []
        self._depth = [0] * len(self.names)
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _open(self, gid):
        idx = len(self.start)
        self.group.append(gid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.raised.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx, raised):
        self.end[idx] = time.perf_counter()
        self.raised[idx] = raised
        self._stack.pop()

    def _wrap(self, name, fn):
        gid = self._gid[name]
        hook = _RESULT_HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled or tracer._depth[gid]:
                return fn(*args, **kwargs)
            tracer._depth[gid] += 1
            idx = tracer._open(gid)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx, 1)
                raise
            finally:
                tracer._depth[gid] -= 1
            tracer._close(idx, 0)
            if hook is not None:
                hook(tracer.counters, out)
            return out

        return traced

    def op(self, fn, *args):
        """Run fn(*args) as one root op span with tracing on."""
        self.enabled = True
        idx = self._open(self._gid[OP])
        try:
            out = fn(*args)
        except BaseException:
            self._close(idx, 1)
            raise
        finally:
            self.enabled = False
        self._close(idx, 0)
        return out, self.end[idx] - self.start[idx]

    # -- installation --------------------------------------------------------

    def install(self):
        modules = {m: importlib.import_module("cmforge." + m) for m in MODULES}
        for name, targets in LAYERS:
            for module, qualname in targets:
                owner = modules[module]
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[attr]
                    wrapper = self._wrap(name, original)
                    for key, value in list(vars(cls).items()):
                        if value is original:
                            self._patches.append((cls, key, original))
                            setattr(cls, key, wrapper)
                else:
                    original = getattr(owner, qualname)
                    wrapper = self._wrap(name, original)
                    for mod in modules.values():
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patches.append((mod, key, original))
                                setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def layer_metrics(self):
        """Per-layer calls and self times over the recorded op spans."""
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        children = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                children[p] += duration[i]
        groups = len(self.names)
        calls = [0] * groups
        self_s = [0.0] * groups
        raised = [0] * groups
        pw = self._gid["bc.prime_window"]
        norm = self._gid["cyclotomic.norm"]
        in_window = bytearray(n)
        norms_in_window = 0
        for i in range(n):
            g = self.group[i]
            calls[g] += 1
            self_s[g] += duration[i] - children[i]
            raised[g] += self.raised[i]
            p = self.parent[i]
            if p >= 0 and (in_window[p] or self.group[p] == pw):
                in_window[i] = 1
                norms_in_window += g == norm
        out = {}
        for name, _ in LAYERS:
            g = self._gid[name]
            out[name + ".calls"] = (calls[g], "count")
            out[name + ".self_s"] = (self_s[g], "s")
        arrow = self._gid["bc.arrow"]
        c = self.counters
        out["bc.prime_window.norms_per_prime"] = (_ratio(norms_in_window, c["primes"]), "count/prime")
        out["bc.is_unit.hit_ratio"] = (_ratio(c["is_unit_hits"], calls[self._gid["bc.is_unit"]]), "ratio")
        out["bc.arrow.accept_ratio"] = (_ratio(calls[arrow] - raised[arrow], calls[arrow]), "ratio")
        out["bc.convolve.terms_out"] = (c["terms_out"], "count")
        out["modular.oracle.max_error"] = (c["oracle_max_error"], "1")
        op = self._gid[OP]
        out["trace.op_s"] = (sum(duration[i] for i in range(n) if self.group[i] == op), "s")
        out["trace.unattributed_s"] = (self_s[op], "s")
        out["trace.spans"] = (n, "count")
        return out

    def write_spans(self, path):
        """Write every span as one tab-separated line."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\traised\n")
            for i in range(len(self.start)):
                fh.write("%d\t%d\t%s\t%.9f\t%.9f\t%d\n" % (
                    i, self.parent[i], self.names[self.group[i]],
                    self.start[i], self.end[i], self.raised[i]))
