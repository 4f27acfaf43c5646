"""Per-layer spans for traced benchmark requests.

Run as a request process in place of `splice-sig`:

    python3 bench/tracing.py SPANS.json REQUEST_ID <splice-sig arguments>

It imports `splicesig.cli`, wraps the functions other modules call into each
layer (rebinding every module-level name that refers to them), runs the
command, and at exit writes its spans and counters to SPANS.json.  A span is
(name, start, end, parent); a call that re-enters a span of the same name is
folded into the outer span.  Nothing inside `src/` is changed.

The parent side, `layer_metrics`, turns the span files of one pass into the
per-layer metrics of BENCHMARK.json.
"""

import importlib
import json
import sys
import time
from functools import wraps

clock = time.perf_counter

SUITES = ("referee-tables", "referee-splice", "hopf-oracle", "hopf-spectrum",
          "defect-lemma", "hirzebruch", "univariate-reduction", "hopf-nullity",
          "guard-discipline")

# metric -> (span name, "self" | "calls" | "total")
SPAN_METRICS = {
    "cli.import_s": ("cli.import", "self"),
    "cli.output_s": ("cli.command", "self"),
    "expr.parse_s": ("expr.parse", "self"),
    "expr.parse_calls": ("expr.parse", "calls"),
    "ccomplex.load_s": ("ccomplex.load", "self"),
    "ccomplex.load_calls": ("ccomplex.load", "calls"),
    "ccomplex.assemble_s": ("ccomplex.assemble", "self"),
    "ccomplex.fastpath_s": ("ccomplex.fastpath", "self"),
    "splice.combinator_s": ("splice.combinator", "self"),
    "splice.combinator_calls": ("splice.combinator", "calls"),
    "torus.defect_s": ("torus.defect", "self"),
    "torus.defect_calls": ("torus.defect", "calls"),
    "hopf.closed_form_s": ("hopf.closed_form", "self"),
    "hopf.closed_form_calls": ("hopf.closed_form", "calls"),
    "cables.hirzebruch_s": ("cables.hirzebruch", "self"),
    "cables.hirzebruch_calls": ("cables.hirzebruch", "calls"),
    "cyclotomic.level_build_s": ("cyclotomic.level_build", "self"),
    "cyclotomic.levels_built": ("cyclotomic.level_build", "calls"),
    "cyclotomic.reduce_s": ("cyclotomic.reduce", "self"),
    "cyclotomic.reduce_calls": ("cyclotomic.reduce", "calls"),
    "cyclotomic.scalar_arith_s": ("cyclotomic.scalar_arith", "self"),
    "cyclotomic.scalar_arith_calls": ("cyclotomic.scalar_arith", "calls"),
    "cyclotomic.laurent_eval_s": ("cyclotomic.laurent_eval", "self"),
    "cyclotomic.hermitian_check_s": ("cyclotomic.hermitian_check", "self"),
    "cyclotomic.inertia_s": ("cyclotomic.inertia", "self"),
    "cyclotomic.inertia_calls": ("cyclotomic.inertia", "calls"),
    "cyclotomic.numeric_eig_s": ("cyclotomic.numeric_eig", "self"),
    # a suite groups every layer it calls, so its time is inclusive
    **{f"verify.{s}_s": (f"verify.{s}", "total") for s in SUITES},
}
MAX_COUNTERS = ("cyclotomic.max_degree", "cyclotomic.inertia_max_g")
SUM_COUNTERS = ("fixtures.leaf_calls", "fixtures.leaf_evals", "splice.guard_raised")


class Recorder:
    """Spans and counters of one process, kept in memory until `dump`."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1]
        self.stack = []
        self.counters = {name: 0 for name in MAX_COUNTERS + SUM_COUNTERS}

    def open(self, name: str) -> list:
        rec = [name, clock(), 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        self.stack.pop()
        rec[2] = clock()

    def span(self, name: str, fn):
        """`fn` wrapped so that each outermost call records a span `name`."""
        spans, stack = self.spans, self.stack

        @wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            rec = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(rec)
        return traced

    def peak(self, counter: str, value: int) -> None:
        if value > self.counters[counter]:
            self.counters[counter] = value

    def dump(self, path: str, request_id: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {"request": request_id, "names": names,
               "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
               "counters": self.counters}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _rebind(orig, new) -> None:
    """Point every splicesig module-level name bound to `orig` at `new`."""
    for modname, mod in list(sys.modules.items()):
        if modname == "splicesig" or modname.startswith("splicesig."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)


def _wrap_method(rec: Recorder, cls, attr: str, name: str) -> None:
    setattr(cls, attr, rec.span(name, cls.__dict__[attr]))


def install(rec: Recorder) -> None:
    """Wrap the layer entry points of an imported splicesig."""
    # `splicesig.splice` is shadowed on the package by the function `splice`
    (cables, ccomplex, cli, cyclotomic, expr, fixtures, hopf, splice, torus,
     verify) = (importlib.import_module(f"splicesig.{name}") for name in (
         "cables", "ccomplex", "cli", "cyclotomic", "expr", "fixtures", "hopf",
         "splice", "torus", "verify"))
    from splicesig.errors import GuardViolated

    counters = rec.counters

    for fn, name in ((expr.parse, "expr.parse"), (torus.defect, "torus.defect"),
                     (hopf.hopf_signature, "hopf.closed_form"),
                     (hopf.hopf_nullity, "hopf.closed_form"),
                     (cables.hirzebruch, "cables.hirzebruch"),
                     (cli.cmd_eval, "cli.command"), (cli.cmd_sweep, "cli.command"),
                     (cli.cmd_defect_table, "cli.command"),
                     (cli.cmd_verify, "cli.command"),
                     (cli.cmd_torus_sig, "cli.command")):
        _rebind(fn, rec.span(name, fn))

    # level tables: a span only when a level is built; degree seen on every call
    level, levels = cyclotomic._level, cyclotomic._levels
    build_level = rec.span("cyclotomic.level_build", level)

    def traced_level(n):
        lv = build_level(n) if n not in levels else level(n)
        rec.peak("cyclotomic.max_degree", lv.deg)
        return lv
    _rebind(level, traced_level)

    inertia = rec.span("cyclotomic.inertia", cyclotomic._inertia)

    def traced_inertia(mat, lv):
        rec.peak("cyclotomic.inertia_max_g", len(mat))
        return inertia(mat, lv)
    _rebind(cyclotomic._inertia, traced_inertia)

    # canonical reduction: a span only for calls that compute, not cache hits
    number = cyclotomic.CyclotomicNumber
    reduced = number.__dict__["reduced"]
    reduce_span = rec.span("cyclotomic.reduce", reduced)

    def traced_reduced(self):
        return reduce_span(self) if self._reduced is None else reduced(self)
    number.reduced = traced_reduced

    for attr in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__neg__", "conjugate"):
        _wrap_method(rec, number, attr, "cyclotomic.scalar_arith")
    _wrap_method(rec, cyclotomic.HermitianMatrix, "__init__", "cyclotomic.hermitian_check")
    _wrap_method(rec, cyclotomic.HermitianMatrix, "eigen_multiset_numeric",
                 "cyclotomic.numeric_eig")
    _wrap_method(rec, cyclotomic.LaurentMatrix, "evaluate", "cyclotomic.laurent_eval")

    family = ccomplex.SeifertFamily
    _wrap_method(rec, family, "assemble", "ccomplex.assemble")
    _wrap_method(rec, family, "_inertia_at", "ccomplex.fastpath")
    family.load = classmethod(rec.span("ccomplex.load", family.__dict__["load"].__func__))

    # fixture leaves are lru-cached; count calls and the misses that evaluate
    matrix_sig = fixtures._matrix_sig

    def traced_matrix_sig(matrix):
        sig = matrix_sig(matrix)
        leaf = rec.span("fixtures.leaf", sig)

        def counted(omega):
            misses = sig.cache_info().misses
            try:
                return leaf(omega)
            finally:
                counters["fixtures.leaf_calls"] += 1
                counters["fixtures.leaf_evals"] += sig.cache_info().misses - misses
        return counted
    _rebind(matrix_sig, traced_matrix_sig)

    # splice combinators: time the evaluators they return; count guards once
    def guarded(fn):
        def evaluate(omega):
            try:
                return fn(omega)
            except GuardViolated as err:
                if not getattr(err, "_bench_counted", False):
                    err._bench_counted = True
                    counters["splice.guard_raised"] += 1
                raise
        return evaluate

    def combinator(make):
        def traced_make(*args, **kwargs):
            f = make(*args, **kwargs)
            f.fn = rec.span("splice.combinator", guarded(f.fn))
            return f
        return traced_make

    for make in (splice.splice, splice.splice_knot, splice.lt_splice,
                 splice.cable_parallel, splice.merge_colors, splice.satellite,
                 splice.to_levine_tristram):
        _rebind(make, combinator(make))

    verify.CRITERIA[:] = [(name, rec.span(f"verify.{name}", fn))
                          for name, fn in verify.CRITERIA]


def main(argv) -> int:
    spans_path, request_id, *cli_args = argv
    rec = Recorder()
    root = rec.open("request")
    code = 1
    try:
        imported = rec.open("cli.import")
        from splicesig import cli
        rec.close(imported)
        install(rec)
        code = cli.main(cli_args)
    except SystemExit as err:  # argparse exits on bad arguments
        code = err.code if isinstance(err.code, int) else 1
    finally:
        rec.close(root)
        sys.stdout.flush()
        rec.dump(spans_path, request_id)
    return code


# -- parent side ------------------------------------------------------------

def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - covered[i] for i, (_, start, end, _) in enumerate(spans)]


def layer_metrics(docs) -> dict:
    """Per-layer metrics summed over the span files of one traced pass."""
    self_s, total_s, calls = {}, {}, {}
    counters = {name: 0 for name in MAX_COUNTERS + SUM_COUNTERS}
    for doc in docs:
        names, spans = doc["names"], doc["spans"]
        for (idx, start, end, _), own in zip(spans, self_times(spans)):
            name = names[idx]
            self_s[name] = self_s.get(name, 0.0) + own
            total_s[name] = total_s.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
        for name in MAX_COUNTERS:
            counters[name] = max(counters[name], doc["counters"][name])
        for name in SUM_COUNTERS:
            counters[name] += doc["counters"][name]
    table = {"self": self_s, "total": total_s, "calls": calls}
    out = {metric: table[kind].get(span, 0 if kind == "calls" else 0.0)
           for metric, (span, kind) in SPAN_METRICS.items()}
    out["ccomplex.form_calls"] = (calls.get("ccomplex.assemble", 0)
                                  + calls.get("ccomplex.fastpath", 0))
    out["fixtures.leaf_calls"] = counters["fixtures.leaf_calls"]
    out["fixtures.leaf_evals"] = counters["fixtures.leaf_evals"]
    leaf_calls = counters["fixtures.leaf_calls"]
    out["fixtures.leaf_cache_hit_ratio"] = (
        (leaf_calls - counters["fixtures.leaf_evals"]) / leaf_calls if leaf_calls else 0.0)
    out["splice.guard_raised"] = counters["splice.guard_raised"]
    out["cyclotomic.max_degree"] = counters["cyclotomic.max_degree"]
    out["cyclotomic.inertia_max_g"] = counters["cyclotomic.inertia_max_g"]
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
