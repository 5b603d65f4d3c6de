"""Per-layer spans and counts, taken by wrapping krylreg from outside.

The layers are krylreg's modules.  :class:`Tracer` replaces each public
function listed in ``FUNCTION_LAYERS`` by a wrapper in every krylreg
namespace that holds it (``hybrid`` imports ``lsqr_solve`` by name, for
instance), and the ``apply``/``apply_adjoint`` methods of each operator
class in ``OPERATOR_LAYERS``.  Nothing under ``src/`` changes; leaving the
``with`` block restores the originals.

A wrapper opens a span on entry and closes it on exit.  Spans are not
kept: as each closes, its duration minus the time of the spans opened
inside it is added to its layer's self time, so memory stays flat over
hundreds of thousands of operator calls.  A name that a later refactor
removes is recorded in ``absent`` and its layer reads 0.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

FUNCTION_LAYERS = {
    "harness": {"harness": ("run_experiment",)},
    "problems": {
        "problems": (
            "build_problem", "gen_shaw", "gen_baart", "gen_deriv2", "gen_heat",
            "gen_blur2d", "make_L", "add_noise",
        ),
    },
    "hybrid": {"hybrid": ("run_hybrid", "inner_solve", "hyb_cgme_step", "hyb_tcgme_step")},
    "lsqr": {"lsqr": ("lsqr_solve",)},
    "bidiag": {"bidiag": ("bidiag_init", "bidiag_extend", "extract_matrices", "lower_bidiagonal")},
    # solvers covers the small dense kernels it calls, too
    "solvers": {
        "solvers": ("cgme_iterate", "tcgme_iterate"),
        "dense_kernels": ("svd_small", "bidiag_solve", "truncated_pinv_apply"),
    },
    "metrics": {"metrics": ("relative_error", "analyze_curve")},
}

OPERATOR_LAYERS = {
    "operators.projected": ("ProjectedOperator",),
    "operators.diff": ("FirstDifferenceOperator", "Stacked2DDifferenceOperator", "IdentityOperator"),
    "operators.dense": ("DenseOperator",),
    "operators.blur": ("KroneckerBlurOperator",),
}

OPERATOR_METHODS = ("apply", "apply_adjoint")

_F64 = 8
_INHERITED = object()


def _is_breakdown(exc) -> bool:
    return exc is not None and type(exc).__name__ == "GolubKahanBreakdown"


# Hooks run as a span closes: post(tracer, args, result, exc, ctx), where
# ctx is what pre(args) returned on entry.

def _lsqr_post(tracer, args, report, exc, ctx):
    if report is None:
        return
    c = tracer.counts
    c["lsqr.iters"] += getattr(report, "iterations", 0)
    stop = getattr(report, "stop_reason", None)
    c["lsqr.cap_hits"] += stop == "max_iters"
    c["lsqr.converged"] += stop == "backward_error"


def _init_post(tracer, args, state, exc, ctx):
    tracer.counts["bidiag.inits"] += 1
    tracer.counts["bidiag.breakdowns"] += _is_breakdown(exc)


def _extend_pre(args):
    return args[0].k


def _extend_post(tracer, args, state, exc, k_before):
    tracer.counts["bidiag.steps"] += args[0].k - k_before
    tracer.counts["bidiag.breakdowns"] += _is_breakdown(exc)


def _build_post(tracer, args, problem, exc, ctx):
    tracer.counts["problems.builds"] += 1


def _relative_error_post(tracer, args, value, exc, ctx):
    # one relative error per outer step, evaluated by the hybrid layer
    if tracer.parent_layer() == "hybrid":
        tracer.counts["hybrid.steps"] += 1


def _projected_post(tracer, args, result, exc, ctx):
    # Q^T v and Q (Q^T v) each read Q; the vector updates read and write
    # about five length-n vectors.  Computed from array sizes.
    n, k = args[0].Q.shape
    tracer.counts["operators.projected.bytes_computed"] += _F64 * (2 * n * k + 5 * n)


def _dense_post(tracer, args, result, exc, ctx):
    op = args[0]
    tracer.counts["operators.dense.bytes_computed"] += op.entries.nbytes + _F64 * (op.rows + op.cols)


HOOKS = {
    "lsqr.lsqr_solve": (None, _lsqr_post),
    "bidiag.bidiag_init": (None, _init_post),
    "bidiag.bidiag_extend": (_extend_pre, _extend_post),
    "problems.build_problem": (None, _build_post),
    "metrics.relative_error": (None, _relative_error_post),
    "operators.projected": (None, _projected_post),
    "operators.dense": (None, _dense_post),
}


class Tracer:
    """Context manager that wraps krylreg while it is active.

    ``self_s`` maps a layer to its self time in seconds and ``counts``
    holds ``<layer>.calls`` plus the hook counts.  Both accumulate over
    every ``with`` block of one tracer.
    """

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._open: list[list] = [["root", 0.0]]  # [layer, child seconds]
        self._undo: list[tuple] = []

    def parent_layer(self) -> str:
        """Layer of the span enclosing the one that is closing."""
        return self._open[-1][0]

    def _wrap(self, layer: str, hook_key: str, fn):
        pre, post = HOOKS.get(hook_key, (None, None))
        open_spans = self._open
        self_s = self.self_s
        counts = self.counts
        calls = layer + ".calls"
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            ctx = pre(args) if pre is not None else None
            open_spans.append([layer, 0.0])
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                exc = err
                raise
            finally:
                dt = clock() - t0
                child = open_spans.pop()[1]
                open_spans[-1][1] += dt
                self_s[layer] += dt - child
                counts[calls] += 1
                if post is not None:
                    post(tracer, args, result, exc, ctx)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "krylreg" or name.startswith("krylreg."))]
        self.absent = []
        for layer, by_module in FUNCTION_LAYERS.items():
            for mod_name, names in by_module.items():
                mod = sys.modules.get(f"krylreg.{mod_name}")
                for name in names:
                    original = getattr(mod, name, None)
                    if original is None:
                        self.absent.append(f"{mod_name}.{name}")
                        continue
                    wrapper = self._wrap(layer, f"{mod_name}.{name}", original)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is original:
                                setattr(m, attr, wrapper)
                                self._undo.append((m, attr, original))
        operators = sys.modules.get("krylreg.operators")
        for layer, class_names in OPERATOR_LAYERS.items():
            for cls_name in class_names:
                cls = getattr(operators, cls_name, None)
                for meth in OPERATOR_METHODS:
                    original = getattr(cls, meth, None)
                    if original is None:
                        self.absent.append(f"operators.{cls_name}.{meth}")
                        continue
                    own = original if meth in vars(cls) else _INHERITED
                    setattr(cls, meth, self._wrap(layer, layer, original))
                    self._undo.append((cls, meth, own))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def absent_layers(self) -> list[str]:
        """Layers none of whose wrapped names exist any more."""
        gone = set(self.absent)
        out = []
        for layer, by_module in FUNCTION_LAYERS.items():
            names = [f"{m}.{n}" for m, ns in by_module.items() for n in ns]
            if all(n in gone for n in names):
                out.append(layer)
        for layer, class_names in OPERATOR_LAYERS.items():
            names = [f"operators.{c}.{m}" for c in class_names for m in OPERATOR_METHODS]
            if all(n in gone for n in names):
                out.append(layer)
        return out


def layer_metrics(counts: Counter, self_s: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, as name -> (value, unit).

    Every ``bytes_computed`` value is computed from array sizes, not
    measured; its unit says so.
    """
    out: dict[str, tuple[float, str]] = {}

    def count(name, key=None):
        out[name] = (int(counts[key or name]), "count")

    def seconds(layer):
        out[f"{layer}.self_s"] = (float(self_s.get(layer, 0.0)), "s")

    count("lsqr.calls")
    count("lsqr.iters")
    seconds("lsqr")
    count("lsqr.cap_hits")
    calls = counts["lsqr.calls"]
    out["lsqr.converged_ratio"] = (counts["lsqr.converged"] / calls if calls else 0.0, "ratio")
    for layer in OPERATOR_LAYERS:
        count(f"{layer}.calls")
        seconds(layer)
        if layer in HOOKS:
            out[f"{layer}.bytes_computed"] = (int(counts[f"{layer}.bytes_computed"]), "bytes-computed")
    for name in ("bidiag.inits", "bidiag.steps", "bidiag.breakdowns"):
        count(name)
    seconds("bidiag")
    count("solvers.calls")
    seconds("solvers")
    count("hybrid.steps")
    seconds("hybrid")
    count("metrics.calls")
    seconds("metrics")
    count("problems.builds")
    seconds("problems")
    seconds("harness")
    return out
