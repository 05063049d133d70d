"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each traced function with a wrapper that
records a span around the call.  The betabound modules bind names with
``from .x import f``, so the wrapper replaces every module attribute that
refers to the original function (``constructor.best_flag_bound``,
``cli.best_flag_bound``, ``threshold.is_ample``, ...);
``PfaffianCache.pfaffian_of`` is replaced on the class.  ``uninstall``
puts the originals back.

A span's self time is its duration minus the time of its child spans.
Spans stay in memory, aggregated per (request id, function, parent
function), and are written out when the benchmark ends.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (module, function) in call-graph order; the module is the layer.
TRACED = (
    ("cli", "main"),
    ("cli", "build_parser"),
    ("cli", "run"),
    ("cli", "render"),
    ("constructor", "general_beta"),
    ("constructor", "brute_search"),
    ("constructor", "certify"),
    ("threshold", "best_flag_bound"),
    ("threshold", "flag_profile"),
    ("threshold", "flag_lower_bound"),
    ("threshold", "combine_interval"),
    ("torusmodel", "alt_form"),
    ("torusmodel", "chi_multilinear"),
    ("torusmodel", "chi_pfaffian"),
    ("torusmodel", "polarization_type"),
    ("torusmodel", "k_group"),
    ("torusmodel", "is_ample"),
    ("torusmodel", "restrict"),
    ("exactmath", "smith_normal_form"),
    ("exactmath", "PfaffianCache.pfaffian_of"),
    ("exactmath", "leading_minors_all_positive"),
    ("syzygy", "np_report"),
    ("surfacetable", "surface_beta"),
)

LAYERS = ("cli", "constructor", "threshold", "torusmodel", "exactmath", "syzygy", "surfacetable")


class Tracer:
    """Spans and layer-boundary counters of the betabound calls made while installed."""

    def __init__(self):
        self.request: int | None = None
        self.spans: dict[tuple, list] = {}  # (request, name, parent) -> [calls, total_s, self_s]
        self.counters = {
            "constructor.certify.ok": 0,
            "constructor.certify.rejected.not_ample": 0,
            "constructor.certify.rejected.degenerate": 0,
            "constructor.certify.rejected.wrong_type": 0,
            "torusmodel.is_ample.in_flag.calls": 0,
            "cli.render.bytes": 0,
        }
        self._stack: list[list] = []  # [name, start, child_s]
        self._restore: list[tuple] = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "betabound" or name.startswith("betabound.")]
        for layer, qualname in TRACED:
            module = sys.modules[f"betabound.{layer}"]
            name = f"{layer}.{qualname}"
            if "." in qualname:  # a method, replaced on its class
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, attr, self._wrap(name, getattr(cls, attr)))
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        stack = self._stack

        def traced(*args, **kwargs):
            mark = before() if before is not None else None
            stack.append([name, perf_counter(), 0.0])
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                raise
            finally:
                self._close(perf_counter())
                if after is not None:
                    after(result, exc, mark)

        return traced

    def _close(self, end: float) -> None:
        name, start, child = self._stack.pop()
        duration = end - start
        parent = None
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][0]
        entry = self.spans.setdefault((self.request, name, parent), [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child

    # -- counters measured at the layer boundaries -------------------------

    def _after_constructor_certify(self, result, exc, mark) -> None:
        if exc is None:
            self.counters["constructor.certify.ok"] += 1
        elif type(exc).__name__ == "NotAmpleError":
            self.counters["constructor.certify.rejected.not_ample"] += 1
        elif type(exc).__name__ == "DegenerateFormError":
            self.counters["constructor.certify.rejected.degenerate"] += 1

    def _before_constructor_brute_search(self) -> int:
        return self.counters["constructor.certify.ok"]

    def _after_constructor_brute_search(self, result, exc, mark) -> None:
        # certified inside this search, then dropped for having another type
        if exc is None:
            certified = self.counters["constructor.certify.ok"] - mark
            self.counters["constructor.certify.rejected.wrong_type"] += certified - len(result)

    def _after_torusmodel_is_ample(self, result, exc, mark) -> None:
        if any(frame[0] == "threshold.best_flag_bound" for frame in self._stack):
            self.counters["torusmodel.is_ample.in_flag.calls"] += 1

    def _after_cli_render(self, result, exc, mark) -> None:
        if exc is None:
            self.counters["cli.render.bytes"] += len(result.encode())

    # -- results ------------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """[calls, self_s] per traced function, summed over requests."""
        out = {f"{layer}.{qualname}": [0, 0.0] for layer, qualname in TRACED}
        for (_, name, _), (calls, _, self_s) in self.spans.items():
            out[name][0] += calls
            out[name][1] += self_s
        return out

    def span_records(self) -> list[dict]:
        return [
            {"request": req, "name": name, "parent": parent, "calls": calls, "total_s": total, "self_s": self_s}
            for (req, name, parent), (calls, total, self_s) in self.spans.items()
        ]
