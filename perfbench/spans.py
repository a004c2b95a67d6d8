"""Per-layer spans, recorded from outside the program.

`Tracer.install` wraps public functions of the encwrithe modules and patches
each wrapper into every encwrithe module that holds the original object
(methods are patched on their class). A wrapped call appends one span,
(name, start, end, parent span, operation id), to a list in memory; the
spans are written out when the run ends. A layer's self time is its spans'
duration minus the time their child spans cover.

A target that the program no longer has is skipped: its metrics read 0 and
the run goes on.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

# (module, attribute or Class.method, metric prefix); the prefix names the layer
SPAN_TARGETS = (
    ("encwrithe.cli", "main", "cli.main"),
    ("encwrithe.fileio", "parse_curve_file", "fileio.parse_curve_file"),
    ("encwrithe.curves", "validate_link", "curves.validate_link"),
    ("encwrithe.projection", "sample_generic_center", "projection.sample_generic_center"),
    ("encwrithe.projection", "analyze_projection", "projection.analyze_projection"),
    ("encwrithe.projection", "normalize_center", "projection.normalize_center"),
    ("encwrithe.elimination", "solve_system", "elimination.solve_system"),
    ("encwrithe.bipoly", "resultant_bivariate", "bipoly.resultant_bivariate"),
    ("encwrithe.upoly", "poly_gcd", "upoly.poly_gcd"),
    ("encwrithe.algnum", "algebraic_value", "algnum.algebraic_value"),
    ("encwrithe.algnum", "isolate_real_roots", "algnum.isolate_real_roots"),
    ("encwrithe.algnum", "AlgebraicNumber.sign_of_poly", "algnum.sign_of_poly"),
    ("encwrithe.writhe", "solitary_sign_raw", "writhe.solitary_sign_raw"),
    ("encwrithe.writhe", "crossing_sign_raw", "writhe.crossing_sign_raw"),
    ("encwrithe.verify", "scan_family", "verify.scan_family"),
)
# hot and tiny: counted, not spanned
COUNT_TARGETS = (("encwrithe.algnum", "AlgebraicNumber.refine", "algnum.refine"),)

SAMPLER = "projection.sample_generic_center"
ANALYSIS = "projection.analyze_projection"
RESULTANT = "bipoly.resultant_bivariate"
SOLVE = "elimination.solve_system"


def coefficient_bits(poly) -> int:
    """Largest numerator or denominator bit length among the coefficients."""
    best = 0
    for c in getattr(poly, "coeffs", ()):
        q = Fraction(c)
        best = max(best, q.numerator.bit_length(), q.denominator.bit_length())
    return best


def eliminant_degree(solution) -> int:
    eliminant = getattr(solution, "gcd_eliminant", None)
    return max(getattr(eliminant, "degree", 0), 0)


# result observers: span name -> (metric, unit, function of the wrapped call's result)
MAXIMA = {
    RESULTANT: ("bipoly.resultant_bivariate.bits_max", "bits", coefficient_bits),
    SOLVE: ("elimination.eliminant_degree_max", "count", eliminant_degree),
}


def _resolve(module_name: str, qualname: str):
    """(owner, attribute, original) or None when the target is gone."""
    module = sys.modules.get(module_name)
    if module is None:
        return None
    owner = module
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(original):
        return None
    return owner, attr, original


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index or -1, operation id, completed]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        spans, stack = self.spans, self.stack
        observer = MAXIMA.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op_id, False]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                span[5] = True
            finally:
                span[2] = perf_counter()
                stack.pop()
            if observer is not None:
                self._observe(observer, result)
            return result

        return traced

    def _observe(self, observer, result) -> None:
        metric, _, measure = observer
        try:
            value = measure(result)
        except (TypeError, ValueError):
            return  # a result of another shape than today's: leave the maximum alone
        self.maxima[metric] = max(self.maxima[metric], value)

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Patch every target into each loaded encwrithe module that holds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "encwrithe" or n.startswith("encwrithe.")]
        for targets, make in ((SPAN_TARGETS, self._span_wrapper), (COUNT_TARGETS, self._count_wrapper)):
            for module_name, qualname, name in targets:
                found = _resolve(module_name, qualname)
                if found is None:
                    self.missing.append(name)
                    continue
                owner, attr, original = found
                wrapper = make(name, original)
                if isinstance(owner, type):
                    setattr(owner, attr, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)

    # -- results -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children
        (children of one span run one after another in a single thread)."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as (value, unit); calls and self times are per
        pass over the corpus."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            calls[span[0]] += 1
            self_s[span[0]] += own
        draws = sum(
            1 for s in self.spans if s[0] == ANALYSIS and s[3] >= 0 and self.spans[s[3]][0] == SAMPLER
        )
        accepted = sum(1 for s in self.spans if s[0] == SAMPLER and s[5])
        out = {}
        for _, _, name in SPAN_TARGETS:
            out[f"{name}.calls"] = (calls[name] / rounds, "count")
            out[f"{name}.self_s"] = (self_s[name] / rounds, "s")
        for _, _, name in COUNT_TARGETS:
            out[f"{name}.calls"] = (self.counts[name] / rounds, "count")
        out["projection.sampler.draws"] = (draws / rounds, "count")
        out["projection.sampler.accept_ratio"] = (accepted / draws if draws else 0.0, "ratio")
        for metric, unit, _ in MAXIMA.values():
            out[metric] = (self.maxima[metric], unit)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span[:5]) + "\n")
