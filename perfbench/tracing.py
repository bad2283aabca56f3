"""Spans around calls into seqlab's public functions, recorded from outside.

The traced run swaps each public function listed in LAYERS for a wrapper
in every seqlab module namespace that refers to it, so calls the CLI and the
library make to one another are traced too. Spans stay in memory and are
written out when the run ends. The untraced run never installs the wrappers.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time

# span name -> (module, attribute); "Class.method" patches the class
LAYERS: dict[str, list[tuple[str, str]]] = {
    "words.generate": [
        ("seqlab.words", "SequenceGenerator.letters"),
        ("seqlab.words", "SequenceGenerator.prefix"),
    ],
    "analysis.scan": [("seqlab.analysis", "max_fractional_power")],
    "analysis.balance": [("seqlab.analysis", "is_balanced")],
    "analysis.bispecial": [("seqlab.analysis", "bispecial_factors")],
    "analysis.return_words": [("seqlab.analysis", "return_words")],
    "analysis.occurrences": [("seqlab.analysis", "occurrences")],
    "analysis.derived": [("seqlab.analysis", "derived_sequence")],
    "exponents.bound": [
        ("seqlab.exponents", "colouring_exponent_bound"),
        ("seqlab.exponents", "repetitive_threshold_bound"),
        ("seqlab.exponents", "threshold_table"),
    ],
    "exponents.certificate": [
        ("seqlab.exponents", "coefficient_lower_bounds"),
        ("seqlab.exponents", "colouring_coefficient_certificate"),
    ],
    "golden.fib_properties": [("seqlab.golden", "verify_fib_properties")],
    "golden.sign": [("seqlab.golden", "GoldenNumber.sign")],
    "golden.render": [("seqlab.golden", "GoldenNumber.decimal")],
    "cli.main": [("seqlab.cli", "main")],
}

NAMESPACES = (
    "seqlab",
    "seqlab.golden",
    "seqlab.words",
    "seqlab.analysis",
    "seqlab.exponents",
    "seqlab.cli",
)

LAYER_NAMES = ("words", "analysis", "exponents", "golden", "cli")

# counts that depend only on the inputs, so every pass of one seed repeats them
COUNT_METRICS = (
    "words.letters",
    "analysis.scan_periods",
    "analysis.bispecials",
    "analysis.return_words_calls",
    "exponents.certificate_pairs",
    "golden.sign_calls",
    "cli.calls",
    "cli.bytes_out",
)


def _arg(args: tuple, kwargs: dict, index: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _generated(args, kwargs, result) -> int:
    return _arg(args, kwargs, 1, "n", 0)


def _scanned(args, kwargs, result) -> int:
    lo = _arg(args, kwargs, 2, "min_period", 1)
    hi = _arg(args, kwargs, 3, "max_period")
    if hi is None:
        horizon = _arg(args, kwargs, 1, "horizon")
        hi = max((horizon if horizon is not None else len(args[0])) // 2, 1)
    return hi - lo + 1


def _found(args, kwargs, result) -> int:
    return len(result)


def _certificate(args, kwargs, result) -> tuple[int, int]:
    return (result.search_limit + 1) ** 2 - 1, result.qualifying_pairs


# what a span counts, read from its arguments or result
COUNTERS = {
    "words.generate": _generated,
    "analysis.scan": _scanned,
    "analysis.bispecial": _found,
    "exponents.certificate": _certificate,
}


class Tracer:
    """Span recorder: (id, parent, op, name, start, end, self, value, error)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._next = 0
        self.op = 0
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name, fn, args, kwargs, counter=None):
        sid = self._next
        self._next += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, 0.0]
        self._stack.append(frame)
        error = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            error = False
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            value = None
            if counter is not None and not error:
                value = counter(args, kwargs, result)
            self.spans.append(
                (sid, parent, self.op, name, start, end, duration - frame[1], value, error)
            )

    def root(self, name, fn):
        """Run one benchmark operation under its own root span and op id."""
        self.op += 1
        return self.call(name, fn, (), {})

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)

        return traced

    def install(self) -> None:
        for name, targets in LAYERS.items():
            for module_name, attr in targets:
                home = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    self._saved.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(name, original))
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(name, original)
                for ns_name in NAMESPACES:
                    ns = importlib.import_module(ns_name)
                    if getattr(ns, attr, None) is original:
                        self._saved.append((ns, attr, original))
                        setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        fields = ["id", "parent", "op", "name", "start", "end", "self", "value", "error"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def pass_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans."""
    names = {s[0]: s[3] for s in spans}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    outer_s: dict[str, float] = {}
    values: dict[str, list] = {}
    for sid, parent, _op, name, start, end, self_time, value, _err in spans:
        self_s[name] = self_s.get(name, 0.0) + self_time
        calls[name] = calls.get(name, 0) + 1
        if names.get(parent) != name:  # outermost span of its kind
            outer_s[name] = outer_s.get(name, 0.0) + (end - start)
            if value is not None:
                values.setdefault(name, []).append(value)

    def total(name):
        return sum(values.get(name, []))

    letters = total("words.generate")
    periods = total("analysis.scan")
    pairs = sum(v[0] for v in values.get("exponents.certificate", []))
    qualifying = sum(v[1] for v in values.get("exponents.certificate", []))
    rw_calls = calls.get("analysis.return_words", 0)
    gen_s = outer_s.get("words.generate", 0.0)
    return {
        "words.generate_s": self_s.get("words.generate", 0.0),
        "words.letters": letters,
        "words.letters_per_s": letters / gen_s if gen_s else 0.0,
        "analysis.scan_s": self_s.get("analysis.scan", 0.0),
        "analysis.scan_periods": periods,
        "analysis.scan_ms_per_period": (
            1000 * outer_s.get("analysis.scan", 0.0) / periods if periods else 0.0
        ),
        "analysis.balance_s": self_s.get("analysis.balance", 0.0),
        "analysis.bispecial_s": self_s.get("analysis.bispecial", 0.0),
        "analysis.bispecials": total("analysis.bispecial"),
        "analysis.return_words_s": self_s.get("analysis.return_words", 0.0),
        "analysis.return_words_calls": rw_calls,
        "analysis.return_words_ms_per_call": (
            1000 * outer_s.get("analysis.return_words", 0.0) / rw_calls if rw_calls else 0.0
        ),
        "analysis.occurrences_s": self_s.get("analysis.occurrences", 0.0),
        "analysis.derived_s": self_s.get("analysis.derived", 0.0),
        "exponents.bound_s": self_s.get("exponents.bound", 0.0),
        "exponents.certificate_s": self_s.get("exponents.certificate", 0.0),
        "exponents.certificate_pairs": pairs,
        "exponents.qualifying_ratio": qualifying / pairs if pairs else 0.0,
        "golden.fib_properties_s": self_s.get("golden.fib_properties", 0.0),
        "golden.sign_s": self_s.get("golden.sign", 0.0),
        "golden.sign_calls": calls.get("golden.sign", 0),
        "golden.render_s": self_s.get("golden.render", 0.0),
        "cli.main_s": outer_s.get("cli.main", 0.0),
        "cli.self_s": self_s.get("cli.main", 0.0),
    }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
