"""In-memory span tracing of the singmat layers.

A :class:`Tracer` wraps the public functions of each ``singmat`` module
and records one span per call: name, start, end, parent span and, for a
few functions, the outcome needed by the derived metrics.  A wrapper
replaces every ``singmat`` module attribute that *is* the original
function, so internal aliases (``certify`` binds ``exactla.det_mod``
under a private name; ``harness`` imports ``run_trial``'s callees by
name) are traced without naming private symbols.  Functions that a
later version of the package no longer has are skipped; their metrics
then read 0.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# Traced functions by layer (module), as "<function>" or "<Class>.<method>".
TRACED = (
    ("harness", ("run_trial", "verify_lemma21", "verify_complement")),
    ("models", ("sample", "sample_row", "find_duplicate_or_zero_lines", "complement")),
    ("matrices", (
        "BitMatrix.to_lists", "BitMatrix.transpose", "BitMatrix.to_int_matrix",
        "BitMatrix.to_bit_array",
    )),
    ("exactla", (
        "rank_gf2", "det_mod", "kernel_vector_crt", "kernel_rational", "det_exact",
        "kernel_gf2", "hadamard_bound",
    )),
    ("certify", ("is_singular_exact", "verify_certificate")),
    ("structure", ("enumerate_gf2_kernel_min_support", "eval_predicate")),
    ("bounds", ("max_atom_bernoulli", "max_atom_combinatorial")),
    ("modular", ("random_prime", "crt_primes", "is_prime")),
    ("rng", ("u64_block",)),
)
SPAN_NAMES = tuple(f"{module}.{fn}" for module, fns in TRACED for fn in fns)

CERT = "certify.is_singular_exact"
VERIFY = "certify.verify_certificate"
DET_MOD = "exactla.det_mod"
LIFT = "exactla.kernel_vector_crt"
CRT_PRIMES = "modular.crt_primes"
DECIDED = ("gf2", "prime", "structural", "lift", "det")

# What a span keeps of its call, for the spans the derived metrics read.
_KEEP = {
    CERT: lambda args, kwargs, result: (args[0] if args else kwargs["m"], result),
    DET_MOD: lambda args, kwargs, result: result == 0,
}

# Every benchmark time is CPU time of the measuring process.  singmat runs
# single-threaded here, so this equals wall time on an idle machine, and
# it leaves out the time other tenants of a shared machine keep the
# process waiting.
CLOCK = time.process_time

# Span fields: [name, start, end, parent index (-1 for a root), kept outcome, error].
NAME, START, END, PARENT, KEPT, ERROR = range(6)


def _singmat_modules() -> list:
    return [m for name, m in sys.modules.items() if name == "singmat" or name.startswith("singmat.")]


class Tracer:
    """Records spans for the traced functions while installed."""

    def __init__(self, names=SPAN_NAMES):
        self.names = frozenset(names)
        self.spans: list[list] = []
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        modules = _singmat_modules()
        for module_name, functions in TRACED:
            module = sys.modules.get(f"singmat.{module_name}")
            for qualname in functions:
                name = f"{module_name}.{qualname}"
                if module is None or name not in self.names:
                    continue
                owner, _, attr = qualname.rpartition(".")
                target = getattr(module, owner, None) if owner else module
                original = vars(target).get(attr) if target is not None else None
                if original is None:
                    continue
                wrapper = self._wrap(name, original)
                if owner:
                    self._patch(target, attr, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            obj, attr, original = self._patched.pop()
            setattr(obj, attr, original)

    def _patch(self, obj, attr: str, wrapper) -> None:
        self._patched.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, wrapper)

    def _wrap(self, name: str, fn):
        spans, stack, clock, keep = self.spans, self._stack, CLOCK, _KEEP.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1], None, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if keep is not None:
                span[KEPT] = keep(args, kwargs, result)
            return result

        return traced

    def durations(self, name: str) -> list[float]:
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]

    def certificates(self) -> list[tuple]:
        """(matrix, certificate) for every is_singular_exact call that returned."""
        return [s[KEPT] for s in self.spans if s[NAME] == CERT and s[KEPT] is not None]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def _ancestor(spans: list[list], index: int, name: str) -> int:
    parent = spans[index][PARENT]
    while parent >= 0 and spans[parent][NAME] != name:
        parent = spans[parent][PARENT]
    return parent


def decided_by(cert) -> str:
    """Which stage a certificate's witness comes from."""
    if cert.kernel_vector is not None:
        support = sorted(v for v in cert.kernel_vector if v)
        return "structural" if support in ([1], [-1, 1]) else "lift"
    if cert.prime == 2:
        return "gf2"
    return "prime" if cert.prime is not None else "det"


def layer_metrics(spans: list[list], trials: int) -> dict[str, float]:
    """Per-trial calls and self time of every traced function, plus the
    derived certify and lift metrics."""
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        calls[s[NAME]] += 1
        self_s[s[NAME]] += own
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name] / trials
        out[f"{name}.self_ms"] = 1e3 * self_s[name] / trials

    lift_failed = lift_primes = screens = wasted = 0
    verify_s = cert_s = 0.0
    decided: Counter = Counter()
    primes_tried = []
    for i, s in enumerate(spans):
        if s[NAME] == LIFT and s[ERROR] == "KernelLiftFailed":
            lift_failed += 1
        elif s[NAME] == CRT_PRIMES and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == LIFT:
            lift_primes += 1
        elif s[NAME] == CERT and s[KEPT] is not None:
            cert = s[KEPT][1]
            cert_s += s[END] - s[START]
            decided[decided_by(cert)] += 1
            primes_tried.append(len(cert.stats.primes_tried))
        elif s[NAME] == VERIFY and _ancestor(spans, i, CERT) >= 0:
            verify_s += s[END] - s[START]
        elif s[NAME] == DET_MOD:
            owner = _ancestor(spans, i, CERT)
            if owner >= 0:
                screens += 1
                kept = spans[owner][KEPT]
                wasted += bool(s[KEPT] and kept is not None and kept[1].is_singular)
    out[f"{LIFT}.failed"] = lift_failed / trials
    out[f"{LIFT}.primes"] = lift_primes / trials
    for stage in DECIDED:
        out[f"certify.decided.{stage}"] = decided[stage] / trials
    out["certify.primes_per_cert"] = sum(primes_tried) / len(primes_tried) if primes_tried else 0.0
    out["certify.screen_waste"] = wasted / screens if screens else 0.0
    out["certify.verify_share"] = verify_s / cert_s if cert_s else 0.0
    return out
