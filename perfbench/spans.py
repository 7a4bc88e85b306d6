"""Span tracing at the layer boundaries, installed from outside the program.

`Tracer.installed()` replaces, for the duration of a `with` block, the
names through which `creditbounds.cli` and `creditbounds.risk` call into
another layer, plus `LossSample.sorted`, with wrappers that record a span
per call: name, operation, start, end and the enclosing span.  A span's
self time is its duration minus the time its child spans cover.  The
program's own code is not modified.

Only the calling thread is traced: every wrapped name is called from the
thread that runs the operation, never from the simulation worker pool.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from dataclasses import dataclass, field


class MissingBoundary(RuntimeError):
    """A boundary named by the benchmark is absent or recorded no span."""


@dataclass
class Span:
    name: str
    op: int
    parent: "Span | None"
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _sim_info(args, kwargs, result, sig):
    bound = sig.bind(*args, **kwargs).arguments
    return {
        "samples": bound["samples"],
        "profiles": bound.get("profiles"),
        "portfolio": bound["portfolio"],
    }


def _exact_info(args, kwargs, result, sig):
    bound = sig.bind(*args, **kwargs).arguments
    return {"profiles": bound["profiles"], "portfolio": bound["portfolio"], "support": result.size}


def _profiles_info(args, kwargs, result, sig):
    return {"profiles": result}


def boundaries(cli, risk, simulate):
    """(owner, attribute, span name, info hook) for every traced boundary.

    A name bound in both `cli` and `risk` is wrapped in both, because each
    module holds its own reference.
    """
    return [
        (cli, "load_scenario", "portfolio.load", None),
        (cli, "bound_profiles", "profiles.build", _profiles_info),
        (risk, "bound_profiles", "profiles.build", _profiles_info),
        (cli, "risk_report", "risk.report", None),
        (cli, "simulate_losses", "simulate.mc", _sim_info),
        (risk, "simulate_losses", "simulate.mc", _sim_info),
        (risk, "simulate_independent", "simulate.mc", _sim_info),
        (risk, "simulate_comonotone", "simulate.mc", _sim_info),
        (cli, "exact_loss_distribution", "simulate.exact", _exact_info),
        (cli, "sup_cdf_distance", "simulate.sup_distance", None),
        (risk, "avar", "risk.avar", None),
        (risk, "batch_standard_error", "risk.se", None),
        (simulate.LossSample, "sorted", "risk.sort", None),
    ]


class Tracer:
    """Records spans in memory; `spans` lists them in completion order."""

    def __init__(self, cli, risk, simulate):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[Span] = []
        self._boundaries = boundaries(cli, risk, simulate)
        for owner, attr, _, _ in self._boundaries:
            if not hasattr(owner, attr):
                raise MissingBoundary(f"{getattr(owner, '__name__', owner)}.{attr} no longer exists")

    def call(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        return self._wrap(name, fn, None)(*args, **kwargs)

    def _wrap(self, name, fn, info_hook):
        sig = inspect.signature(fn) if info_hook is not None else None
        skip_sorted = name == "risk.sort"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # count only LossSample.sorted calls that actually sort
            if skip_sorted and args[0].is_sorted:
                return fn(*args, **kwargs)
            span = Span(name, self.op, self._stack[-1] if self._stack else None)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration
                self.spans.append(span)
            if info_hook is not None:
                span.info = info_hook(args, kwargs, result, sig)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block, then restore it."""
        saved = []
        try:
            for owner, attr, name, hook in self._boundaries:
                # read through __dict__ so a method is saved unbound
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def require(self, names) -> None:
        """Fail loudly if a boundary the workload must cross recorded no span."""
        seen = {s.name for s in self.spans}
        missing = sorted(set(names) - seen)
        if missing:
            raise MissingBoundary(f"no span recorded at boundary {', '.join(missing)}")

    def of(self, name, op=None):
        return [s for s in self.spans if s.name == name and (op is None or s.op == op)]
