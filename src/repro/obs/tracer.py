"""Span tracing for the BEES pipeline.

A :class:`Tracer` produces nested, wall-clock-timed :class:`Span`\\ s via
a context manager::

    with tracer.span("bees.batch", scheme="BEES", n_images=30) as span:
        with tracer.span("bees.afe", image_id="img-0"):
            ...
        span.set_attribute("bytes_sent", 1234)

Finished spans accumulate on ``tracer.finished`` (in completion order)
and serialise to JSONL through :mod:`repro.obs.exporters`.  A disabled
tracer hands out one shared, stateless :data:`NULL_SPAN` context
manager, so instrumentation left in hot paths costs a dict build and an
attribute check — nothing else.

The tracer is **thread-safe**: each thread nests spans on its own
active stack (so concurrent fleet devices cannot corrupt each other's
parentage), while span-id allocation and the ``finished`` list are
lock-protected.

**Cross-thread propagation.**  A span opened in a worker thread has no
parent by default — worker-pool threads know nothing about the span the
coordinating thread had open when it submitted the job.  The supported
fix is explicit context capture::

    context = tracer.current_context()        # on the coordinator

    def job():                                # on a pool thread
        with tracer.attach(context):
            with tracer.span("fleet.device"):  # child of the captured span
                ...

:meth:`Tracer.attach` seats the captured span at the bottom of the
worker thread's active stack for the duration of the block, so *every*
span the job opens — the explicit ``fleet.device`` one and anything the
pipeline opens transitively — lands in one connected trace tree.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    """One timed operation, possibly nested under a parent."""

    name: str
    span_id: int
    parent_id: "int | None"
    #: Wall-clock epoch seconds when the span opened.
    start: float
    #: Seconds the span stayed open (filled on exit).
    duration: float = 0.0
    attributes: dict = field(default_factory=dict)
    #: ``"ExcType: message"`` when the span exited via an exception.
    error: "str | None" = None
    _t0: float = field(default=0.0, repr=False)

    def set_attribute(self, key: str, value: object) -> None:
        """Attach (or overwrite) one attribute."""
        self.attributes[key] = value

    def to_dict(self) -> dict:
        """The JSONL representation of this span."""
        record = {
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "attributes": self.attributes,
        }
        if self.error is not None:
            record["error"] = self.error
        return record


@dataclass(frozen=True)
class TraceContext:
    """A capture of "the span this thread is inside right now".

    Produced by :meth:`Tracer.current_context` on the thread that owns
    the span, handed (it is immutable) to worker threads, and activated
    there with :meth:`Tracer.attach`.  An empty context (``span is
    None``) attaches as a no-op, so capture sites never need to guard
    against "no span open".
    """

    span: "Span | None" = None

    @property
    def span_id(self) -> "int | None":
        """The captured span's id, or ``None`` for an empty context."""
        return self.span.span_id if self.span is not None else None


#: The shared empty context: attaching it is a no-op.
EMPTY_CONTEXT = TraceContext(span=None)


class _NullSpan:
    """The reusable no-op span: accepts everything, records nothing.

    Stateless, so one shared instance can be (re-)entered from any
    number of ``with`` blocks, including nested ones.
    """

    __slots__ = ()

    def set_attribute(self, key: str, value: object) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False  # never swallow exceptions


#: Shared no-op span/context-manager handed out by disabled tracers.
NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context manager that opens a span on a tracer's active stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._stack.append(self._span)
        return self._span

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        span = self._span
        span.duration = time.perf_counter() - span._t0
        if exc_type is not None:
            span.error = f"{exc_type.__name__}: {exc_value}"
        stack = self._tracer._stack
        # Exception safety: pop *this* span even if inner spans leaked.
        while stack:
            popped = stack.pop()
            if popped is span:
                break
        with self._tracer._lock:
            self._tracer.finished.append(span)
        return False


class _AttachedContext:
    """Context manager seating a captured span on this thread's stack.

    The foreign span goes *underneath* whatever this thread opens next,
    so every span the block creates parents correctly into the captured
    trace.  The span itself stays owned (and will be closed) by the
    capturing thread — attach never closes it.
    """

    __slots__ = ("_tracer", "_context")

    def __init__(self, tracer: "Tracer", context: TraceContext) -> None:
        self._tracer = tracer
        self._context = context

    def __enter__(self) -> TraceContext:
        if self._context.span is not None:
            self._tracer._stack.append(self._context.span)
        return self._context

    def __exit__(self, *exc_info: object) -> bool:
        span = self._context.span
        if span is not None:
            stack = self._tracer._stack
            # Remove the seated span (search from the top: inner spans
            # that leaked on an exception path sit above it).
            for index in range(len(stack) - 1, -1, -1):
                if stack[index] is span:
                    del stack[index]
                    break
        return False


class _ActiveStacks(threading.local):
    """Per-thread active-span stacks."""

    def __init__(self) -> None:
        self.spans: "list[Span]" = []


class Tracer:
    """Produces nested spans; collects them as they finish.

    Safe for concurrent use: span nesting is per-thread, completion
    bookkeeping is locked.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.finished: "list[Span]" = []
        self._stacks = _ActiveStacks()
        self._next_id = 0
        self._lock = threading.Lock()

    @property
    def _stack(self) -> "list[Span]":
        """The calling thread's active-span stack."""
        return self._stacks.spans

    def span(self, name: str, **attributes: object):
        """Open a span nested under the calling thread's active one.

        For jobs crossing threads, capture a :class:`TraceContext` and
        :meth:`attach` it in the worker.
        """
        if not self.enabled:
            return NULL_SPAN
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack = self._stack
        span = Span(
            name=name,
            span_id=span_id,
            parent_id=stack[-1].span_id if stack else None,
            start=time.time(),
            attributes=dict(attributes),
            _t0=time.perf_counter(),
        )
        return _SpanContext(self, span)

    # -- cross-thread propagation -------------------------------------------

    def current_context(self) -> TraceContext:
        """Capture the calling thread's innermost open span as a context.

        Returns :data:`EMPTY_CONTEXT` when no span is open (or the
        tracer is disabled), so the result is always safe to attach.
        """
        if not self.enabled:
            return EMPTY_CONTEXT
        stack = self._stack
        return TraceContext(span=stack[-1]) if stack else EMPTY_CONTEXT

    def attach(self, context: TraceContext):
        """Seat *context* under the calling thread's spans for a block.

        The worker-thread half of cross-thread propagation; see the
        module docstring for the capture/attach protocol.
        """
        if not self.enabled:
            return NULL_SPAN
        return _AttachedContext(self, context)

    @property
    def active(self) -> "Span | None":
        """The calling thread's innermost open span, if any."""
        stack = self._stack
        return stack[-1] if stack else None

    def reset(self) -> None:
        """Drop all finished spans and this thread's leaked open ones."""
        with self._lock:
            self.finished.clear()
            self._next_id = 0
        self._stack.clear()

    def snapshot_finished(self) -> "list[Span]":
        """A consistent copy of the finished list (for exporters)."""
        with self._lock:
            return list(self.finished)

    def __len__(self) -> int:
        return len(self.finished)
