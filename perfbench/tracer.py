"""An outside-in tracer: spans around the program's functions, from outside.

The program carries no instrumentation of its own for this benchmark.
Instead, :meth:`Tracer.install` replaces *every binding* of each listed
function with one wrapper that records a span per call:

* the defining module's attribute;
* every loaded ``repro`` module that imported the function by name
  (``repro.queries.rewrite.minimize`` as well as
  ``repro.queries.homomorphism.minimize``);
* the class attribute, for methods.

A span is ``[name, start, end, parent, op, child_seconds, attrs]``. Spans
nest per thread; a span's *self time* is its duration minus the time its
child spans cover. Children run on the parent's thread and one after the
other, so the covered time is the sum of their durations. Every span
belongs to an *operation* (``op``): an op-root span opens a new one, and
other spans inherit it from their parent or, on a thread with no open
span, from the thread's current op (:meth:`Tracer.set_op`).

Spans stay in memory; :meth:`Tracer.records` flattens them for writing
out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

NAME, START, END, PARENT, OP, CHILD, ATTRS = range(7)


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    ``qualname`` is ``"function"`` or ``"Class.method"`` inside
    ``module``. ``name`` is the span name, or a callable of the call's
    ``(args, kwargs)`` returning it. ``before(tracer, args, kwargs)`` runs
    before the span opens and its value reaches ``observe(tracer, args,
    kwargs, result, before_value)``, whose dict becomes the span's
    attributes. ``op_root`` spans open a new operation.
    """

    module: str
    qualname: str
    name: str | Callable[[tuple, dict], str]
    observe: Callable[..., dict | None] | None = None
    before: Callable[..., Any] | None = None
    op_root: bool = False

    @property
    def key(self) -> str:
        return f"{self.module}.{self.qualname}"


class Tracer:
    """Span recorder plus the binding patcher."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._op_ids = itertools.count(1)
        self._patched: list[tuple[Any, str, Any]] = []
        self.originals: dict[str, Any] = {}
        self.wrappers: dict[str, Any] = {}

    # -- spans -----------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_op(self) -> int:
        return getattr(self._local, "op", 0)

    def set_op(self, op: int) -> None:
        """Attribute this thread's parentless spans to ``op`` from now on."""
        self._local.op = op

    def begin(self, name: str, new_op: bool = False) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if new_op:
            op = next(self._op_ids)
            self._local.op = op
        elif parent is not None:
            op = parent[OP]
        else:
            op = self.current_op()
        span = [name, 0.0, 0.0, parent, op, 0.0, None]
        self.spans.append(span)
        stack.append(span)
        span[START] = time.perf_counter()
        return span

    def end(self, span: list) -> None:
        span[END] = end = time.perf_counter()
        self._stack().pop()
        if span[PARENT] is not None:
            span[PARENT][CHILD] += end - span[START]

    @contextmanager
    def op(self, name: str, **attrs: Any):
        """One operation of the workload, as an op-root span."""
        previous = self.current_op()
        span = self.begin(name, new_op=True)
        span[ATTRS] = attrs
        try:
            yield span
        finally:
            self.end(span)
            self.set_op(previous)

    def records(self) -> list[list]:
        """Spans as ``[name, start, end, parent_index, op, self, attrs]``."""
        index = {id(span): number for number, span in enumerate(self.spans)}
        return [
            [
                span[NAME],
                span[START],
                span[END],
                -1 if span[PARENT] is None else index[id(span[PARENT])],
                span[OP],
                span[END] - span[START] - span[CHILD],
                span[ATTRS],
            ]
            for span in self.spans
            if span[END]
        ]

    # -- wrapping --------------------------------------------------------
    def _wrap(self, target: Target, fn: Callable) -> Callable:
        tracer = self
        name_of = target.name if callable(target.name) else None
        fixed_name = target.name if name_of is None else None
        before, observe, new_op = target.before, target.observe, target.op_root

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before_value = before(tracer, args, kwargs) if before else None
            previous = tracer.current_op()
            span = tracer.begin(
                fixed_name if name_of is None else name_of(args, kwargs),
                new_op,
            )
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
                if new_op:
                    tracer.set_op(previous)
            if observe is not None:
                span[ATTRS] = observe(tracer, args, kwargs, result, before_value)
            return result

        return traced

    def install(self, targets) -> None:
        """Wrap every binding of every target; idempotent per target."""
        for target in targets:
            if target.key in self.wrappers:
                continue
            module = importlib.import_module(target.module)
            owner_name, _, attr = target.qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                wrapper = self._wrap(target, original)
                setattr(owner, attr, wrapper)
                self._patched.append((owner, attr, original))
            else:
                original = getattr(module, attr)
                wrapper = self._wrap(target, original)
                for owner, name in function_bindings(original):
                    setattr(owner, name, wrapper)
                    self._patched.append((owner, name, original))
            self.originals[target.key] = original
            self.wrappers[target.key] = wrapper

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()
        self.originals.clear()
        self.wrappers.clear()


def function_bindings(fn: Any) -> list[tuple[Any, str]]:
    """Every ``(module, attribute)`` of a loaded ``repro`` module bound to ``fn``."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "repro" or module_name.startswith("repro.")
        ):
            continue
        for name, value in list(vars(module).items()):
            if value is fn:
                found.append((module, name))
    return found

