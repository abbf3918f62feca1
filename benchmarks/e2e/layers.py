"""Outside-in per-layer trace: wrappers around each layer's public entry points.

:class:`Tracer` replaces every binding of each declared boundary function
(the defining module, every package re-export and every ``from x import f``
copy in an imported ``repro`` module or the workloads) and class methods on their
class, with a wrapper that records a span per call.  A span's *self* time is
its duration minus the time its child spans cover, so summing self times
never counts a nanosecond twice.  HTTP handlers are wrapped where they are
registered, in ``HttpServer.route``; a generator handler is driven through a
proxy that times each resumption.

Only coarse entry points are wrapped: each wrapper costs about a
microsecond per call, which a recursive helper (``value_to_xml``) would pay
once per XML node.  A boundary that no longer exists
raises at install time, so a renamed function fails the traced run instead
of silently measuring zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Generator, Optional

__all__ = ["BOUNDARIES", "Tracer"]


def _nbytes(value: Any) -> int:
    return len(value) if isinstance(value, (bytes, bytearray, str)) else 0


def _compress_counts(args, kwargs, result) -> dict[str, int]:
    codec = kwargs.get("codec", args[1] if len(args) > 1 else "lzss")
    return {
        "lzss_calls": codec == "lzss",
        "bytes_in": _nbytes(args[0]),
        "bytes_out": _nbytes(result),
    }


def _arg_bytes(args, kwargs, result) -> dict[str, int]:
    return {"bytes": _nbytes(args[0])}


def _method_arg_bytes(args, kwargs, result) -> dict[str, int]:
    return {"bytes": _nbytes(args[1])}


def _result_bytes(args, kwargs, result) -> dict[str, int]:
    return {"bytes": _nbytes(result)}


def _export_bytes(args, kwargs, result) -> dict[str, int]:
    dest = args[1]
    return {"bytes": dest.tell() if hasattr(dest, "tell") else 0}


#: (layer, module, qualified name, counter hook).  The hook maps a call's
#: (args, kwargs, result) to counter increments.  Hooks sit only on the
#: innermost entry point that sees each document, so nothing is counted
#: twice: ``write_bytes`` calls ``write``, ``parse_bytes`` calls ``parse``,
#: and the wire formats call ``serialize_agent`` / ``deserialize_agent``.
BOUNDARIES: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("simnet.kernel", "repro.simnet.kernel", "Simulator.run", None),
    ("simnet.topology", "repro.simnet.topology", "Network.route", None),
    ("simnet.topology", "networkx", "shortest_path", None),
    ("compressor", "repro.compressor.api", "compress", _compress_counts),
    ("compressor", "repro.compressor.api", "decompress", None),
    ("compressor.lzss", "repro.compressor.lzss", "LzssCodec.encode", _method_arg_bytes),
    ("compressor.lzss", "repro.compressor.lzss", "LzssCodec.decode", _result_bytes),
    ("crypto.keygen", "repro.crypto.rsa", "generate_keypair", None),
    ("crypto.envelope", "repro.crypto.envelope", "seal_with_session", None),
    ("crypto.envelope", "repro.crypto.envelope", "new_session", None),
    ("crypto.envelope", "repro.crypto.envelope", "open_envelope", None),
    ("xmlcodec", "repro.xmlcodec.writer", "write", _result_bytes),
    ("xmlcodec", "repro.xmlcodec.writer", "write_bytes", None),
    ("xmlcodec", "repro.xmlcodec.parser", "parse", _arg_bytes),
    ("xmlcodec", "repro.xmlcodec.parser", "parse_bytes", None),
    ("mas.wire", "repro.mas.serializer", "serialize_agent", _result_bytes),
    ("mas.wire", "repro.mas.serializer", "deserialize_agent", _arg_bytes),
    ("mas.wire", "repro.mas.adapters", "AgletsWireFormat.encode", None),
    ("mas.wire", "repro.mas.adapters", "AgletsWireFormat.snapshot", None),
    ("mas.wire", "repro.mas.adapters", "AgletsWireFormat.decode", None),
    ("core.packed_info", "repro.core.packed_info", "pack", None),
    ("core.packed_info", "repro.core.packed_info", "unpack", None),
    ("core.deployment", "repro.core.deployment", "DeploymentBuilder.add_central", None),
    ("core.deployment", "repro.core.deployment", "DeploymentBuilder.add_gateway", None),
    ("core.deployment", "repro.core.deployment", "DeploymentBuilder.add_site", None),
    ("core.deployment", "repro.core.deployment", "DeploymentBuilder.add_device", None),
    ("core.deployment", "repro.core.deployment", "DeploymentBuilder.publish", None),
    ("core.deployment", "repro.core.deployment",
     "DeploymentBuilder.register_agent_class", None),
    ("core.deployment", "repro.core.deployment", "DeploymentBuilder.build", None),
    ("simtest.generate", "repro.simtest.spec", "generate", None),
    ("simtest.audit", "repro.simtest.invariants", "check_all", None),
    ("telemetry.export", "repro.telemetry.exporters", "TraceCollector.write_jsonl",
     _export_bytes),
)


#: Module-name prefixes whose ``from x import f`` copies are patched too.
SCOPE = ("repro", "workloads")


class _Layer:
    __slots__ = ("self_s", "calls", "counts")

    def __init__(self) -> None:
        self.self_s = 0.0
        self.calls = 0
        self.counts: dict[str, int] = defaultdict(int)


class Tracer:
    """Span stack plus per-layer totals for one process."""

    def __init__(self) -> None:
        #: Open spans, innermost last: [layer, seconds covered by children].
        self._stack: list[list] = []
        self.layers: dict[str, _Layer] = defaultdict(_Layer)
        #: Calls per boundary ("layer:module.qualname"), nested ones included.
        self.boundary_calls: dict[str, int] = {}

    # ------------------------------------------------------------- spans
    def _call(self, layer: str, fn: Callable, args, kwargs, hook, counted=True):
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [layer, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            stats = self.layers[layer]
            stats.self_s += dt - frame[1]
            if parent is not None:
                parent[1] += dt
        if counted and (parent is None or parent[0] != layer):
            stats.calls += 1
        if hook is not None:
            for key, n in hook(args, kwargs, result).items():
                stats.counts[key] += n
        return result

    def _wrap(self, layer: str, key: str, fn: Callable, hook) -> Callable:
        call = self._call
        counts = self.boundary_calls
        counts[key] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[key] += 1
            return call(layer, fn, args, kwargs, hook)

        return traced

    def _proxy(self, layer: str, gen: Generator, on_return) -> Generator:
        """Drive ``gen``, timing each resumption as a span of ``layer``."""
        call = self._call
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            try:
                if error is not None:
                    yielded = call(layer, gen.throw, (error,), {}, None, False)
                else:
                    yielded = call(layer, gen.send, (value,), {}, None, False)
            except StopIteration as stop:
                on_return(stop.value)
                return stop.value
            try:
                value, error = (yield yielded), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # delivered into the handler
                value, error = None, exc

    # ----------------------------------------------------------- install
    def install(self) -> None:
        """Patch every declared boundary and the HTTP route table.

        Function bindings are replaced in the defining module and in every
        imported module whose name starts with a ``SCOPE`` prefix."""
        for layer, module_name, qualname, hook in BOUNDARIES:
            module = importlib.import_module(module_name)
            key = f"{layer}:{module_name}.{qualname}"
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(layer, key, original, hook))
                continue
            original = getattr(module, attr)
            traced = self._wrap(layer, key, original, hook)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == module_name or name.startswith(SCOPE)):
                    continue
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, binding, traced)
        self._install_http()

    def _install_http(self) -> None:
        from repro.core.gateway import Gateway
        from repro.simnet.http import HttpServer

        tracer = self
        route = HttpServer.route
        counts = self.boundary_calls

        def traced_route(server, path: str, handler):
            counts["simnet.http:HttpServer.route"] += 1
            owner = getattr(handler, "__self__", None)
            if isinstance(owner, Gateway):
                layer = "core.gateway." + path.strip("/").split("/")[0]
            else:
                layer = "simnet.http"
            key = f"{layer}:{path}"
            counts.setdefault(key, 0)
            stats = tracer.layers[layer]

            def on_return(resp) -> None:
                if getattr(resp, "status", None) == 503:
                    stats.counts["sheds"] += 1

            @functools.wraps(handler)
            def traced_handler(req):
                counts[key] += 1
                result = tracer._call(layer, handler, (req,), {}, None)
                if inspect.isgenerator(result):
                    return tracer._proxy(layer, result, on_return)
                on_return(result)
                return result

            return route(server, path, traced_handler)

        counts["simnet.http:HttpServer.route"] = 0
        HttpServer.route = traced_route
