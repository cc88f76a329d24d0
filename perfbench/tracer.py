"""Outside-in tracer for the ``q2pc`` layers.

``Tracer.install()`` replaces every public function of each layer module
with a timing wrapper, at every binding it is called through: the defining
module's attribute and each ``from .x import f`` copy in the other
modules.  A few public methods (coin draws, endpoint send/receive) are
wrapped on their class.  ``uninstall()`` puts the originals back.  No file
of the package changes.

Each call becomes a span ``(id, parent, name, op, thread, start, duration,
self, outermost)``.  Span stacks are per thread, because Bob runs on the
worker thread ``protocols.run_pair`` starts; a span's self time is its
duration minus that of its child spans.  A direct recursive call (such as
``channel.canonical_encode`` on a nested list) folds into the outer span.
Spans stay in memory until ``write()``.
"""

from __future__ import annotations

import collections
import functools
import gzip
import inspect
import itertools
import json
import threading
import time

from q2pc import (channel, compilers, harness, lattice, mbqc, primitives,
                  protocols, qsim, rsp, zk)

LAYERS = {
    "qsim": qsim, "lattice": lattice, "primitives": primitives, "zk": zk,
    "channel": channel, "rsp": rsp, "mbqc": mbqc, "protocols": protocols,
    "compilers": compilers, "harness": harness,
}
# every module a layer function can be called through
_BINDING_MODULES = tuple(LAYERS.values())

_METHODS = (
    (primitives.CoinSource, ("take_bytes", "bit", "bits", "randint", "uniform", "child")),
    (channel.Endpoint, ("send", "recv", "expect")),
)

ALICE_FNS = ("protocols.oqfe_sh_alice", "protocols.oqfe_mal_alice", "protocols.q2pc_alice")
BOB_FNS = ("protocols.oqfe_sh_bob", "protocols.oqfe_mal_bob", "protocols.q2pc_bob")
CODEC_FNS = frozenset(("channel.canonical_encode", "channel.canonical_decode",
                       "channel.frame_message", "channel.unframe_message"))
RSP_BOB_FNS = ("rsp.rsp_bob_quantum", "rsp.rsp_bob_shortcut")


def _public_functions(module):
    for name, value in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(value)
                and value.__module__ == module.__name__):
            yield name, value


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: collections.Counter = collections.Counter()
        self.census_keys: set = set()
        self.endpoints: list = []
        self.max_qubits = 0
        self.op = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count()   # next() on a count is atomic under the GIL
        self._saved: list[tuple] = []

    # ---------------------------------------------------------- spans

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.active = collections.Counter()
        return stack

    def span(self, name: str, fn, hook=None):
        """Wrap fn so each call records a span named ``name``; ``hook`` sees
        (args, result) after the clock stops."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            span_id = next(tracer._ids)
            active = tracer._local.active
            frame = [name, span_id, 0.0]
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            active[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                outermost = active[name] == 1
                active[name] -= 1
                if stack:
                    stack[-1][2] += duration
                tracer.spans.append((span_id, parent, name, tracer.op,
                                     threading.get_ident(), start, duration,
                                     duration - frame[2], outermost))
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def count(self, key: str, amount=1) -> None:
        with self._lock:
            self.counters[key] += amount

    # ---------------------------------------------------------- hooks

    def _hooks(self) -> dict:
        def amplitudes(args, _result):
            n = args[0].num_qubits
            self.count("qsim.amp_bytes", 16 << n)
            self.max_qubits = max(self.max_qubits, n)

        def census(args, _result):
            pk = args[0]
            self.census_keys.add((self.op, pk.K.tobytes() + pk.y0.tobytes()))

        def rsp_bob(_args, result):
            self.count("rsp.resamples", result.resamples)

        def verify(_args, verdict):
            if verdict == "reject":
                self.count("zk.reject")

        def take_bytes(args, _result):
            self.count("primitives.coin_bytes", args[1])

        def inproc_pair(_args, endpoints):
            self.endpoints.append(endpoints[0])

        hooks = {
            "qsim.apply_gate": amplitudes,
            "qsim.branch_z": amplitudes,
            "lattice.image_census": census,
            "zk.verify": verify,
            "primitives.CoinSource.take_bytes": take_bytes,
            "channel.inproc_pair": inproc_pair,
        }
        for name in RSP_BOB_FNS:
            hooks[name] = rsp_bob
        return hooks

    # ---------------------------------------------------- install/remove

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        hooks = self._hooks()
        wrapped = {}
        for layer, module in LAYERS.items():
            for name, fn in _public_functions(module):
                full = f"{layer}.{name}"
                wrapped[id(fn)] = (fn, self.span(full, fn, hooks.get(full)))
        for module in _BINDING_MODULES:
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in wrapped:
                    original, wrapper = wrapped[id(value)]
                    if value is original:
                        self._saved.append((module, name, original))
                        setattr(module, name, wrapper)
        for cls, names in _METHODS:
            layer = cls.__module__.rsplit(".", 1)[-1]
            for name in names:
                original = vars(cls)[name]
                full = f"{layer}.{cls.__name__}.{name}"
                self._saved.append((cls, name, original))
                setattr(cls, name, self.span(full, original, hooks.get(full)))
        abort_init = protocols.ProtocolAbort.__init__
        tracer = self

        def counting_init(obj, *args, **kwargs):
            tracer.count("protocols.abort")
            abort_init(obj, *args, **kwargs)

        self._saved.append((protocols.ProtocolAbort, "__init__", abort_init))
        protocols.ProtocolAbort.__init__ = counting_init

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved = []

    # ------------------------------------------------------------ output

    def account_channel(self) -> None:
        """Messages and framed bytes of the endpoints opened since the last
        call, from Alice's transcript (it holds both directions)."""
        for ep in self.endpoints:
            for msg in ep.transcript.messages:
                self.count("channel.messages")
                self.count("channel.bytes", len(channel.frame_message(msg)))
        self.endpoints = []

    def write(self, path) -> None:
        fields = ("id", "parent", "name", "op", "thread", "start_s", "dur_s",
                  "self_s", "outermost")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-layer metrics, normalised per operation where they are totals."""
    calls = collections.Counter()
    incl = collections.Counter()
    self_s = collections.Counter()
    layer_self = collections.Counter()
    for _id, _parent, name, _op, _thread, _start, dur, own, outermost in tracer.spans:
        calls[name] += 1
        self_s[name] += own
        layer_self[name.split(".", 1)[0]] += own
        if outermost:
            incl[name] += dur
    # the codec functions never call one another, so their times add up
    codec_s = sum(incl[name] for name in CODEC_FNS)
    c = tracer.counters
    per = 1.0 / max(ops, 1)
    ms = 1000.0 * per

    def n(name):
        return calls[name] * per

    distinct_keys = len(tracer.census_keys) * per
    census_ms = incl["lattice.image_census"] * ms
    out = {
        "lattice.gen.calls": (n("lattice.gen"), "count/op"),
        "lattice.gen_regular.calls": (n("lattice.gen_regular"), "count/op"),
        "lattice.key_accept_ratio": (
            calls["lattice.gen_regular"] / calls["lattice.gen"]
            if calls["lattice.gen"] else 0.0, "ratio"),
        "lattice.image_census.calls": (n("lattice.image_census"), "count/op"),
        "lattice.image_census.ms": (census_ms, "ms/op"),
        "lattice.census_distinct_keys": (distinct_keys, "count/op"),
        "lattice.census_ms_per_key": (
            census_ms / distinct_keys if distinct_keys else 0.0, "ms"),
        "lattice.invert.calls": (n("lattice.invert"), "count/op"),
        "lattice.invert.ms": (incl["lattice.invert"] * ms, "ms/op"),
        "qsim.apply_gate.calls": (n("qsim.apply_gate"), "count/op"),
        "qsim.branch_z.calls": (n("qsim.branch_z"), "count/op"),
        "qsim.amp_bytes": (c["qsim.amp_bytes"] * per, "B/op"),
        "qsim.max_qubits": (tracer.max_qubits, "qubits"),
        "rsp.bob.calls": (sum(calls[f] for f in RSP_BOB_FNS) * per, "count/op"),
        "rsp.bob.ms": (sum(incl[f] for f in RSP_BOB_FNS) * ms, "ms/op"),
        "rsp.resamples": (c["rsp.resamples"] * per, "count/op"),
        "rsp.alice_decode.ms": (incl["rsp.rsp_alice_decode"] * ms, "ms/op"),
        "rsp.w_law_dense.ms": (incl["rsp.w_law_dense"] * ms, "ms/op"),
        "mbqc.reference_evaluate.ms": (incl["mbqc.reference_evaluate"] * ms, "ms/op"),
        "mbqc.circuit_model_law.ms": (incl["mbqc.circuit_model_law"] * ms, "ms/op"),
        "mbqc.entangled_graph_state.calls": (n("mbqc.entangled_graph_state"), "count/op"),
        "zk.prove.calls": (n("zk.prove"), "count/op"),
        "zk.verify.calls": (n("zk.verify"), "count/op"),
        "zk.verify.ms": (incl["zk.verify"] * ms, "ms/op"),
        "zk.verify.self_ms": (self_s["zk.verify"] * ms, "ms/op"),
        "zk.reject.calls": (c["zk.reject"] * per, "count/op"),
        "channel.messages": (c["channel.messages"] * per, "count/op"),
        "channel.bytes": (c["channel.bytes"] * per, "B/op"),
        "channel.recv_wait_ms": (self_s["channel.Endpoint.recv"] * ms, "ms/op"),
        "channel.codec_ms": (codec_s * ms, "ms/op"),
        "primitives.sha256.calls": (n("primitives.sha256"), "count/op"),
        "primitives.coin_bytes": (c["primitives.coin_bytes"] * per, "B/op"),
        "protocols.alice.self_ms": (sum(self_s[f] for f in ALICE_FNS) * ms, "ms/op"),
        "protocols.bob.self_ms": (sum(self_s[f] for f in BOB_FNS) * ms, "ms/op"),
        "protocols.abort.calls": (c["protocols.abort"] * per, "count/op"),
        "compilers.zkpoqk_run.ms": (incl["compilers.zkpoqk_run"] * ms, "ms/op"),
        "harness.backend_equivalence_experiment.ms": (
            incl["harness.backend_equivalence_experiment"] * ms, "ms/op"),
        "harness.simulator_tv_experiment.ms": (
            incl["harness.simulator_tv_experiment"] * ms, "ms/op"),
        "harness.q2pc_blinded_law_exact.ms": (
            incl["harness.q2pc_blinded_law_exact"] * ms, "ms/op"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = (layer_self[layer] * ms, "ms/op")
    return out

