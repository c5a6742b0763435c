"""Per-layer tracing of logflat from outside the package.

`Tracer.install()` replaces each listed public function with a wrapper that
records a span (calls, total time, self time = span time minus the time of
child spans), rebinding every module attribute, class attribute and CLI
handler that holds the original function object.  Nested calls of a span
that is already open (recursion in `lmat_det` and `gcd`, `*_from_json`
calling each other) run unwrapped, so only the outermost call is timed.
`uninstall()` puts every original back.
"""
from __future__ import annotations

import importlib
import inspect
import sys
import time

# layer (module) -> traced functions; "Class.method" names a method.
LAYERS = {
    "matrices": ["rref", "rank", "in_row_space", "nullspace", "solve", "mat_inv",
                 "intersect_row_spaces", "det_bareiss", "charpoly"],
    "laurent": ["lmat_det", "lmat_inverse", "lmat_mul", "Transition.__init__"],
    "birkhoff": ["birkhoff_factorize", "splitting_type_rank_oracle", "_h0_twist",
                 "football_split"],
    "multipoly": ["MultiPoly.__mul__", "MultiPoly.exact_div", "gcd",
                  "squarefree_part", "normalize"],
    "saito": ["saito_check", "flatness_check", "structure_constants"],
    "serialize": ["certificate", "canonical_dumps"],   # + parse, below
    "filtrations": ["Filtration.make", "Filtration.depth", "simultaneous_split",
                    "AdaptedBasis.verify"],
    "jordan": ["jordan_chevalley", "quasi_unipotent_weights", "well_behaved_check"],
    "cyclotomic": ["cyclotomic_split_upoly"],
    "extend": ["extend_connection"],
    "bilaurent": ["bmat_mul", "BiLaurent.evaluate"],
    "castling": ["minor_product_divisor", "gen_nonextendable"],
}

# stage entry points also report their inclusive time
STAGES = ["saito.saito_check", "saito.flatness_check", "jordan.jordan_chevalley",
          "filtrations.simultaneous_split", "birkhoff.birkhoff_factorize",
          "birkhoff.splitting_type_rank_oracle", "birkhoff.football_split",
          "extend.extend_connection", "castling.minor_product_divisor",
          "castling.gen_nonextendable", "serialize.parse", "serialize.certificate"]

SUBCOMMANDS = ["saito-check", "flat-check", "jc", "split-filtrations", "birkhoff",
               "football-split", "extend", "castle", "gen-divisor", "gen-nonextendable"]

# layers whose share of the traced time is reported as a metric
SHARE_LAYERS = ["matrices", "laurent", "multipoly", "birkhoff", "filtrations", "saito"]


def span_name(module: str, func: str) -> str:
    """`Transition.__init__` is reported as the constructor, `laurent.Transition`."""
    return f"{module}.{func[:-len('.__init__')] if func.endswith('.__init__') else func}"


def metric_names() -> list:
    names = []
    for module, funcs in LAYERS.items():
        for func in funcs:
            names.append(span_name(module, func))
        if module == "serialize":
            names.append("serialize.parse")
    out = []
    for n in names:
        out += [f"{n}.calls", f"{n}.self_s"]
    out += [f"{n}.total_s" for n in STAGES]
    for sub in SUBCOMMANDS:
        out += [f"cli.{sub}.calls", f"cli.{sub}.total_s"]
    out += ["filtrations.candidate_accept_ratio", "birkhoff.oracle_classes_per_twist"]
    out += [f"{m}.self_share" for m in SHARE_LAYERS]
    out += ["trace.speed_ratio"]
    return out


class _Stat:
    __slots__ = ("calls", "total", "self", "open")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.open = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.stack: list = []            # [stat, start, child time]
        self.candidates = 0              # vectors yielded by _avoiding_vector
        self.accepted = 0                # vectors in returned adapted bases
        self.oracle_classes = 0          # classes returned by the rank oracle
        self._undo: list = []

    # -- spans ------------------------------------------------------------

    def _stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = _Stat()
        return st

    def span(self, name, fn, on_return=None):
        st = self._stat(name)
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if st.open:
                return fn(*args, **kwargs)
            st.open = 1
            frame = [st, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[1]
                stack.pop()
                st.open = 0
                st.calls += 1
                st.total += dur
                st.self += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
            if on_return is not None:
                on_return(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def run(self, name, fn, *args):
        """Call fn(*args) inside a root span (used around each main() call)."""
        return self.span(name, fn)(*args)

    # -- installation ----------------------------------------------------------

    def _rebind_everywhere(self, original, replacement):
        for mod in [m for n, m in list(sys.modules.items())
                    if n == "logflat" or n.startswith("logflat.")]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)
                elif inspect.isclass(value) and value.__module__.startswith("logflat"):
                    for cattr, cvalue in list(vars(value).items()):
                        if cvalue is original:
                            self._set(value, cattr, replacement)
                elif isinstance(value, dict):
                    for key, dvalue in list(value.items()):
                        if dvalue is original:
                            self._undo.append((value.__setitem__, key, original))
                            value[key] = replacement

    def _set(self, owner, attr, value):
        self._undo.append((lambda k, v, o=owner: setattr(o, k, v), attr,
                           vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, module, func, name, on_return=None):
        mod = importlib.import_module(f"logflat.{module}")
        if "." in func:
            cls_name, meth = func.split(".")
            cls = getattr(mod, cls_name)
            raw = vars(cls)[meth]
            if isinstance(raw, classmethod):
                self._set(cls, meth, classmethod(self.span(name, raw.__func__, on_return)))
                return
            self._rebind_everywhere(raw, self.span(name, raw, on_return))
        else:
            fn = getattr(mod, func)
            self._rebind_everywhere(fn, self.span(name, fn, on_return))

    def install(self):
        import logflat.cli as cli
        for module, funcs in LAYERS.items():
            for func in funcs:
                hook = None
                if func == "simultaneous_split":
                    hook = self._count_accepted
                elif func == "splitting_type_rank_oracle":
                    hook = self._count_classes
                self._wrap(module, func, span_name(module, func), hook)
        ser = importlib.import_module("logflat.serialize")
        for attr in [a for a in vars(ser) if a.endswith("_from_json")]:
            self._wrap("serialize", attr, "serialize.parse")
        filt = importlib.import_module("logflat.filtrations")
        self._set(filt, "_avoiding_vector", self._counting(filt._avoiding_vector))
        for sub in SUBCOMMANDS:
            handler = cli._HANDLERS[sub]
            self._rebind_everywhere(handler, self.span(f"cli.{sub}", handler))
        return self

    def uninstall(self):
        for setter, key, original in reversed(self._undo):
            setter(key, original)
        self._undo.clear()

    # -- counters for the waste ratios ---------------------------------------------

    def _counting(self, gen_fn):
        def counted(*args, **kwargs):
            for v in gen_fn(*args, **kwargs):
                self.candidates += 1
                yield v
        return counted

    def _count_accepted(self, result):
        self.accepted += len(getattr(result, "vectors", ()))

    def _count_classes(self, result):
        self.oracle_classes += len(result.classes)

    # -- report --------------------------------------------------------------------

    def metrics(self, traced_s: float, speed_ratio: float) -> dict:
        """Every per-layer metric, by name: {name: (value, unit)}; traced_s is
        the raw time of the traced calls."""
        out = {}
        for name in metric_names():
            if name.endswith(".calls"):
                st = self.stats.get(name[:-6])
                out[name] = (st.calls if st else 0, "count")
            elif name.endswith(".self_s"):
                st = self.stats.get(name[:-7])
                out[name] = (st.self if st else 0.0, "s")
            elif name.endswith(".total_s"):
                st = self.stats.get(name[:-8])
                out[name] = (st.total if st else 0.0, "s")
        twists = self.stats.get("birkhoff._h0_twist")
        out["filtrations.candidate_accept_ratio"] = (
            self.accepted / self.candidates if self.candidates else 0.0, "ratio")
        out["birkhoff.oracle_classes_per_twist"] = (
            self.oracle_classes / twists.calls if twists and twists.calls else 0.0, "ratio")
        shares = self.layer_shares(traced_s)
        for m in SHARE_LAYERS:
            out[f"{m}.self_share"] = (shares.get(m, 0.0), "ratio")
        out["trace.speed_ratio"] = (speed_ratio, "ratio")
        return out

    def layer_shares(self, traced_s: float) -> dict:
        """Self time per layer (first name component) over the traced time;
        `cli` holds the time outside every library span."""
        shares: dict = {}
        for name, st in self.stats.items():
            layer = name.split(".")[0]
            shares[layer] = shares.get(layer, 0.0) + st.self / traced_s
        return shares
