"""Run one ``qbf`` CLI command with layer spans recorded from outside the library.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 bench/tracer.py casimir-check --type B2 --height 3

The command's output goes to stdout exactly as ``python -m qbf`` writes it.
Nothing under ``src`` is edited: this script wraps the public functions of each
``qbf`` module at every module binding that holds them (``qbf.cli``,
``qbf.central_weights``, ``qbf.qnorm``, ``qbf.fusion``, the package itself, ...)
and times each module import.  Each wrapped call or import is a span; the hot
``RootSystem`` methods and ``qbf.precision`` helpers are instead counted in
aggregate (calls and time), since one span per call would dwarf the work.

When the command returns, one line ``qbf-trace <json>`` goes to stderr with

* ``spans``: ``[layer, name, start, end, parent, nested, flag, count]`` per
  span, times in seconds since this script started, ``parent`` the index of the
  enclosing span or -1, ``nested`` the time of aggregated calls made directly
  inside it, ``flag`` 1 for a call whose key is new in this process, 0 for a
  repeat and 2 for the warm-call probe, and ``count`` the fusion components a
  ``tensor_decompose`` call returned;
* ``agg``: ``{"<layer>.<function>": [calls, seconds]}``; seconds cover only
  calls not made from inside another aggregated call;
* ``agg_outside``: aggregated time spent outside every span.

After the command, up to ``WARM_PROBE`` fusion pairs of this process are
decomposed once more (flag 2), so a cache hit is timed on every workload that
fuses, including sweeps that never repeat a pair.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import json
import sys
import time

clock = time.perf_counter
T0 = clock()

TRACE_MARK = "qbf-trace "
WARM_PROBE = 32

LAYERS = ("root_system", "characters", "fusion", "central_weights", "precision",
          "qnorm", "cb_region", "sl2_oracle", "cli")

# Public functions traced with one span per call, by defining module.
SPANNED = {
    "root_system": ("build_root_system",),
    "characters": ("weight_multiplicities", "full_weights", "character_product_decompose"),
    "fusion": ("tensor_decompose", "contains_trivial"),
    "central_weights": ("validate_central_weight", "casimir_subadditivity_check", "eval_weight"),
    "qnorm": ("lminus_norm_exponent", "rmatrix_exponent_details", "rmatrix_sup_exponent",
              "i_norm_exponent", "QExponent.q_power"),
    "cb_region": ("cb_region_enumerate", "cb_extends", "sup_ratio_scan"),
    "sl2_oracle": ("verify_norm_formula", "build_rmatrix_block", "build_sl2_rep",
                   "relation_residuals"),
    "cli": ("main",),
}

# Hot functions counted in aggregate only.
AGGREGATED = {
    # The input checks (check_weight, check_dominant) are left unwrapped: they
    # run inside nearly every call and would double the tracing overhead.
    "root_system": tuple(f"RootSystem.{m}" for m in (
        "inner_product", "norm_sq", "casimir", "weyl_dim", "dominant_representative",
        "conjugate_weight", "weyl_orbit", "dominant_weights_up_to")),
    "precision": ("working_digits", "make_context", "to_decimal", "sqrt_fraction", "render"),
}


def _weight_key(w) -> tuple:
    return tuple(int(c) for c in w)


def _fusion_key(args) -> tuple:
    rs, lam, mu = args[:3]
    return (str(rs.lie_type), *sorted((_weight_key(lam), _weight_key(mu))))


def _full_weights_key(args) -> tuple:
    rs, mu = args[:2]
    return (str(rs.lie_type), _weight_key(mu))


KEYS = {"tensor_decompose": _fusion_key, "full_weights": _full_weights_key}


class Tracer:
    """Spans kept in memory with parent links, plus aggregate counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.agg: dict[str, list] = {}
        self.agg_busy = False
        self.agg_outside = 0.0
        self.seen: dict[str, set] = {name: set() for name in KEYS}
        self.probe_args: list[tuple] = []
        self.probing = False

    def open(self, layer: str, name: str) -> list:
        parent = self.stack[-1] if self.stack else -1
        span = [layer, name, clock(), 0.0, parent, 0.0, 0, 0]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[3] = clock()
        self.stack.pop()

    def spanned(self, layer: str, name: str, fn):
        keyfn = KEYS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(layer, name)
            if self.probing:
                span[6] = 2
            elif keyfn is not None:
                try:
                    key = keyfn(args)
                except (TypeError, ValueError, IndexError):
                    key = None
                if key is not None and key not in self.seen[name]:
                    self.seen[name].add(key)
                    span[6] = 1
                    if name == "tensor_decompose" and len(self.probe_args) < WARM_PROBE:
                        self.probe_args.append(args[:3])
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if name == "tensor_decompose":
                span[7] = len(result.components)
            return result

        return wrapper

    def aggregated(self, key: str, fn):
        stat = self.agg.setdefault(key, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            if self.agg_busy:
                return fn(*args, **kwargs)
            self.agg_busy = True
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self.agg_busy = False
                stat[1] += elapsed
                if self.stack:
                    self.spans[self.stack[-1]][5] += elapsed
                else:
                    self.agg_outside += elapsed

        return wrapper

    def dump(self) -> dict:
        spans = [[layer, name, round(s - T0, 7), round(e - T0, 7), parent, round(nested, 7),
                  flag, count]
                 for layer, name, s, e, parent, nested, flag, count in self.spans]
        return {"spans": spans, "agg": self.agg, "agg_outside": self.agg_outside}


class _TimedLoader(importlib.abc.Loader):
    """Delegating loader that records the module's execution as an import span."""

    def __init__(self, loader, tracer: Tracer, layer: str) -> None:
        self._loader = loader
        self._tracer = tracer
        self._layer = layer

    def create_module(self, spec):
        return self._loader.create_module(spec)

    def exec_module(self, module) -> None:
        span = self._tracer.open(self._layer, "import")
        try:
            self._loader.exec_module(module)
        finally:
            self._tracer.close(span)

    def __getattr__(self, name):
        return getattr(self._loader, name)


class _ImportSpans(importlib.abc.MetaPathFinder):
    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def find_spec(self, fullname, path, target=None):
        package, _, layer = fullname.partition(".")
        if package != "qbf" or layer not in LAYERS:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path, target)
        if spec is not None and spec.loader is not None:
            spec.loader = _TimedLoader(spec.loader, self._tracer, layer)
        return spec


def _rebind(original, wrapper) -> None:
    """Point every qbf module binding that holds ``original`` at ``wrapper``."""
    for modname, module in list(sys.modules.items()):
        if modname != "qbf" and not modname.startswith("qbf."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the traced functions at every binding that holds them."""
    for table, aggregated in ((SPANNED, False), (AGGREGATED, True)):
        for layer, names in table.items():
            module = sys.modules[f"qbf.{layer}"]
            for dotted in names:
                owner_name, _, fname = dotted.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, fname)
                if aggregated:
                    wrapper = tracer.aggregated(f"{layer}.{fname}", original)
                else:
                    wrapper = tracer.spanned(layer, fname, original)
                if owner_name:
                    setattr(owner, fname, wrapper)
                else:
                    _rebind(original, wrapper)


def main(argv: list[str]) -> int:
    tracer = Tracer()
    sys.meta_path.insert(0, _ImportSpans(tracer))
    import qbf.cli

    install(tracer)
    rc = qbf.cli.main(argv)
    sys.stdout.flush()
    tracer.probing = True
    for args in tracer.probe_args:
        qbf.fusion.tensor_decompose(*args)
    tracer.probing = False
    sys.stderr.write(TRACE_MARK + json.dumps(tracer.dump(), separators=(",", ":")) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
