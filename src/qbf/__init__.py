"""Exact computations on the dual of a q-deformed compact semisimple Lie group.

The library computes weight-lattice geometry, fusion rules, central-weight
validation, quantum norm exponents and the completely-bounded extension region
for the weighted Fourier algebras of such quantum groups, together with an
independent exact U_q(sl2) oracle for the central norm formula.

A run executes only the submodules it uses.  ``import qbf`` puts every
submodule into ``sys.modules`` (and onto the package) without running its
code; the code runs on the first lookup of any other name than the
import system's own, once, under one lock, and the module is then a plain
module.  The public names resolve through the package's ``__getattr__``, so
``qbf.build_root_system`` runs ``root_system`` alone.
"""

import sys
import threading
from importlib.util import find_spec, module_from_spec
from types import ModuleType

__version__ = "0.1.0"

# Every submodule, with the public names it defines, in the order of __all__.
_EXPORTS = {
    "root_system": ("LieType", "LieTypeError", "RootSystem", "Weight", "build_root_system"),
    "characters": ("Character", "weight_multiplicities", "full_weights",
                   "character_product_decompose"),
    "fusion": ("FusionDecomposition", "tensor_decompose", "contains_trivial"),
    "central_weights": ("CentralWeightSpec", "Violation", "ValidationReport",
                        "SubadditivityReport", "eval_weight", "validate_central_weight",
                        "casimir_subadditivity_check"),
    "qnorm": ("QExponent", "SessionConfig", "lminus_norm_exponent", "rmatrix_sup_exponent",
              "rmatrix_exponent_details", "i_norm_exponent"),
    "cb_region": ("CBDecision", "ScanReport", "cb_extends", "cb_region_enumerate",
                  "sup_ratio_scan"),
    "sl2_oracle": ("Sl2Rep", "RMatrixBlock", "build_sl2_rep", "build_rmatrix_block",
                   "verify_norm_formula"),
    "precision": (),
}
__all__ = [name for names in _EXPORTS.values() for name in names]
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

# Set from the spec and never changed by the module's code, so reading one
# (as the import system and vars() do) runs nothing.
_IMPORT_ATTRS = frozenset(("__class__", "__dict__", "__name__", "__spec__", "__loader__",
                           "__file__", "__cached__", "__package__"))
# Re-entrant: a module's code looks up its siblings, which may run theirs.
_LOCK = threading.RLock()
_running: set[str] = set()


class _Deferred(ModuleType):
    """A submodule whose code has not run yet.

    Any lookup outside ``_IMPORT_ATTRS`` runs the code first.  Another thread
    waits on the lock until it has run in full, so no thread but the one
    running it sees a partly run module; the runner's own lookups see it as
    a circular import would.
    """

    def __getattribute__(self, name):
        if name not in _IMPORT_ATTRS:
            _execute(self)
        return ModuleType.__getattribute__(self, name)


def _execute(module: _Deferred) -> None:
    """Run the code of module unless it has run or is running (lower in
    this thread's stack, since the lock admits no other thread)."""
    with _LOCK:
        name = module.__name__
        if type(module) is _Deferred and name not in _running:
            _running.add(name)
            try:
                module.__spec__.loader.exec_module(module)
            finally:
                _running.discard(name)
            module.__class__ = ModuleType


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted(globals().keys() | _HOME.keys())


for _name in _EXPORTS:
    _module = module_from_spec(find_spec(f"{__name__}.{_name}"))
    _module.__class__ = _Deferred
    sys.modules[_module.__name__] = globals()[_name] = _module
del _name, _module
