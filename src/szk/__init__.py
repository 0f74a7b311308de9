"""Exact symbolic toolkit for abelian groups given by Szmielew data.

``core``, ``dsl`` and ``normalize`` load with the package.  The names from
``ppeval``, ``rank``, ``oracle`` and ``shatter`` load their module on first
access (PEP 562), so a caller pays only for the modules it uses.

``szk.normalize`` is the function ``normalize``, not the submodule of that
name, which it shadows.  Reach the module with
``importlib.import_module("szk.normalize")`` or ``from szk.normalize import ...``.
"""

from importlib import import_module as _import_module

from .core import (INFINITE, OMEGA, Div, Index, PoolOverflowError, PPFormula,
                   PrimeTailShape, SzmielewDescription, TailSpec, Tor,
                   direct_sum, div, make_description, make_prime_tail, tor,
                   validate)
from .dsl import (ParseError, SourceSpan, parse_formula, parse_group, render,
                  render_formula, render_group)
from .normalize import (DerivedSets, InvariantReport, derived_sets,
                        invariants, is_equivalent, normalize)

__version__ = "0.1.0"

_LAZY = {
    "ppeval": ("ProfileStats", "SubgroupProfile", "eval_formula", "index_class",
               "meet", "profile_stats"),
    "rank": ("Classification", "RankReport", "VcReport", "WitnessFamily",
             "classify", "dp_rank", "gap_count", "seed_witnesses", "vc_density"),
    "oracle": ("BreadthResult", "InpVerdict", "breadth_search", "candidate_pool",
               "verify_inp"),
    "shatter": ("FinAbGroup", "SetFamily", "coset_family", "shatter_function",
                "subgroup_members", "vc_dim"),
}
_HOME = {name: mod for mod, names in _LAZY.items() for name in names}

# the eager names and submodules bound above, then the lazy ones
__all__ = sorted([name for name in globals() if not name.startswith("_")]
                 + list(_HOME) + list(_LAZY))


def __getattr__(name):
    if name in _LAZY:
        # importing a submodule binds it as an attribute of the package
        return _import_module("." + name, __name__)
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(_import_module("." + _HOME[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
