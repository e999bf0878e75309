"""Soft sets over a fixed finite universe, in binary matrix form.

A soft set maps each attribute to a subset of the universe.  The
package keeps universe and attribute order explicit, stores each
value as one bit mask (a column of the 0/1 matrix), and treats the
family of value subsets as the invariant that equivalence,
approximation relations, and the rewrite prober are built on.
Similarity is exact rational arithmetic throughout; nothing here rounds.

Exports load lazily (PEP 562): a submodule name loads that module, and
the first lookup of any other public name, `__all__` included, loads all five.
"""

__version__ = "0.1.0"

_MODULES = ("core", "algebra", "relations", "analysis", "oracle")


def __getattr__(name: str):
    from importlib import import_module

    if name in _MODULES:
        return import_module(f"{__name__}.{name}")
    if name == "__all__" or not name.startswith("_"):
        modules = [import_module(f"{__name__}.{module}") for module in _MODULES]
        exports = [(key, module) for module in modules for key in module.__all__]
        globals().update({key: getattr(module, key) for key, module in exports},
                         __all__=[key for key, _ in exports])
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
