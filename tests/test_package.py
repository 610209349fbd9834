"""``import rollstock`` exports every module's ``__all__``, and nothing else
but ``__version__``."""

import importlib

import rollstock

MODULES = ("model", "generate", "netbuild", "ilp", "exact", "qubo", "anneal", "diagram")


def test_the_package_exports_the_union_of_the_modules_public_names():
    modules = [importlib.import_module(f"rollstock.{name}") for name in MODULES]
    assert rollstock.__all__ == [name for m in modules for name in m.__all__] + ["__version__"]
    assert len(set(rollstock.__all__)) == len(rollstock.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(rollstock, name) is getattr(module, name), name
    # ``rollstock.anneal`` names the function, not the module
    assert rollstock.anneal is modules[MODULES.index("anneal")].anneal


def test_the_types_public_functions_raise_or_hold_are_exported():
    for name in ("DiagramError", "Violation", "PenaltyRow", "exact_number", "ARC_KINDS"):
        assert name in rollstock.__all__

