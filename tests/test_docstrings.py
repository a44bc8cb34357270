"""Quality gate: every public item in the library carries a docstring,
and every cross-reference in a docstring names something that exists.

"Documentation on every public item" is a deliverable, so it is enforced,
not aspired to.  Public = importable from a ``repro`` module and not
underscore-prefixed; dataclass-generated plumbing and inherited members
are exempt.
"""

import builtins
import importlib
import inspect
import pkgutil
import re

import pytest

import repro

EXEMPT_MEMBER_NAMES = {
    # dataclass/enum plumbing and dunder-ish generated members
    "__init__", "__repr__", "__eq__", "__hash__", "__post_init__",
}


def iter_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


def public_members(module):
    for name, member in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.ismodule(member):
            continue
        # Only report items defined in this package (not re-imports of
        # stdlib objects etc.).
        defined_in = getattr(member, "__module__", None)
        if defined_in is None or not str(defined_in).startswith("repro"):
            continue
        if defined_in != module.__name__:
            continue  # avoid double-reporting re-exports
        yield name, member


def test_every_module_has_a_docstring():
    missing = [m.__name__ for m in iter_modules() if not inspect.getdoc(m)]
    assert missing == [], "modules without docstrings: %s" % missing


def test_every_public_class_and_function_has_a_docstring():
    missing = []
    for module in iter_modules():
        for name, member in public_members(module):
            if inspect.isclass(member) or inspect.isfunction(member):
                if not inspect.getdoc(member):
                    missing.append("%s.%s" % (module.__name__, name))
    assert missing == [], "undocumented public items: %s" % missing


def test_public_methods_have_docstrings():
    """Methods defined directly on public classes must be documented
    (inherited and generated members are exempt)."""
    missing = []
    for module in iter_modules():
        for class_name, klass in public_members(module):
            if not inspect.isclass(klass):
                continue
            for name, member in vars(klass).items():
                if name.startswith("_") or name in EXEMPT_MEMBER_NAMES:
                    continue
                func = None
                if inspect.isfunction(member):
                    func = member
                elif isinstance(member, property):
                    func = member.fget
                elif isinstance(member, (classmethod, staticmethod)):
                    func = member.__func__
                if func is not None and not inspect.getdoc(func):
                    missing.append(
                        "%s.%s.%s" % (module.__name__, class_name, name)
                    )
    assert missing == [], "undocumented public methods: %s" % missing


#: A Sphinx cross-reference: ``:role:`target``` or ``:role:`title <target>```.
XREF = re.compile(r":(?:func|meth|class|data|exc):`(?:[^`<]*<)?([^`>]+)>?`")

#: Targets outside ``repro`` that a docstring may name.
EXTERNAL_TARGETS = {"functools.lru_cache"}


def documented(module):
    """``(docstring, owning class or None)`` of the module and of every
    class, function and method defined in it, private ones included."""
    yield module.__doc__, None
    for member in vars(module).values():
        if getattr(member, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(member):
            yield member.__doc__, member
            for value in vars(member).values():
                if isinstance(value, property):
                    value = value.fget
                elif isinstance(value, (classmethod, staticmethod)):
                    value = value.__func__
                if inspect.isfunction(value):
                    yield value.__doc__, member
        elif inspect.isfunction(member):
            yield member.__doc__, None


def follow(value, attributes):
    for attribute in attributes:
        value = getattr(value, attribute)
    return value


def resolves(target, module, owner):
    """Whether ``target`` names an object: a ``repro.`` name by import,
    any other name from the module, the owning class or builtins."""
    parts = target.lstrip("~.").split(".")
    if parts[0] == "repro":
        for cut in range(len(parts), 0, -1):
            try:
                base = importlib.import_module(".".join(parts[:cut]))
            except ImportError:
                continue
            try:
                follow(base, parts[cut:])
            except AttributeError:
                return False
            return True
        return False
    scopes = [vars(module), vars(builtins)]
    if owner is not None:
        scopes.insert(0, {
            name: value
            for klass in reversed(owner.__mro__)
            for name, value in vars(klass).items()
        })
    for scope in scopes:
        if parts[0] in scope:
            try:
                follow(scope[parts[0]], parts[1:])
            except AttributeError:
                continue
            return True
    return False


def test_docstring_cross_references_resolve():
    unresolved = []
    for module in iter_modules():
        for doc, owner in documented(module):
            for target in XREF.findall(doc or ""):
                if target in EXTERNAL_TARGETS:
                    continue
                if not resolves(target, module, owner):
                    where = module.__name__
                    if owner is not None:
                        where += "." + owner.__name__
                    unresolved.append("%s: %s" % (where, target))
    assert unresolved == [], "unresolved docstring references: %s" % unresolved
