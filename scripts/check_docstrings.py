#!/usr/bin/env python
"""Docstring lint for the public API.

Every public class, function, method, and property defined in the
pinned modules below must carry a docstring whose first line is a real
sentence (ends with ``.``, ``:``, ``?``, or ``!``).  "Public" means the
name has no leading underscore and the object is *defined in* the
module (re-exports are checked where they are defined).  Dunder methods
are exempt except ``__init__`` on classes whose constructor takes
arguments beyond ``self`` — those are documented on the class itself,
so ``__init__`` is never required.

The module list is a deliberate allowlist: it pins the user-facing
surface (config, simulator, results, campaigns, observability) without
demanding prose on every internal helper.  Extend it as modules
graduate to public status.

Used by ``tests/test_docs.py`` and the CI docs job.
"""

import importlib
import inspect
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

PUBLIC_MODULES = [
    "repro",
    "repro.config",
    "repro.errors",
    "repro.sim.simulator",
    "repro.sim.presets",
    "repro.sim.results",
    "repro.runner.campaign",
    "repro.runner.audit",
    "repro.runner.faults",
    "repro.streambuf.buffer",
    "repro.streambuf.allocation",
    "repro.streambuf.scheduling",
    "repro.streambuf.sharing",
    "repro.streambuf.controller",
    "repro.obs",
    "repro.obs.metrics",
    "repro.obs.tracing",
    "repro.obs.report",
]

SENTENCE_ENDINGS = (".", ":", "?", "!")


def _docstring_problem(qualname, obj):
    """Return a problem string for ``obj``, or None when it is clean."""
    doc = inspect.getdoc(obj)
    if not doc or not doc.strip():
        return f"{qualname}: missing docstring"
    first = doc.strip().splitlines()[0].strip()
    if not first.endswith(SENTENCE_ENDINGS):
        return (
            f"{qualname}: first docstring line is not a sentence: "
            f"{first!r}"
        )
    return None


def _class_members(cls):
    """Yield ``(name, member)`` for the public API defined on ``cls``."""
    for name, member in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(member, property):
            yield name, member
        elif inspect.isfunction(member):
            yield name, member
        elif isinstance(member, (classmethod, staticmethod)):
            yield name, member.__func__


def check_module(module_name, problems):
    """Lint one module's public classes, functions, and methods."""
    module = importlib.import_module(module_name)
    problem = _docstring_problem(module_name, module)
    if problem:
        problems.append(problem)
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module_name:
            continue  # re-export; linted at its definition site
        qualname = f"{module_name}.{name}"
        problem = _docstring_problem(qualname, obj)
        if problem:
            problems.append(problem)
        if inspect.isclass(obj):
            for member_name, member in _class_members(obj):
                problem = _docstring_problem(
                    f"{qualname}.{member_name}", member
                )
                if problem:
                    problems.append(problem)


def main():
    """Lint every pinned module; return 0 when all are clean."""
    problems = []
    for module_name in PUBLIC_MODULES:
        check_module(module_name, problems)
    for problem in problems:
        print(problem, file=sys.stderr)
    if not problems:
        print(f"docstrings OK ({len(PUBLIC_MODULES)} modules)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
