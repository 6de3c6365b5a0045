#!/usr/bin/env python
"""Public-API surface checker: no undeclared breaking changes.

The repo's compatibility promise lives in the ``__all__`` lists of its
public modules — but nothing used to stop a refactor from silently
dropping a re-export, renaming a keyword argument, or changing a
default.  This tool snapshots the surface into ``API_SURFACE.json``
(committed at the repo root) and fails the build on any drift:

* every module in :data:`PUBLIC_MODULES` is imported and each name in
  its ``__all__`` is described — functions and methods by their exact
  :func:`inspect.signature` string, classes by constructor signature
  plus the sorted set of public members (methods, properties and
  dataclass fields), everything else by its type;
* the description is serialized as canonical JSON (sorted keys,
  deterministic — same discipline as every other artifact in the repo)
  and compared byte-for-byte against the committed snapshot;
* a mismatch prints a per-module diff (added / removed / changed
  names) and exits non-zero.

Intentional API changes are declared by regenerating the snapshot and
committing it alongside the code change — the diff of
``API_SURFACE.json`` then *is* the reviewable API change:

    python tools/check_api.py --write

Run:  python tools/check_api.py          (from the repo root or anywhere)
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import re
import sys
from pathlib import Path
from typing import Any

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
SNAPSHOT = REPO / "API_SURFACE.json"

#: Modules whose ``__all__`` is the compatibility promise.  Grow this
#: list when a new subsystem becomes public; never shrink it without a
#: deprecation cycle (see CONTRIBUTING.md).
PUBLIC_MODULES = (
    "repro",
    "repro.algorithms",
    "repro.analysis",
    "repro.campaign",
    "repro.core",
    "repro.engine",
    "repro.experiments.io",
    "repro.faults",
    "repro.maxplus",
    "repro.objectives",
    "repro.search",
    "repro.telemetry",
)

#: Memory addresses in default-value reprs (``<object object at 0x...>``)
#: vary per process; strip them so the snapshot is deterministic.
_ADDR_RE = re.compile(r" at 0x[0-9a-fA-F]+")


def _signature(obj: Any) -> str | None:
    """``str(inspect.signature(obj))`` with addresses stripped, or None."""
    try:
        return _ADDR_RE.sub("", str(inspect.signature(obj)))
    except (ValueError, TypeError):
        return None


def _class_members(cls: type) -> dict[str, Any]:
    """Public members of ``cls``: name -> kind (+ signature for callables)."""
    names = {n for n in dir(cls) if not n.startswith("_")}
    names.update(getattr(cls, "__dataclass_fields__", {}))
    members: dict[str, Any] = {}
    for name in sorted(names):
        attr = inspect.getattr_static(cls, name, None)
        if isinstance(attr, property):
            members[name] = {"kind": "property"}
        elif isinstance(attr, (staticmethod, classmethod)):
            kind = "staticmethod" if isinstance(attr, staticmethod) else "classmethod"
            members[name] = {"kind": kind, "signature": _signature(attr.__func__)}
        elif callable(attr):
            members[name] = {"kind": "method", "signature": _signature(attr)}
        else:
            members[name] = {"kind": "attribute"}
    return members


def describe(obj: Any) -> dict[str, Any]:
    """A deterministic JSON-able descriptor of one exported object."""
    if inspect.isclass(obj):
        desc: dict[str, Any] = {"kind": "class", "signature": _signature(obj)}
        if issubclass(obj, BaseException):
            desc["kind"] = "exception"
        desc["members"] = _class_members(obj)
        return desc
    if inspect.isroutine(obj):
        return {"kind": "function", "signature": _signature(obj)}
    if inspect.ismodule(obj):
        return {"kind": "module"}
    return {"kind": "data", "type": type(obj).__name__}


def build_surface() -> dict[str, dict[str, Any]]:
    """module -> exported name -> descriptor, for every public module."""
    surface: dict[str, dict[str, Any]] = {}
    for module_name in PUBLIC_MODULES:
        module = importlib.import_module(module_name)
        exported = getattr(module, "__all__", None)
        if not exported:
            raise SystemExit(f"check_api: {module_name} has no __all__")
        entry: dict[str, Any] = {}
        for name in sorted(exported):
            if not hasattr(module, name):
                raise SystemExit(
                    f"check_api: {module_name}.__all__ lists {name!r} "
                    "but the module does not define it"
                )
            entry[name] = describe(getattr(module, name))
        surface[module_name] = entry
    return surface


def render(surface: dict[str, dict[str, Any]]) -> str:
    """Canonical JSON text of the surface (sorted keys, one newline)."""
    return json.dumps(surface, indent=2, sort_keys=True) + "\n"


def diff_surfaces(
    old: dict[str, dict[str, Any]], new: dict[str, dict[str, Any]]
) -> list[str]:
    """Human-readable lines describing every difference (empty = clean)."""
    lines: list[str] = []
    for module in sorted(set(old) | set(new)):
        if module not in old:
            lines.append(f"{module}: module added to the public surface")
            continue
        if module not in new:
            lines.append(f"{module}: module removed from the public surface")
            continue
        before, after = old[module], new[module]
        for name in sorted(set(before) | set(after)):
            if name not in before:
                lines.append(f"{module}.{name}: added")
            elif name not in after:
                lines.append(f"{module}.{name}: removed")
            elif before[name] != after[name]:
                lines.append(
                    f"{module}.{name}: changed\n"
                    f"    was: {json.dumps(before[name], sort_keys=True)}\n"
                    f"    now: {json.dumps(after[name], sort_keys=True)}"
                )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--write",
        action="store_true",
        help="regenerate API_SURFACE.json from the current tree",
    )
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    surface = build_surface()
    text = render(surface)

    if args.write:
        SNAPSHOT.write_text(text, newline="")
        n = sum(len(v) for v in surface.values())
        print(f"check_api: wrote {SNAPSHOT.name} ({len(surface)} modules, {n} names)")
        return 0

    if not SNAPSHOT.exists():
        print(
            "check_api: API_SURFACE.json missing - run "
            "`python tools/check_api.py --write` and commit it",
            file=sys.stderr,
        )
        return 1

    committed = json.loads(SNAPSHOT.read_text())
    lines = diff_surfaces(committed, surface)
    if lines:
        print(
            "check_api: the public API surface drifted from the committed "
            "API_SURFACE.json:\n",
            file=sys.stderr,
        )
        for line in lines:
            print(f"  {line}", file=sys.stderr)
        print(
            "\ncheck_api: if the change is intentional, regenerate the "
            "snapshot (`python tools/check_api.py --write`), commit it, and "
            "describe the change in the PR",
            file=sys.stderr,
        )
        return 1

    n = sum(len(v) for v in surface.values())
    print(f"check_api: OK ({len(surface)} modules, {n} exported names, no drift)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
