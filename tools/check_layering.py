#!/usr/bin/env python
"""Layering contract checker for the repro package.

Walks every module under ``src/repro`` with the ``ast`` module (no
imports are executed, no third-party dependency needed) and enforces
the architectural layering the staged-runtime refactor established:

1. ``repro.runtime`` is generic infrastructure.  It may import the
   observability layer and the stdlib, but never dataplane or netfunc
   concretions — stages and verdict vocabularies are injected by the
   dataplane, not known to the runtime.
2. ``repro.netfunc`` holds the cognitive network functions.  They sit
   *below* the switch pipeline and must not import ``repro.dataplane``
   (the dataplane composes them, never the reverse).
3. ``repro.packet`` is a leaf: it may import nothing else from
   ``repro`` (every layer shares the Packet type, so any dependency
   here would be a cycle waiting to happen).
4. ``repro.acam`` is a device-level subsystem like ``repro.core``:
   the dataplane's classification stage composes it, so it must
   never import ``repro.dataplane`` or ``repro.simnet`` back.
5. One sanctioned exception: ``repro.runtime.compile`` (the pipeline
   compiler) must see the dataplane stage shapes it compiles, so it
   may import ``repro.dataplane`` — but still never ``repro.netfunc``
   (table sentinels are recovered from live objects instead).
6. ``repro.fabric`` is the top *composition* layer (it shards whole
   switches): nothing below it — dataplane, simnet, netfunc,
   runtime — may import it back.  The scenario engine reaches
   fabrics only through its duck-typed ``processor_factory`` hook.
7. ``repro.control`` is the *control plane* and sits above
   everything it closes the loop over: dataplane, fabric,
   robustness and observability may not import it back.  The only
   sanctioned back-edges are the package facade's silent re-export
   (``repro.dataplane.__init__``) and the pipeline's
   default-controller convenience — re-export/instantiate only.

Exit status 0 when clean; 1 with one line per violation otherwise.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: module-prefix -> prefixes it must not import (checked transitively
#: over the textual import graph is overkill here: direct imports are
#: what the contract constrains).
FORBIDDEN = {
    "repro.runtime": ("repro.dataplane", "repro.netfunc",
                      "repro.fabric", "repro.control"),
    "repro.netfunc": ("repro.dataplane", "repro.fabric",
                      "repro.control"),
    "repro.acam": ("repro.dataplane", "repro.simnet", "repro.fabric",
                   "repro.control"),
    "repro.packet": ("repro.",),
    "repro.dataplane": ("repro.fabric", "repro.control"),
    "repro.simnet": ("repro.fabric", "repro.control"),
    "repro.fabric": ("repro.control",),
    "repro.robustness": ("repro.control",),
    "repro.observability": ("repro.control",),
}

#: exact module -> prefixes its FORBIDDEN rules waive.  The waiver is
#: per-module and per-prefix: ``repro.runtime.compile`` may see the
#: dataplane it compiles, yet ``repro.netfunc`` stays banned for it.
EXCEPTIONS = {
    "repro.runtime.compile": ("repro.dataplane",),
    # Sanctioned control-plane back-edges (rule 7): the facade's
    # silent re-export and the pipeline's default-controller
    # construction.
    "repro.dataplane": ("repro.control",),
    "repro.dataplane.pipeline": ("repro.control",),
}


def module_name(path: Path) -> str:
    relative = path.relative_to(SRC).with_suffix("")
    parts = list(relative.parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def imported_modules(path: Path, module: str) -> list[tuple[int, str]]:
    """(lineno, absolute module) for every import in the file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    package_parts = module.split(".")
    if path.name != "__init__.py":
        package_parts = package_parts[:-1]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.append((node.lineno, alias.name))
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative import -> resolve against package
                base = package_parts[:len(package_parts) - node.level + 1]
                prefix = ".".join(base)
                target = f"{prefix}.{node.module}" if node.module \
                    else prefix
            else:
                target = node.module or ""
            found.append((node.lineno, target))
    return found


def violations() -> list[str]:
    problems = []
    for path in sorted(SRC.glob("repro/**/*.py")):
        module = module_name(path)
        rules = [banned for prefix, banned in FORBIDDEN.items()
                 if module == prefix or module.startswith(prefix + ".")]
        if not rules:
            continue
        waived = EXCEPTIONS.get(module, ())
        rules = [tuple(banned for banned in banned_set
                       if banned not in waived)
                 for banned_set in rules]
        for lineno, target in imported_modules(path, module):
            for banned_set in rules:
                for banned in banned_set:
                    bad = target == banned.rstrip(".") \
                        or target.startswith(banned) \
                        and (banned.endswith(".")
                             or target[len(banned):][:1] in ("", "."))
                    if bad and not target.startswith(module):
                        problems.append(
                            f"{path.relative_to(SRC.parent)}:{lineno}: "
                            f"{module} imports {target} "
                            f"(forbidden by layering contract)")
    return problems


def main() -> int:
    problems = violations()
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} layering violation(s)", file=sys.stderr)
        return 1
    print("layering contract clean: runtime |> dataplane, "
          "netfunc |> dataplane, acam |> dataplane/simnet, "
          "repro.packet is a leaf, repro.fabric composes, "
          "repro.control is the top")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
