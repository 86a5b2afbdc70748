"""Multi-module MiniC++ packages over a dependency DAG.

A *package* is one MiniC++ module plus the names of the packages it
imports, declared in comment headers at the top of its source::

    // package: svc-auth
    // imports: core-pool, lib-serialize
    <MiniC++ source>

:class:`PackageGraph` validates the declarations into a DAG (unknown
imports and cycles are rejected), and answers the reachability
questions propagation needs: direct dependents, and the transitive
dependent/dependency closures with the minimum import depth of each
member.  :func:`load_package_dir` reads a corpus directory of
``*.cpp`` files (``corpus/packages/`` ships a generated one); the
hand-written :data:`DEMO_PACKAGES` graph is the didactic example whose
blast-radius ranking provably differs from its flat severity ranking.
"""

from __future__ import annotations

from functools import cached_property
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

from .._record import record

#: Header comment keys recognized at the top of a package source file.
_PACKAGE_KEY = "// package:"
_IMPORTS_KEY = "// imports:"


@record(frozen=True)
class Package:
    """One module with its declared imports."""

    name: str
    source: str
    imports: Tuple[str, ...] = ()


def parse_package_source(text: str, default_name: str = "") -> Package:
    """Parse the ``// package:`` / ``// imports:`` header of one file.

    The header must come first (blank lines allowed); the remainder is
    the module source.  A missing ``package`` line falls back to
    ``default_name``; an empty name is an error.
    """
    name = default_name
    imports: Tuple[str, ...] = ()
    lines = text.splitlines()
    body_start = len(lines)
    for index, line in enumerate(lines):
        stripped = line.strip()
        if stripped.startswith(_PACKAGE_KEY):
            name = stripped[len(_PACKAGE_KEY):].strip()
        elif stripped.startswith(_IMPORTS_KEY):
            declared = stripped[len(_IMPORTS_KEY):].strip()
            imports = tuple(
                token.strip() for token in declared.split(",") if token.strip()
            )
        elif stripped:
            body_start = index
            break
    if not name:
        raise ValueError("package source declares no '// package:' name")
    return Package(name=name, source="\n".join(lines[body_start:]) + "\n", imports=imports)


def render_package_source(package: Package) -> str:
    """The on-disk form: header comments followed by the source."""
    lines = [f"{_PACKAGE_KEY} {package.name}"]
    if package.imports:
        lines.append(f"{_IMPORTS_KEY} {', '.join(package.imports)}")
    return "\n".join(lines) + "\n" + package.source


class PackageGraph:
    """A validated DAG of packages keyed by name."""

    def __init__(self, packages: Iterable[Package]) -> None:
        self._packages: Dict[str, Package] = {}
        for package in packages:
            if package.name in self._packages:
                raise ValueError(f"duplicate package name '{package.name}'")
            self._packages[package.name] = package
        for package in self._packages.values():
            for dep in package.imports:
                if dep not in self._packages:
                    raise ValueError(
                        f"package '{package.name}' imports unknown "
                        f"package '{dep}'"
                    )
                if dep == package.name:
                    raise ValueError(
                        f"package '{package.name}' imports itself"
                    )
        self._dependents: Dict[str, List[str]] = {
            name: [] for name in self._packages
        }
        for package in self._packages.values():
            for dep in package.imports:
                self._dependents[dep].append(package.name)
        for name in self._dependents:
            self._dependents[name].sort()
        self._assert_acyclic()

    def _assert_acyclic(self) -> None:
        """Depth-first over imports with an explicit stack, so an import
        chain of any depth is checked without recursion."""
        state: Dict[str, int] = {}  # 0 = on the current path, 1 = done
        for root in sorted(self._packages):
            if root in state:
                continue
            state[root] = 0
            path = [root]
            stack = [iter(self._packages[root].imports)]
            while stack:
                for dep in stack[-1]:
                    mark = state.get(dep)
                    if mark == 1:
                        continue
                    if mark == 0:
                        cycle = " -> ".join(path[path.index(dep):] + [dep])
                        raise ValueError(f"package import cycle: {cycle}")
                    state[dep] = 0
                    path.append(dep)
                    stack.append(iter(self._packages[dep].imports))
                    break
                else:
                    state[path.pop()] = 1
                    stack.pop()

    # -- access --------------------------------------------------------------

    def names(self) -> List[str]:
        """Package names, sorted (the deterministic iteration order)."""
        return sorted(self._packages)

    def package(self, name: str) -> Package:
        return self._packages[name]

    def __len__(self) -> int:
        return len(self._packages)

    def __contains__(self, name: str) -> bool:
        return name in self._packages

    # -- reachability --------------------------------------------------------

    def dependents_of(self, name: str) -> List[str]:
        """Packages that directly import ``name``, sorted."""
        return list(self._dependents[name])

    @cached_property
    def _imports(self) -> Dict[str, Tuple[str, ...]]:
        return {name: package.imports for name, package in self._packages.items()}

    @staticmethod
    def _closure(name: str, adjacency: Dict[str, Sequence[str]]) -> Dict[str, int]:
        """Breadth-first minimum-depth closure over ``adjacency``, one
        level at a time; members are inserted in BFS order, so the last
        one is the deepest."""
        depths: Dict[str, int] = {}
        level = [name]
        depth = 0
        while level:
            depth += 1
            reached = []
            for current in level:
                for neighbor in adjacency[current]:
                    if neighbor not in depths:
                        depths[neighbor] = depth
                        reached.append(neighbor)
            level = reached
        return depths

    def transitive_dependents(self, name: str) -> Dict[str, int]:
        """Every package that (transitively) embeds ``name``, with the
        minimum import-chain depth — the blast set of a flawed module."""
        return self._closure(name, self._dependents)

    def transitive_dependencies(self, name: str) -> Dict[str, int]:
        """Every package ``name`` (transitively) embeds, with depth —
        the exposure set a dependent inherits risk from."""
        return self._closure(name, self._imports)

    def topological(self) -> List[str]:
        """Dependencies-first order (ties broken alphabetically)."""
        order: List[str] = []
        done: set = set()
        for root in sorted(self._packages):
            if root in done:
                continue
            done.add(root)
            stack = [(root, iter(sorted(self._packages[root].imports)))]
            while stack:
                name, deps = stack[-1]
                for dep in deps:
                    if dep not in done:
                        done.add(dep)
                        stack.append((dep, iter(sorted(self._packages[dep].imports))))
                        break
                else:
                    stack.pop()
                    order.append(name)
        return order


def load_package_dir(directory) -> PackageGraph:
    """Read every ``*.cpp`` in ``directory`` into a validated graph."""
    path = Path(directory)
    if not path.is_dir():
        raise FileNotFoundError(f"no package directory at {path}")
    # Sorted by path string: the order ``Path`` comparison gives within
    # one directory, without its per-comparison cost.
    packages = [
        parse_package_source(file.read_text(), file.stem)
        for file in sorted(path.glob("*.cpp"), key=str)
    ]
    if not packages:
        raise ValueError(f"no *.cpp packages in {path}")
    return PackageGraph(packages)


def generated_package_graph(seed: int, count: int) -> PackageGraph:
    """A reproducible many-package graph from the workloads generator."""
    from ..workloads.generators import generate_package_corpus

    return PackageGraph(
        Package(name=name, source=source, imports=tuple(imports))
        for name, imports, source in generate_package_corpus(seed, count)
    )


# -- the didactic demo graph -------------------------------------------------

_DEMO_CLASSES = """class Student {
  public:
    Student();
    double gpa;
    int year, semester;
};
class GradStudent : public Student {
  public:
    GradStudent();
    int ssn[3];
};
"""

#: A shared low-level pool module with *warning-grade* flaws only
#: (arena-reuse leak + shrinking-placement memory leak), embedded by
#: most of the graph.
_CORE_POOL = _DEMO_CLASSES + """char pool[64];
void fill_pool() {
  readFile("/etc/passwd", pool, 64);
  char *userdata = new (pool) char[64];
  store(userdata);
}
void churn() {
  GradStudent *g = new GradStudent();
  Student *st = new (g) Student();
  g = NULL;
}
"""

#: A standalone tool with an *error-grade* overflow but zero dependents.
_TOOL_REPORT = _DEMO_CLASSES + """Student stud;
void render() {
  GradStudent *st = new (&stud) GradStudent();
  st->ssn[0] = 7;
}
"""

_CLEAN_MODULE = """void handle(int request) {
  int budget = 8;
  int i = 0;
  while (i < budget) {
    i = i + 1;
  }
}
"""

#: Hand-written example: ``core-pool`` carries only warning-grade risk
#: (intrinsic 5) but five transitive dependents; ``tool-report`` is a
#: leaf with a proved overflow (intrinsic 12).  Flat severity ranks
#: ``tool-report`` first; blast-radius propagation ranks ``core-pool``
#: first — the whole point of the propagation layer.
DEMO_PACKAGES: Tuple[Package, ...] = (
    Package(name="core-pool", source=_CORE_POOL),
    Package(name="lib-serialize", source=_CLEAN_MODULE, imports=("core-pool",)),
    Package(name="svc-auth", source=_CLEAN_MODULE, imports=("core-pool",)),
    Package(name="svc-cache", source=_CLEAN_MODULE, imports=("core-pool",)),
    Package(name="app-batch", source=_CLEAN_MODULE, imports=("lib-serialize",)),
    Package(
        name="app-gateway",
        source=_CLEAN_MODULE,
        imports=("svc-auth", "svc-cache"),
    ),
    Package(name="tool-report", source=_TOOL_REPORT),
)


def demo_graph() -> PackageGraph:
    """The :data:`DEMO_PACKAGES` graph, validated."""
    return PackageGraph(DEMO_PACKAGES)
