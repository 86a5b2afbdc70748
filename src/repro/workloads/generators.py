"""Randomized MiniC++ program generation for analyzer stress-testing.

The hand-written corpus pins down the paper's listings; the generator
produces *families* of placement-new programs with known ground truth —
random class shapes, random arena/placement pairings, optionally wrapped
in helper functions or guarded by the §5.1 ``sizeof`` idiom.  Tests
measure the detector's precision/recall over hundreds of generated
programs, and the benchmarks measure its throughput.
"""

from __future__ import annotations

import random

from .._record import record
from ..cxx import make_class
from ..cxx.layout import LayoutEngine
from ..cxx.types import CHAR, DOUBLE, FLOAT, INT, SHORT

_SCALARS = ("int", "double", "char", "short", "float")

#: Scalar name → the object model's CType (sizes come from the real
#: layout engine, never from a hand-maintained mirror).
_CTYPES = {"int": INT, "double": DOUBLE, "char": CHAR, "short": SHORT, "float": FLOAT}

#: Shapes drawn by default (the classic overflow families whose ground
#: truth is "does the placement overflow the arena").
CLASSIC_SHAPES = ("direct", "helper", "guarded", "tainted-array")

#: Every shape the generator knows, including the families whose ground
#: truth needs a leak or timeout oracle rather than the placement audit
#: log ("leak" = Listings 21–22 arena-reuse info leak, "dos-loop" =
#: §4.4 loop-bound DoS, "taint-source" = CAPEC-10-style env/argv/stream
#: input plumbing into a placement count).  The differential fuzzer
#: seeds from all of these; ``generate_program`` keeps drawing only
#: CLASSIC_SHAPES by default so overflow-oracle callers are unaffected.
ALL_SHAPES = CLASSIC_SHAPES + ("leak", "dos-loop", "taint-source")

#: Shapes drawn by ``generate_package_corpus``.  Frozen at the PR-6 set:
#: the committed ``corpus/packages/`` rendering pins the exact
#: ``rng.choice`` draws at seed 2026, so appending to this tuple would
#: silently rewrite the committed corpus.  Extend ALL_SHAPES instead;
#: widen this only together with a corpus regeneration.
PACKAGE_SHAPES = CLASSIC_SHAPES + ("leak", "dos-loop")

#: Shared, identity-checked layout cache (cheap; never stale).
_ENGINE = LayoutEngine()


@record(frozen=True)
class GeneratedProgram:
    """One generated program with its ground truth."""

    source: str
    vulnerable: bool
    arena_size: int
    placed_size: int
    shape: str  # one of ALL_SHAPES
    stdin: tuple = ()  # suggested attacker input that exercises the bug

    @property
    def oversize(self) -> int:
        return max(self.placed_size - self.arena_size, 0)


def _make_classes(base_fields: list, extra_fields: list):
    """The (base, derived) ClassDefs for a generated Small/Big pair."""
    base = make_class(
        "Small",
        fields=[(f"f{i}", _CTYPES[t]) for i, t in enumerate(base_fields)],
    )
    derived = make_class(
        "Big",
        fields=[(f"g{i}", _CTYPES[t]) for i, t in enumerate(extra_fields)],
        bases=(base,),
    )
    return base, derived


def _layout_size(fields: list) -> int:
    """Size of a standalone class with these members, computed by the
    real layout engine — generated ground truth cannot drift from the
    object model."""
    base, _ = _make_classes(fields, [])
    return _ENGINE.layout_of(base).size


def _derived_size(base_fields: list, extra_fields: list) -> int:
    """Size of the derived class, by the same engine that lays out the
    simulated objects (padded base subobject first, then new members)."""
    _, derived = _make_classes(base_fields, extra_fields)
    return _ENGINE.layout_of(derived).size


def _class_decl(name: str, fields: list) -> str:
    members = " ".join(
        f"{type_name} f{i};" for i, type_name in enumerate(fields)
    )
    return f"class {name} {{ public: {members} }};"


def _random_fields(rng: random.Random, count: int) -> list:
    return [rng.choice(_SCALARS) for _ in range(count)]


def generate_program(
    rng: random.Random, vulnerable: bool, shape: str | None = None
) -> GeneratedProgram:
    """Generate one program whose vulnerability status is known.

    ``shape`` picks the structural family; by default one of
    CLASSIC_SHAPES is drawn at random (ask for "leak" or "dos-loop"
    explicitly — their ground truth is a leak/timeout, not an
    overflow).  ``vulnerable=True`` guarantees the labeled bug is
    reachable at runtime; ``vulnerable=False`` guarantees it is not
    (fits, guarded, sanitized, or bounded).
    """
    chosen = shape or rng.choice(CLASSIC_SHAPES)
    if chosen == "tainted-array":
        return _tainted_array_program(rng, vulnerable)
    if chosen == "leak":
        return _leak_program(rng, vulnerable)
    if chosen == "dos-loop":
        return _dos_loop_program(rng, vulnerable)
    if chosen == "taint-source":
        return _taint_source_program(rng, vulnerable)
    # Build two classes whose relative sizes encode the ground truth.
    small_fields = _random_fields(rng, rng.randint(1, 4))
    extra_fields = _random_fields(rng, rng.randint(1, 4))
    small_size = _layout_size(small_fields)
    big_size = _derived_size(small_fields, extra_fields)
    while big_size <= small_size:
        extra_fields.append(rng.choice(("int", "double")))
        big_size = _derived_size(small_fields, extra_fields)

    classes = (
        _class_decl("Small", small_fields)
        + "\n"
        + f"class Big : public Small {{ public: "
        + " ".join(f"{t} g{i};" for i, t in enumerate(extra_fields))
        + " };"
    )
    if vulnerable:
        arena_type, placed_type = "Small", "Big"
        arena_size, placed_size = small_size, big_size
    else:
        arena_type, placed_type = "Big", "Small"
        arena_size, placed_size = big_size, small_size

    if chosen == "direct":
        body = (
            f"void run() {{\n  {arena_type} arena;\n"
            f"  {placed_type} *p = new (&arena) {placed_type}();\n}}\n"
        )
    elif chosen == "helper":
        body = (
            f"{placed_type} *helper({arena_type} *where) {{\n"
            f"  {placed_type} *p = new (where) {placed_type}();\n"
            f"  return p;\n}}\n"
            f"void run() {{\n  {arena_type} arena;\n"
            f"  {placed_type} *p = helper(&arena);\n}}\n"
        )
    elif chosen == "guarded":
        if vulnerable:
            # A guard that does NOT protect: it compares the wrong way.
            condition = f"sizeof({placed_type}) >= sizeof({arena_type})"
        else:
            condition = f"sizeof({placed_type}) <= sizeof({arena_type})"
        body = (
            f"void run() {{\n  {arena_type} arena;\n"
            f"  if ({condition}) {{\n"
            f"    {placed_type} *p = new (&arena) {placed_type}();\n"
            f"  }}\n}}\n"
        )
    else:  # pragma: no cover - exhaustive
        raise ValueError(chosen)
    return GeneratedProgram(
        source=classes + "\n" + body,
        vulnerable=vulnerable,
        arena_size=arena_size,
        placed_size=placed_size,
        shape=chosen,
    )


def _tainted_array_program(
    rng: random.Random, vulnerable: bool
) -> GeneratedProgram:
    pool = rng.choice((32, 64, 128, 256))
    if vulnerable:
        body = (
            f"char pool[{pool}];\n"
            "void run() {\n  int n = 0;\n  cin >> n;\n"
            "  char *buf = new (pool) char[n];\n}\n"
        )
        placed = pool + 1  # unknown at compile time; attacker-sized
        return GeneratedProgram(
            source=body,
            vulnerable=True,
            arena_size=pool,
            placed_size=placed,
            shape="tainted-array",
            stdin=(pool + 16,),
        )
    constant = rng.randint(1, pool)
    body = (
        f"char pool[{pool}];\n"
        "void run() {\n"
        f"  char *buf = new (pool) char[{constant}];\n}}\n"
    )
    return GeneratedProgram(
        source=body,
        vulnerable=False,
        arena_size=pool,
        placed_size=constant,
        shape="tainted-array",
    )


def _taint_source_program(
    rng: random.Random, vulnerable: bool
) -> GeneratedProgram:
    """CAPEC-10 family: the placement count arrives through realistic
    input plumbing — an environment variable (``getenv`` + ``atoi``),
    the program's ``argc``, or a stream read routed through a helper —
    instead of a bare ``cin >> n``.  The vulnerable twins size the
    placement from the attacker-controlled value; the safe twins run
    the same plumbing but place a compile-time-constant count."""
    variant = rng.choice(("env", "argv", "stream"))
    if variant == "env":
        pool = rng.choice((16, 32, 64, 128))
        if vulnerable:
            body = (
                f"char pool[{pool}];\n"
                "void run() {\n"
                '  char *raw = getenv("PAYLOAD_LIMIT");\n'
                "  int n = atoi(raw);\n"
                "  char *buf = new (pool) char[n];\n}\n"
            )
            return GeneratedProgram(
                source=body,
                vulnerable=True,
                arena_size=pool,
                placed_size=pool + 1,  # attacker-sized via the env var
                shape="taint-source",
                stdin=(pool + 16,),
            )
        constant = rng.randint(1, pool)
        body = (
            f"char pool[{pool}];\n"
            "void run() {\n"
            '  char *raw = getenv("PAYLOAD_LIMIT");\n'
            "  int n = atoi(raw);\n"
            f"  char *buf = new (pool) char[{constant}];\n}}\n"
        )
        return GeneratedProgram(
            source=body,
            vulnerable=False,
            arena_size=pool,
            placed_size=constant,
            shape="taint-source",
            stdin=(2,),  # the plumbing still consumes one token
        )
    if variant == "argv":
        # The entry planner feeds scalar int parameters the constant 7,
        # standing in for an attacker-chosen argc.
        if vulnerable:
            pool = rng.choice((2, 4))
            body = (
                f"char pool[{pool}];\n"
                "void run(int argc) {\n"
                "  char *buf = new (pool) char[argc];\n}\n"
            )
            return GeneratedProgram(
                source=body,
                vulnerable=True,
                arena_size=pool,
                placed_size=7,  # the planner's scalar-int argument
                shape="taint-source",
            )
        pool = rng.choice((16, 32))
        constant = rng.randint(1, 8)
        body = (
            f"char pool[{pool}];\n"
            "void run(int argc) {\n"
            "  int copies = argc;\n"
            f"  char *buf = new (pool) char[{constant}];\n}}\n"
        )
        return GeneratedProgram(
            source=body,
            vulnerable=False,
            arena_size=pool,
            placed_size=constant,
            shape="taint-source",
        )
    # "stream": the tainted read is laundered through a helper call so
    # the taint must survive argument passing, not just a local cin.
    pool = rng.choice((16, 32, 64, 128))
    helper = (
        "int throttle(int raw) {\n  return raw;\n}\n"
    )
    if vulnerable:
        body = (
            f"char pool[{pool}];\n" + helper +
            "void run() {\n  int raw = 0;\n  cin >> raw;\n"
            "  int n = throttle(raw);\n"
            "  char *buf = new (pool) char[n];\n}\n"
        )
        return GeneratedProgram(
            source=body,
            vulnerable=True,
            arena_size=pool,
            placed_size=pool + 1,
            shape="taint-source",
            stdin=(pool + 16,),
        )
    constant = rng.randint(1, pool)
    body = (
        f"char pool[{pool}];\n" + helper +
        "void run() {\n  int raw = 0;\n  cin >> raw;\n"
        "  int n = throttle(raw);\n"
        f"  char *buf = new (pool) char[{constant}];\n}}\n"
    )
    return GeneratedProgram(
        source=body,
        vulnerable=False,
        arena_size=pool,
        placed_size=constant,
        shape="taint-source",
        stdin=(3,),
    )


def _leak_program(rng: random.Random, vulnerable: bool) -> GeneratedProgram:
    """Listing 21/22 family: a filled arena is re-used by a placement
    new and flows to an output sink; the safe twin sanitizes first."""
    pool = rng.choice((64, 128, 256))
    sanitize = "" if vulnerable else f"  memset(pool, 0, {pool});\n"
    body = (
        f"char pool[{pool}];\n"
        "void run() {\n"
        f'  readFile("/etc/passwd", pool, {pool});\n'
        + sanitize
        + f"  char *userdata = new (pool) char[{pool}];\n"
        "  store(userdata);\n"
        "}\n"
    )
    return GeneratedProgram(
        source=body,
        vulnerable=vulnerable,
        arena_size=pool,
        placed_size=pool,  # the placement fits; the bug is the residue
        shape="leak",
    )


def _dos_loop_program(rng: random.Random, vulnerable: bool) -> GeneratedProgram:
    """§4.4 family: the attacker writes a loop bound through a field
    that lies beyond the arena (vulnerable) or inside it but capped
    (safe); a huge bound spins the process past its step budget."""
    classes = (
        "class Tiny { public: int f0; };\n"
        "class Wide : public Tiny { public: int g0; int g1; };\n"
    )
    tiny_size = _layout_size(["int"])
    wide_size = _derived_size(["int"], ["int", "int"])
    bound = rng.choice((1 << 20, 1 << 24, 1 << 28))
    if vulnerable:
        body = (
            "void run() {\n"
            "  Tiny arena;\n"
            "  Wide *p = new (&arena) Wide();\n"
            "  cin >> p->g1;\n"
            "  int i = 0;\n"
            "  while (i < p->g1) {\n"
            "    i = i + 1;\n"
            "  }\n"
            "}\n"
        )
        arena_size, placed_size = tiny_size, wide_size
    else:
        body = (
            "void run() {\n"
            "  Wide arena;\n"
            "  Tiny *p = new (&arena) Tiny();\n"
            "  cin >> p->f0;\n"
            "  int i = 0;\n"
            "  while (i < p->f0 && i < 8) {\n"
            "    i = i + 1;\n"
            "  }\n"
            "}\n"
        )
        arena_size, placed_size = wide_size, tiny_size
    return GeneratedProgram(
        source=classes + body,
        vulnerable=vulnerable,
        arena_size=arena_size,
        placed_size=placed_size,
        shape="dos-loop",
        stdin=(bound,),
    )


def generate_corpus(
    seed: int, count: int, vulnerable_ratio: float = 0.5
) -> list:
    """A reproducible batch of generated programs."""
    rng = random.Random(seed)
    programs = []
    for index in range(count):
        vulnerable = rng.random() < vulnerable_ratio
        programs.append(generate_program(rng, vulnerable))
    return programs


def generate_package_corpus(seed: int, count: int) -> list:
    """A reproducible multi-package corpus for dependency scoring.

    Returns ``(name, imports, source)`` tuples.  Each package wraps one
    generated program (~35% vulnerable, drawn from every shape family)
    and imports a random subset of *earlier* packages, so the declared
    graph is a DAG by construction.  ``repro.score`` turns these into a
    :class:`~repro.score.PackageGraph`; ``corpus/packages/`` ships the
    rendering of seed 2026.
    """
    rng = random.Random(seed)
    packages = []
    names: list = []
    for index in range(count):
        vulnerable = rng.random() < 0.35
        shape = rng.choice(PACKAGE_SHAPES)
        program = generate_program(rng, vulnerable, shape)
        name = f"pkg-{index:02d}-{shape}"
        fanin = min(len(names), rng.randint(0, 3))
        imports = tuple(sorted(rng.sample(names, fanin))) if fanin else ()
        packages.append((name, imports, program.source))
        names.append(name)
    return packages


@record(frozen=True)
class DetectorScore:
    """Precision/recall of one analyzer over a generated batch."""

    true_positives: int
    false_positives: int
    true_negatives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        denominator = self.true_positives + self.false_positives
        return self.true_positives / denominator if denominator else 1.0

    @property
    def recall(self) -> float:
        denominator = self.true_positives + self.false_negatives
        return self.true_positives / denominator if denominator else 1.0


def score_detector(programs: list, flagger) -> DetectorScore:
    """Score ``flagger(source) -> bool`` against the ground truth."""
    tp = fp = tn = fn = 0
    for program in programs:
        flagged = flagger(program.source)
        if program.vulnerable and flagged:
            tp += 1
        elif program.vulnerable:
            fn += 1
        elif flagged:
            fp += 1
        else:
            tn += 1
    return DetectorScore(
        true_positives=tp,
        false_positives=fp,
        true_negatives=tn,
        false_negatives=fn,
    )
