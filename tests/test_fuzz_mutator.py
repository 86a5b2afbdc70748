"""Tests for the structure-aware mutator and the divergence minimizer."""

import random

import pytest

from repro.analysis import parse
from repro.analysis.unparse import unparse_program
from repro.cli import fuzz_main
from repro.fuzz import (
    DifferentialFuzzer,
    FuzzConfig,
    FuzzInput,
    fingerprint_of,
    minimize_input,
    mutate,
    normalized_events,
    run_campaign,
    run_oracles,
    same_divergence,
    seed_inputs,
    static_verdict,
)
from repro.fuzz import campaign, oracles
from repro.fuzz.mutator import transform


PARENT = FuzzInput(
    source="""\
class Small {
  public:
    int f0;
};
class Big : public Small {
  public:
    int g0;
    double g1;
};
void run() {
  Small arena;
  Big* p = new (&arena) Big();
  p->g0 = 7;
}
""",
    stdin=(3, 5),
    family="direct",
    label="vulnerable",
)


class TestTransform:
    def test_identity_when_visit_keeps_everything(self):
        program = parse(PARENT.source)
        assert transform(program, lambda node: None) is program

    def test_replacement_rebuilds_spine_only(self):
        import repro.analysis.ast_nodes as ast

        program = parse(PARENT.source)

        def bump(node):
            if isinstance(node, ast.IntLit) and node.value == 7:
                return ast.IntLit(value=8, line=node.line)
            return None

        rebuilt = transform(program, bump)
        assert rebuilt is not program
        assert "p->g0 = 8" in unparse_program(rebuilt)
        # Untouched classes keep identity.
        assert rebuilt.classes is program.classes


class TestMutate:
    def test_deterministic_for_fixed_seed(self):
        a = mutate(random.Random("m/1"), PARENT)
        b = mutate(random.Random("m/1"), PARENT)
        assert a is not None
        assert (a.source, a.stdin) == (b.source, b.stdin)

    def test_mutants_always_reparse(self):
        rng = random.Random("m/2")
        produced = 0
        for _ in range(200):
            mutant = mutate(rng, PARENT)
            if mutant is None:
                continue
            produced += 1
            parse(mutant.source)  # must not raise
            assert (mutant.source, mutant.stdin) != (PARENT.source, PARENT.stdin)
        assert produced > 100  # the operators mostly connect

    def test_mutants_drop_the_ground_truth_label(self):
        rng = random.Random("m/3")
        for _ in range(50):
            mutant = mutate(rng, PARENT)
            if mutant is not None:
                assert mutant.label == ""

    def test_mutation_reaches_stdin_and_source(self):
        rng = random.Random("m/4")
        stdin_changed = source_changed = False
        for _ in range(120):
            mutant = mutate(rng, PARENT)
            if mutant is None:
                continue
            stdin_changed = stdin_changed or mutant.stdin != PARENT.stdin
            source_changed = source_changed or mutant.source != PARENT.source
        assert stdin_changed and source_changed

    def test_seed_corpus_survives_mutation(self):
        # Every seed family yields at least some viable mutants.
        rng = random.Random("m/5")
        for seed in seed_inputs(1):
            viable = sum(
                1 for _ in range(30) if mutate(rng, seed) is not None
            )
            assert viable > 0, seed.family


class TestMinimize:
    DIVERGENT = FuzzInput(
        source="""\
char pool[64];
int unused_global;
class Noise {
  public:
    int a;
    int b;
};
void run() {
  int n = 0;
  int waste = 3;
  waste = waste + 1;
  cin >> n;
  char* p = new (pool) char[n];
}
""",
        stdin=(8, 9, 9),
    )

    def _fingerprint(self, fuzz_input):
        observation = run_oracles(fuzz_input.source, fuzz_input.stdin)
        kind = observation.divergence_kind
        if kind is None:
            return None
        return fingerprint_of(
            kind,
            observation.static.rules,
            normalized_events(observation.dynamic.events),
        )

    def test_minimize_preserves_fingerprint_and_shrinks(self):
        target = self._fingerprint(self.DIVERGENT)
        assert target is not None

        smallest = minimize_input(
            self.DIVERGENT, lambda cand: self._fingerprint(cand) == target
        )
        assert self._fingerprint(smallest) == target
        assert len(smallest.source) < len(self.DIVERGENT.source)
        # The noise all goes: the spare class, global, and dead locals.
        assert "Noise" not in smallest.source
        assert "unused_global" not in smallest.source
        assert "waste" not in smallest.source

    def test_minimize_truncates_trailing_stdin(self):
        target = self._fingerprint(self.DIVERGENT)
        smallest = minimize_input(
            self.DIVERGENT, lambda cand: self._fingerprint(cand) == target
        )
        assert smallest.stdin == (8,)

    def test_minimize_is_identity_when_nothing_shrinks(self):
        tight = FuzzInput(source="void run() { }", stdin=())
        result = minimize_input(tight, lambda cand: True)
        # Only the whole-body statement list exists; deleting nothing
        # else is possible, so the result still parses and runs.
        parse(result.source)


def _two_oracle_predicate(div, config):
    """The minimizer predicate as it was: execute every candidate."""

    def predicate(candidate):
        observation = run_oracles(candidate.source, candidate.stdin, config)
        kind = observation.divergence_kind
        return kind == div.kind and div.fingerprint == fingerprint_of(
            kind,
            observation.static.rules,
            normalized_events(observation.dynamic.events),
        )

    return predicate


class TestSameDivergence:
    @pytest.mark.parametrize("seed", [7, 43])
    def test_agrees_with_both_oracles_on_every_candidate(self, seed):
        config = FuzzConfig(seed=seed, iterations=120, minimize=False)
        divergences = run_campaign(config).divergences
        assert divergences
        verdicts = []
        for div in divergences:
            fast = same_divergence(div, config.oracle_config())
            full = _two_oracle_predicate(div, config.oracle_config())

            def both(candidate):
                expected = full(candidate)
                assert fast(candidate) == expected, candidate
                verdicts.append(expected)
                return expected

            minimize_input(FuzzInput(source=div.source, stdin=div.stdin), both)
        assert True in verdicts and False in verdicts

    def test_minimizer_executes_only_candidates_whose_rules_match(
        self, monkeypatch
    ):
        fuzzer = DifferentialFuzzer(FuzzConfig(seed=1))
        fuzzer.observe(TestMinimize.DIVERGENT)
        (div,) = fuzzer.divergences.values()
        asked, executed = [], []
        real_minimize, real_dynamic = campaign.minimize_input, oracles.dynamic_verdict

        def recording_minimize(fuzz_input, predicate, **options):
            def counted(candidate):
                asked.append(candidate.source)
                return predicate(candidate)

            return real_minimize(fuzz_input, counted, **options)

        def recording_dynamic(source, *args):
            executed.append(source)
            return real_dynamic(source, *args)

        monkeypatch.setattr(campaign, "minimize_input", recording_minimize)
        monkeypatch.setattr(oracles, "dynamic_verdict", recording_dynamic)
        fuzzer.finalize()
        matching = [
            source
            for source in asked
            if (verdict := static_verdict(source)) is not None
            and verdict.rules == div.static_rules
        ]
        assert 0 < len(matching) < len(asked)
        assert executed == matching


#: ``repro-fuzz minimize`` stdout on three divergent inputs, as the
#: minimizer printed it before its predicate checked the detector first.
_MINIMIZE_GOLDEN = (
    (
        TestMinimize.DIVERGENT.source,
        "8,9,9",
        """\
divergence 49e1a3172c597d02 (static-only)
static rules: PN-TAINTED-COUNT
dynamic events: placement-fit
minimized source:
char pool[64];
void run() {
  int n = 0;
  cin >> n;
  char* p = new (pool) char[n];
}

minimized stdin: 8
""",
    ),
    (
        """\
class string { public: string(); int length; };
string *st;
void receiveNames(int n) {
  string *stnames = new (st) string[n];
}
""",
        None,
        """\
divergence 83582fb8b45b3b23 (static-only)
static rules: PN-TAINTED-COUNT, PN-UNKNOWN-ARENA
dynamic events: placement-fit
minimized source:
string* st;
void receiveNames(int n) {
  string* stnames = new (st) string[n];
}

""",
    ),
    (
        """\
class Tiny {
  public:
    int f0;
};
class Wide : public Tiny {
  public:
    int g0;
    int g1;
};
void run() {
  Wide arena;
  Tiny* p = new (&arena) Tiny();
  cin >> p->f0;
  int i = 0;
  while (((i < p->f0) && (i < 8))) {
  }
}
""",
        "16777216",
        """\
divergence 7ba25a038258ada5 (dynamic-only)
static rules: -
dynamic events: dos-timeout, fault:SimulatedTimeout, placement-fit
minimized source:
class Tiny {
  public:
    int f0;
};
class Wide : public Tiny {
  public:
};
void run() {
  Wide arena;
  Tiny* p = new (&arena) Tiny();
  cin >> p->f0;
  int i = 0;
  while (((i < p->f0) && (i < 8))) {
  }
}

""",
    ),
)


@pytest.mark.parametrize("source, stdin, expected", _MINIMIZE_GOLDEN)
def test_cli_minimize_output_is_unchanged(tmp_path, capsys, source, stdin, expected):
    path = tmp_path / "diverging.mc"
    path.write_text(source)
    argv = ["minimize", str(path)] + (["--stdin", stdin] if stdin else [])
    assert fuzz_main(argv) == 0
    assert capsys.readouterr().out == expected
