"""The differential oracles' fixed vocabulary, with no simulator behind it.

The step budget, the event kinds that make a dynamic verdict
vulnerable, and the auto-triage class labels are read by modules that
never run a program: job specs, the regression store's version
fingerprint and the risk scorer.  They live here so those modules can
import them without loading the interpreter and the memory simulator
that :mod:`.oracles` and :mod:`.divergence` bring in.
"""

#: Step budget for one fuzzed execution — small enough that the §4.4
#: DoS family times out quickly, large enough for every honest seed.
DEFAULT_STEP_BUDGET = 50_000

#: Event kinds that make the dynamic verdict "vulnerable".  Bookkeeping
#: kinds (``write:<segment>``, ``placement-fit``) are coverage-only.
VULNERABLE_EVENTS = frozenset(
    {
        "placement-overflow",
        "segment-faulted",
        "canary-clobbered",
        "vtable-slot-overwritten",
        "leak-detected",
        "dos-timeout",
        "hijack",
    }
)

#: The labels of :data:`~repro.fuzz.divergence.TRIAGE_RULES`, in rule
#: order (a test pins the two together).
TRIAGE_LABELS = (
    "taint-quantifier",
    "unexercised-confusion",
    "latent-exposure",
    "unbounded-loop",
    "resource-exhaustion",
    "wild-pointer",
)
