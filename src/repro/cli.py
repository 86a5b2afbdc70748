"""Command-line front ends.

``repro-attacks``
    Run the attack gallery (or one named attack) under a chosen defense
    environment and print the outcome table; ``--matrix`` prints the
    full attack × defense matrix (experiment E14).

``repro-analyze``
    Run the placement-new detector — and optionally the legacy-scanner
    suite — over MiniC++ source files or the built-in paper corpus.
    ``--json`` emits machine-readable findings.

``repro-exec``
    Execute a MiniC++ source file on the simulated machine: choose the
    entry function, scripted stdin, and hardening flags, then watch the
    placement log, events, and frame exit.

``repro-serve``
    Run the JSON API service: a worker pool and result cache behind
    ``/analyze``, ``/attacks``, ``/matrix``, ``/exec``, ``/metrics``,
    and ``/healthz`` (see docs/SERVICE.md).

``repro-fuzz``
    Drive coverage-guided differential fuzzing campaigns (static
    detector vs. dynamic simulator): ``run`` executes a deterministic
    campaign and writes the report, ``report`` re-renders a saved
    report, ``triage`` records a human triage note on a divergence, and
    ``minimize`` shrinks one reproducer (see docs/FUZZING.md).

``repro-regress``
    Manage the replayable regression corpus (see docs/REGRESSION.md):
    ``record`` persists divergences from a campaign report or a single
    source file as content-addressed bundles, ``replay`` re-judges the
    whole store against the live oracles and fails on drift or on a
    version bump without rebaseline, ``list``/``diff`` inspect the
    store, ``rebaseline`` re-asserts expectations after an intentional
    detector change, and ``gc`` sweeps unreadable or tampered bundles.

``repro-matrix``
    Run the modern-mitigation sweep (see docs/DEFENSES.md): every
    attack-gallery scenario, generator seed family, and regression
    bundle under every defense — including the shadow call stack, VRT
    bounds table, and memory tagging.  ``run`` evaluates (byte-identical
    at any ``--jobs``), ``report`` renders a saved
    report, and ``diff`` exits 1 on any cell-outcome drift (the CI
    ``matrix-smoke`` gate).

``repro-score``
    Rank a multi-package MiniC++ corpus by propagated blast radius
    (see docs/SCORING.md): ``score`` prints per-package CWE/CAPEC
    risks, ``rank`` prints the corpus ranking (``--json`` is
    byte-stable), and ``diff`` compares two saved reports.

Every front end exits 0 on success; 1 on findings, drift or a failed
job; 2 on bad input (missing or unreadable files, reports of the wrong
kind, unknown attack/environment/defense names, malformed arguments);
and 130 when interrupted — so scripts and service workers can tell
usage errors from real findings.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Optional, Sequence

from .fuzz.vocabulary import DEFAULT_STEP_BUDGET

#: Exit status for bad input, shared by every front end.
EX_USAGE = 2


class _CommandError(Exception):
    """Refuse a command: :func:`_run_command` prints ``error: <message>``
    and exits ``status`` — :data:`EX_USAGE` for bad input, 1 for a
    failed pooled job."""

    def __init__(self, message: str, status: int = EX_USAGE):
        super().__init__(message)
        self.status = status


def _read_text(path: str) -> str:
    """The UTF-8 text of a source file or saved report."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as error:
        reason = getattr(error, "strerror", None) or error
        raise _CommandError(f"cannot read {path}: {reason}")


def _read_source(path: str) -> tuple:
    """A MiniC++ source file's text and parsed program; a file that
    does not parse is bad input."""
    from .analysis import parse_cached
    from .errors import ParseError

    source = _read_text(path)
    try:
        return source, parse_cached(source)
    except ParseError as error:
        raise _CommandError(f"{path}: {error}")


def _write_text(path: str, text: str) -> None:
    """Write a report or ranking to ``--out`` (or back to its file)."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as error:
        raise _CommandError(f"cannot write {path}: {error.strerror or error}")


def _load_report(path: str, noun: str, *required: str) -> dict:
    """A saved JSON report: a ``noun`` is an object holding every
    ``required`` top-level key."""
    import json
    import os

    if not os.path.exists(path):
        raise _CommandError(f"no such report: {path}")
    try:
        document = json.loads(_read_text(path))
    except ValueError as error:
        raise _CommandError(f"{path} is not a {noun}: {error}")
    if not isinstance(document, dict) or any(
        key not in document for key in required
    ):
        raise _CommandError(f"{path} is not a {noun}")
    return document


def _lookup(find, name: str):
    """``find(name)``, whose unknown-name ``KeyError`` is bad input."""
    try:
        return find(name)
    except KeyError as error:  # KeyError's str() adds quotes; unwrap
        raise _CommandError(error.args[0])


def _stdin_token(token: str):
    """One ``--stdin`` token: an integer (``0x``/``0o``/``0b`` too), else
    a float, else a word."""
    for parse in (lambda text: int(text, 0), float):
        try:
            return parse(token)
        except ValueError:
            pass
    return token


def _add_stdin_option(parser) -> None:
    """``--stdin``: the comma-separated tokens cin reads, as a tuple."""
    parser.add_argument(
        "--stdin",
        default="",
        type=lambda text: tuple(map(_stdin_token, text.split(","))) if text else (),
        help="comma-separated tokens for cin: integers, floats or words",
    )


def _add_pool_options(parser, default_jobs: int, noun: str) -> None:
    """``--jobs``/``--backend``: fan ``noun`` out over a process pool."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=default_jobs,
        metavar="N",
        help=f"with --backend process, fan {noun} out over N worker "
        f"processes; 0, or the thread backend, runs them in this process "
        f"(default: {default_jobs})",
    )
    parser.add_argument(
        "--backend",
        choices=("thread", "process"),
        default="thread",
        help="thread runs the batch in this process; process fans it out "
        "over --jobs worker processes (default: thread)",
    )


def _batch_pool(args):
    """The pool a batch command fans out over, as a context manager:
    a ``WorkerPool`` of ``--jobs`` processes for ``--backend process``,
    shut down when the block exits, else ``None`` (run inline).  Batch
    units are GIL-bound, so threads would only take turns at them."""
    if args.jobs == 0 or args.backend != "process":
        return contextlib.nullcontext()
    from .service.workers import WorkerPool

    return WorkerPool(args.jobs, "process")


def _run_command(args, prog: str, *checks) -> int:
    """Run a parsed command: the first ``(bad, message)`` of ``checks``
    that holds is bad input, as is ``--jobs`` below 0 or
    ``--step-budget`` below 1.  A :class:`_CommandError` prints
    ``error: <message>`` and exits its status; a hard Ctrl-C exits 130.

    Every pool user runs its pool inside :func:`_batch_pool` (or its
    own ``with`` block), which has drained the pool by the time the
    interrupt reaches here, so exiting cannot orphan workers.
    """
    checks += (
        (getattr(args, "jobs", 0) < 0, "--jobs must be >= 0"),
        (getattr(args, "step_budget", 1) < 1, "--step-budget must be >= 1"),
    )
    try:
        for bad, message in checks:
            if bad:
                raise _CommandError(message)
        return args.func(args)
    except _CommandError as error:
        print(f"error: {error}", file=sys.stderr)
        return error.status
    except KeyboardInterrupt:
        print(f"{prog}: interrupted", file=sys.stderr)
        return 130


def attacks_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro-attacks``."""
    parser = argparse.ArgumentParser(
        prog="repro-attacks",
        description="Run the placement-new attack gallery (Kundu & Bertino, ICDCS'11)",
    )
    parser.add_argument(
        "--attack",
        help="run a single attack by name (default: the whole gallery)",
    )
    parser.add_argument(
        "--env",
        help="defense environment label (default: unprotected)",
    )
    parser.add_argument(
        "--matrix",
        action="store_true",
        help="run every attack under every defense and print the matrix",
    )
    parser.add_argument(
        "--list", action="store_true", help="list attack and environment names"
    )
    parser.add_argument(
        "--verbose", action="store_true", help="include per-attack details"
    )
    parser.set_defaults(func=_attacks_run)
    return _run_command(parser.parse_args(argv), "attacks")


def _attacks_run(args) -> int:
    from .attacks import (
        ALL_ENVIRONMENTS,
        UNPROTECTED,
        all_attacks,
        attack_by_name,
        environment_by_label,
    )

    if args.list:
        print("attacks:")
        for scenario in all_attacks():
            print(f"  {scenario.name:38s} {scenario.paper_ref}")
        print("environments:")
        for env in ALL_ENVIRONMENTS:
            print(f"  {env.label}")
        return 0

    if args.matrix:
        from .matrix import attack_rows, render_attack_table, run_sweep

        print(render_attack_table(run_sweep(rows=attack_rows())))
        return 0

    environment = UNPROTECTED if args.env is None else _lookup(environment_by_label, args.env)
    scenarios = [_lookup(attack_by_name, args.attack)] if args.attack else all_attacks()
    exit_code = 0
    for scenario in scenarios:
        result = scenario.run(environment)
        print(result.describe())
        if args.verbose:
            for key, value in result.detail.items():
                print(f"    {key} = {value}")
        if args.attack and not result.succeeded and not result.detected_by:
            exit_code = 1
    return exit_code


def analyze_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro-analyze``."""
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description="Static placement-new vulnerability detector (MiniC++)",
    )
    parser.add_argument(
        "files", nargs="*", help="MiniC++ source files (default: paper corpus)"
    )
    parser.add_argument(
        "--legacy",
        action="store_true",
        help="also run the classic ITS4-style scanners for comparison",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit findings as JSON instead of text",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="accepted for compatibility: every file is analyzed in this "
        "process, in order, at any N (default: 1)",
    )
    parser.add_argument(
        "--cache-dir",
        help="persist results on disk, under the keys repro-serve uses, so "
        "repeat sweeps are warm",
    )
    parser.set_defaults(func=_analyze_run)
    args = parser.parse_args(argv)
    return _run_command(args, "analyze", (args.jobs < 1, "--jobs must be >= 1"))


def _analyze_run(args) -> int:
    from .service.workers import report_from_payload, run_analyze

    if args.files:
        sources = [(path, _read_source(path)[0]) for path in args.files]
    else:
        from .workloads.corpus import FULL_CORPUS

        sources = [(prog.key, prog.source) for prog in FULL_CORPUS]
    analyze = run_analyze
    if args.cache_dir:
        from .service.cache import ResultCache
        from .service.jobs import AnalyzeJob

        cache = ResultCache(directory=args.cache_dir)

        def analyze(payload: dict) -> dict:
            """The cached result under ``repro-serve``'s job key, else a
            fresh one, stored."""
            key = AnalyzeJob(**payload).key()
            result = cache.get(key)
            if result is None:
                result = run_analyze(payload)
                cache.put(key, result)
            return result

    payloads = [
        analyze({"source": source, "label": name, "legacy": args.legacy})
        for name, source in sources
    ]

    if args.json:
        import json

        from .score.threats import scoring_versions

        header = {"fingerprint": scoring_versions(), "tool": "repro-analyze"}
        print(json.dumps(header, indent=2, sort_keys=True))
    any_flagged = False
    for payload in payloads:
        report = report_from_payload(payload)
        any_flagged = any_flagged or report.flagged
        if args.json:
            print(report.to_json())
            continue
        print(f"── {payload['label']} ──")
        print(report.render())
        for legacy_payload in payload.get("legacy", ()):
            print(report_from_payload(legacy_payload).render())
        print()
    return 1 if any_flagged and args.files else 0


def exec_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro-exec``."""
    parser = argparse.ArgumentParser(
        prog="repro-exec",
        description="Execute MiniC++ source on the simulated 32-bit machine",
    )
    parser.add_argument("file", help="MiniC++ source file")
    parser.add_argument("--entry", default="main", help="entry function")
    parser.add_argument(
        "--args",
        default="",
        help="comma-separated entry arguments (ints; default: 0,0 for main)",
    )
    _add_stdin_option(parser)
    parser.add_argument(
        "--canary",
        action="store_true",
        help="enable the StackGuard-style random canary",
    )
    parser.set_defaults(func=_exec_run)
    return _run_command(parser.parse_args(argv), "exec")


def _exec_run(args) -> int:
    from .service.workers import run_exec

    source, program = _read_source(args.file)
    if all(function.name != args.entry for function in program.functions):
        raise _CommandError(f"{args.file}: no function '{args.entry}'")
    entry_args: tuple = ()
    try:
        if args.args:
            entry_args = tuple(int(token, 0) for token in args.args.split(","))
        elif args.entry == "main":
            entry_args = (0, 0)
    except ValueError as error:
        raise _CommandError(f"bad integer argument: {error}")
    result = run_exec(
        dict(source=source, entry=args.entry, args=entry_args,
             stdin=args.stdin, canary=args.canary)
    )
    if "refused" in result:
        raise _CommandError(f"{args.file}: {result['refused']}")
    if result["died"]:
        print(f"simulated process died: {result['error']}")
        return 1
    print(
        f"{args.entry}() returned {result['return_value']} "
        f"after {result['steps']} steps"
    )
    if result["hijacked"]:
        print(f"!! control-flow hijack: returned to {result['hijack_target']:#010x}")
    for output in result["outputs"]:
        print("stdout:", output)
    for record in result["placements"]:
        marker = " OVERFLOW" if record["overflow"] else ""
        print(
            f"placement: {record['type']} ({record['size']}B) at "
            f"{record['address']:#010x}"
            + (f" arena {record['arena_size']}B" if record["arena_size"] else "")
            + marker
        )
    for event in result["events"]:
        print("event:", event)
    return 0


def serve_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro-serve``."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve the analysis/attack job engine over a JSON API",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8071, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--workers", type=int, default=4, help="worker pool size (default: 4)"
    )
    parser.add_argument(
        "--backend",
        choices=("thread", "process"),
        default="thread",
        help="worker pool backend (processes buy CPU parallelism)",
    )
    parser.add_argument(
        "--cache-dir",
        default=".repro-cache",
        help="on-disk result cache directory (default: .repro-cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache entirely",
    )
    parser.set_defaults(func=_serve_run)
    args = parser.parse_args(argv)
    return _run_command(
        args,
        "serve",
        (args.workers < 1, "--workers must be >= 1"),
        (not 0 <= args.port <= 65535, f"--port must be 0-65535, got {args.port}"),
    )


def _serve_run(args) -> int:
    import signal

    from .service import ServiceEngine, create_server

    engine = ServiceEngine(
        workers=args.workers,
        backend=args.backend,
        cache_dir=None if args.no_cache else args.cache_dir,
        use_cache=not args.no_cache,
    )
    try:
        server = create_server(engine, host=args.host, port=args.port)
    except OSError as error:
        engine.close()
        raise _CommandError(f"cannot bind {args.host}:{args.port}: {error}")
    host, port = server.server_address[:2]
    print(
        f"repro-serve listening on http://{host}:{port} "
        f"({args.workers} {args.backend} workers, cache "
        f"{'off' if args.no_cache else args.cache_dir})",
        flush=True,
    )
    # SIGTERM stops the server the way Ctrl-C does, so the pool is shut
    # down: a process pool's workers would otherwise outlive the server.
    def _terminate(signum, frame):
        raise KeyboardInterrupt

    previous_handler = None
    try:
        previous_handler = signal.signal(signal.SIGTERM, _terminate)
    except ValueError:  # pragma: no cover - non-main thread
        pass
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("draining...", flush=True)
    finally:
        server.shutdown()
        server.server_close()
        engine.close()
        if previous_handler is not None:
            signal.signal(signal.SIGTERM, previous_handler)
    return 0


def _load_campaign(path: str):
    """A saved ``repro-fuzz run`` report."""
    from .fuzz import CampaignReport

    return CampaignReport.from_dict(
        _load_report(path, "campaign report", "schema", "seed", "iterations")
    )


def _fuzz_run(args) -> int:
    import signal
    import threading

    from .fuzz import (
        CampaignInterrupted,
        CheckpointError,
        FuzzConfig,
        run_campaign,
    )

    if args.resume and not args.checkpoint_dir:
        raise _CommandError("--resume requires --checkpoint-dir")
    config = FuzzConfig(
        seed=args.seed,
        iterations=args.iterations,
        step_budget=args.step_budget,
        canary=not args.no_canary,
        minimize=not args.no_minimize,
        max_corpus=args.max_corpus,
    )
    store = None
    if getattr(args, "record", None):
        from .regress import RegressionStore

        store = RegressionStore(args.record)

    # First Ctrl-C: graceful round-boundary stop (drain the in-flight
    # round, write a checkpoint).  Second Ctrl-C: abort hard via the
    # usual KeyboardInterrupt path.
    stop_event = threading.Event()

    def _request_stop(signum, frame):
        if stop_event.is_set():
            raise KeyboardInterrupt
        stop_event.set()
        print(
            "interrupt: finishing the current round and writing a "
            "checkpoint... (Ctrl-C again to abort hard)",
            file=sys.stderr,
        )

    previous_handler = None
    try:
        previous_handler = signal.signal(signal.SIGINT, _request_stop)
    except ValueError:  # pragma: no cover - non-main thread
        pass
    try:
        with _batch_pool(args) as pool:
            report = run_campaign(
                config,
                pool=pool,
                batch_size=args.batch_size,
                batch_timeout=args.batch_timeout,
                store=store,
                checkpoint_dir=args.checkpoint_dir,
                resume=args.resume,
                skip_version_check=args.skip_version_check,
                stop_event=stop_event,
                stop_after_rounds=args.stop_after or None,
            )
    except CampaignInterrupted as interrupted:
        print(f"fuzz: {interrupted}", file=sys.stderr)
        if interrupted.checkpoint_path is not None:
            print(
                "fuzz: resume with 'repro-fuzz run --resume "
                f"--checkpoint-dir {args.checkpoint_dir}'",
                file=sys.stderr,
            )
        return 130
    except CheckpointError as error:
        raise _CommandError(str(error))
    finally:
        if previous_handler is not None:
            signal.signal(signal.SIGINT, previous_handler)
    if getattr(report, "record_errors", 0):
        print(
            f"warning: {report.record_errors} divergence(s) could not be "
            "recorded to the regression store (fuzz.record_errors)",
            file=sys.stderr,
        )
    if store is not None:
        print(
            f"recorded {len(report.divergences)} divergence(s) into "
            f"{store.directory} ({len(store)} bundle(s) total)"
        )
    if args.out:
        _write_text(args.out, report.to_json())
    if args.json:
        print(report.to_json(), end="")
    else:
        print(report.render())
    if args.fail_on_untriaged and report.untriaged:
        print(
            f"FAIL: {len(report.untriaged)} un-triaged divergence(s); "
            "triage with 'repro-fuzz triage' or fix the oracle gap",
            file=sys.stderr,
        )
        return 1
    return 0


def _fuzz_report(args) -> int:
    report = _load_campaign(args.report)
    if args.json:
        print(report.to_json(), end="")
    else:
        print(report.render())
    return 1 if args.fail_on_untriaged and report.untriaged else 0


def _fuzz_triage(args) -> int:
    from ._record import replace

    report = _load_campaign(args.report)
    if not args.fingerprint:  # list mode
        for div in report.sorted_divergences():
            status = "known-benign" if div.triage else "OPEN"
            print(f"{div.fingerprint}  [{status}]  {div.kind}")
        return 0
    if not args.note:
        raise _CommandError("--note is required when marking a fingerprint")
    matched = False
    for index, div in enumerate(report.divergences):
        if div.fingerprint == args.fingerprint:
            report.divergences[index] = replace(
                div, triage=f"manual: {args.note}"
            )
            matched = True
    if not matched:
        raise _CommandError(f"no divergence with fingerprint '{args.fingerprint}'")
    _write_text(args.report, report.to_json())
    print(f"marked {args.fingerprint} known-benign (manual: {args.note})")
    return 0


def _fuzz_minimize(args) -> int:
    from .fuzz import (
        FuzzInput,
        divergence_from,
        minimize_input,
        run_oracles,
        same_divergence,
    )

    source = _read_text(args.file)
    fuzz_input = FuzzInput(source=source, stdin=args.stdin)
    observation = run_oracles(source, args.stdin)
    div = divergence_from(observation, fuzz_input)
    if div is None:
        verdict = "invalid run" if not observation.valid else "oracles agree"
        print(f"no divergence to minimize: {verdict}")
        return 1

    smallest = minimize_input(fuzz_input, same_divergence(div))
    print(f"divergence {div.fingerprint} ({div.kind})")
    print(f"static rules: {', '.join(div.static_rules) or '-'}")
    print(f"dynamic events: {', '.join(div.dynamic_events) or '-'}")
    print("minimized source:")
    print(smallest.source)
    if smallest.stdin:
        print(f"minimized stdin: {','.join(str(t) for t in smallest.stdin)}")
    return 0


def fuzz_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro-fuzz``."""
    parser = argparse.ArgumentParser(
        prog="repro-fuzz",
        description="Coverage-guided differential fuzzing: static detector "
        "vs. dynamic simulator oracle",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one deterministic campaign")
    run_parser.add_argument("--seed", type=int, default=1, help="campaign seed")
    run_parser.add_argument(
        "--iterations",
        type=int,
        default=200,
        help="mutation iterations beyond the seed set (default: 200)",
    )
    _add_pool_options(run_parser, 4, "batches")
    run_parser.add_argument(
        "--batch-size",
        type=int,
        default=50,
        help="iterations per service batch (default: 50)",
    )
    run_parser.add_argument(
        "--batch-timeout",
        type=float,
        default=120.0,
        help="with --backend process, the deadline of each batch in "
        "seconds; batches run in this process have none (default: 120)",
    )
    run_parser.add_argument(
        "--step-budget",
        type=int,
        default=DEFAULT_STEP_BUDGET,
        help=f"interpreter step budget per execution (default: {DEFAULT_STEP_BUDGET})",
    )
    run_parser.add_argument(
        "--max-corpus",
        type=int,
        default=256,
        help="live corpus size cap (default: 256)",
    )
    run_parser.add_argument(
        "--no-canary",
        action="store_true",
        help="run the dynamic oracle without the stack canary",
    )
    run_parser.add_argument(
        "--no-minimize",
        action="store_true",
        help="skip divergence minimization (faster campaigns)",
    )
    run_parser.add_argument(
        "--record",
        metavar="DIR",
        help="record every minimized divergence into this regression "
        "store (see repro-regress / docs/REGRESSION.md)",
    )
    run_parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="write a resumable checkpoint after the seed pass and after "
        "every completed round (see docs/FUZZING.md)",
    )
    run_parser.add_argument(
        "--resume",
        action="store_true",
        help="continue from the newest checkpoint in --checkpoint-dir "
        "instead of starting over",
    )
    run_parser.add_argument(
        "--skip-version-check",
        action="store_true",
        help="resume even if the checkpoint was recorded under different "
        "detector/simulator/triage versions (verdicts may mix regimes)",
    )
    run_parser.add_argument(
        "--stop-after",
        type=int,
        default=0,
        metavar="ROUNDS",
        help="gracefully stop after N completed rounds this invocation, "
        "writing a checkpoint and exiting 130 (0 = run to completion)",
    )
    run_parser.add_argument("--out", help="write the JSON report to this file")
    run_parser.add_argument(
        "--json", action="store_true", help="print the JSON report to stdout"
    )
    run_parser.add_argument(
        "--fail-on-untriaged",
        action="store_true",
        help="exit 1 if any divergence lacks a triage label (CI gate)",
    )
    run_parser.set_defaults(func=_fuzz_run)

    report_parser = sub.add_parser("report", help="render a saved report")
    report_parser.add_argument("report", help="campaign report JSON file")
    report_parser.add_argument(
        "--json", action="store_true", help="re-emit canonical JSON"
    )
    report_parser.add_argument(
        "--fail-on-untriaged",
        action="store_true",
        help="exit 1 if any divergence lacks a triage label",
    )
    report_parser.set_defaults(func=_fuzz_report)

    triage_parser = sub.add_parser(
        "triage", help="list divergences or mark one known-benign"
    )
    triage_parser.add_argument("report", help="campaign report JSON file")
    triage_parser.add_argument(
        "--fingerprint", help="divergence fingerprint to mark (omit to list)"
    )
    triage_parser.add_argument(
        "--note", help="why this divergence is benign (recorded in the report)"
    )
    triage_parser.set_defaults(func=_fuzz_triage)

    minimize_parser = sub.add_parser(
        "minimize", help="shrink one diverging source file"
    )
    minimize_parser.add_argument("file", help="MiniC++ source file")
    _add_stdin_option(minimize_parser)
    minimize_parser.set_defaults(func=_fuzz_minimize)

    args = parser.parse_args(argv)
    # a hard abort: a second Ctrl-C, or one outside the graceful-stop window
    return _run_command(
        args,
        "fuzz",
        (getattr(args, "iterations", 0) < 0, "--iterations must be >= 0"),
        (getattr(args, "batch_size", 1) < 1, "--batch-size must be >= 1"),
        (getattr(args, "max_corpus", 1) < 1, "--max-corpus must be >= 1"),
        (getattr(args, "batch_timeout", 1.0) <= 0, "--batch-timeout must be > 0"),
        (getattr(args, "stop_after", 0) < 0, "--stop-after must be >= 0"),
    )


def _open_store(directory: str, create: bool = False):
    """A store handle; a missing directory is bad input unless ``create``."""
    import os

    from .regress import RegressionStore

    if not create and not os.path.isdir(directory):
        raise _CommandError(f"no regression store at {directory}")
    return RegressionStore(directory, create=create)


def _regress_record(args) -> int:
    from .fuzz import OracleConfig

    store = _open_store(args.store, create=True)
    config = OracleConfig(
        step_budget=args.step_budget, canary=not args.no_canary
    )
    if args.from_report:
        report = _load_campaign(args.from_report)
        tally = store.record_report(
            report,
            config,
            meta={"seed": report.seed, "recorded_by": "repro-regress record"},
        )
        summary = (
            ", ".join(f"{count} {kind}" for kind, count in sorted(tally.items()))
            or "no divergences in the report"
        )
        print(f"recorded from {args.from_report}: {summary}")
        return 0
    if not args.source:
        raise _CommandError("provide --from-report or --source")
    source = _read_text(args.source)
    from .fuzz import run_oracles
    from .regress import bundle_from_observation

    observation = run_oracles(source, args.stdin, config)
    bundle = bundle_from_observation(
        source,
        args.stdin,
        config,
        observation,
        triage=f"manual: {args.note}" if args.note else "",
        meta={"recorded_by": "repro-regress record", "path": args.source},
    )
    bundle_id, disposition = store.record(bundle, overwrite=args.force)
    print(
        f"{disposition} {bundle_id} (expected {bundle.expected_kind}"
        + (f", fingerprint {bundle.expected_fingerprint}" if bundle.expected_fingerprint else "")
        + ")"
    )
    if disposition == "kept":
        print("an existing bundle with different expectations was kept; "
              "pass --force to overwrite", file=sys.stderr)
        return 1
    return 0


def _regress_replay(args) -> int:
    store = _open_store(args.store)
    from .regress import replay_store

    with _batch_pool(args) as pool:
        drift = replay_store(
            store,
            check_versions=not args.skip_version_check,
            chunk_size=args.chunk_size,
            pool=pool,
        )
    if args.out:
        _write_text(args.out, drift.to_json())
    if args.json:
        print(drift.to_json(), end="")
    else:
        print(drift.render())
    if drift.drifted and not args.allow_drift:
        print(
            f"FAIL: {len(drift.drifted)} bundle(s) drifted; inspect with "
            "'repro-regress diff', fix the regression, or 'repro-regress "
            "rebaseline' after an intentional change",
            file=sys.stderr,
        )
        return 1
    return 0


def _regress_list(args) -> int:
    from .regress import current_versions

    store = _open_store(args.store)
    live = current_versions()
    count = 0
    for bundle in store.bundles():
        count += 1
        stale = "" if bundle.versions == live else " STALE-VERSION"
        rules = ",".join(bundle.expected_rules) or "-"
        events = ",".join(bundle.expected_events) or "-"
        print(
            f"{bundle.bundle_id}  [{bundle.status}] {bundle.expected_kind}"
            f"{stale}  rules={rules} events={events}"
            + (f"  (family {bundle.family})" if bundle.family else "")
        )
    print(f"{count} bundle(s) in {store.directory}")
    return 0


def _regress_diff(args) -> int:
    import json as _json

    from .regress import replay_store

    store = _open_store(args.store)
    drift = replay_store(
        store,
        check_versions=not args.skip_version_check,
        bundle_ids=args.ids or None,
    )
    for result in drift.sorted_results():
        if result.ok:
            continue
        print(f"── {result.bundle_id} [{result.status}] ──")
        if result.detail:
            print(f"  {result.detail}")
        for side, view in (("expected", result.expected), ("observed", result.observed)):
            print(f"  {side}: {_json.dumps(view, sort_keys=True)}")
    clean = len(drift.results) - len(drift.drifted)
    print(f"{clean}/{len(drift.results)} bundle(s) reproduce exactly")
    return 1 if drift.drifted else 0


def _regress_rebaseline(args) -> int:
    from .regress import rebaseline_store

    store = _open_store(args.store)
    outcome = rebaseline_store(store, bundle_ids=args.ids or None)
    for bundle_id in outcome["updated"]:
        print(f"rebaselined {bundle_id}")
    print(
        f"{len(outcome['updated'])} updated, "
        f"{len(outcome['unchanged'])} already current, "
        f"{len(outcome['failed'])} failed"
    )
    for bundle_id, reason in sorted(outcome["failed"].items()):
        print(f"FAILED {bundle_id}: {reason}", file=sys.stderr)
    return 1 if outcome["failed"] else 0


def _regress_gc(args) -> int:
    store = _open_store(args.store)
    outcome = store.gc(dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    for name, reason in sorted(outcome["removed"].items()):
        print(f"{verb} {name}: {reason}")
    print(
        f"scanned {outcome['scanned']}, kept {outcome['kept']}, "
        f"{verb} {len(outcome['removed'])}"
    )
    return 0


def regress_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro-regress``."""
    parser = argparse.ArgumentParser(
        prog="repro-regress",
        description="Replayable regression corpus for oracle divergences "
        "(record, replay, and gate on drift)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_store(p):
        p.add_argument(
            "--store",
            default="corpus/regress",
            metavar="DIR",
            help="regression store directory (default: corpus/regress)",
        )

    record_parser = sub.add_parser(
        "record", help="record divergences as replayable bundles"
    )
    add_store(record_parser)
    record_parser.add_argument(
        "--from-report",
        metavar="FILE",
        help="record every divergence of a saved campaign report",
    )
    record_parser.add_argument(
        "--source", metavar="FILE", help="record one MiniC++ source file"
    )
    _add_stdin_option(record_parser)
    record_parser.add_argument(
        "--note",
        default="",
        help="manual triage note stored with a --source bundle",
    )
    record_parser.add_argument(
        "--step-budget",
        type=int,
        default=DEFAULT_STEP_BUDGET,
        help="oracle step budget",
    )
    record_parser.add_argument(
        "--no-canary", action="store_true", help="record without the canary"
    )
    record_parser.add_argument(
        "--force",
        action="store_true",
        help="overwrite an existing bundle with different expectations",
    )
    record_parser.set_defaults(func=_regress_record)

    replay_parser = sub.add_parser(
        "replay", help="re-judge the whole store against the live oracles"
    )
    add_store(replay_parser)
    _add_pool_options(replay_parser, 0, "bundle chunks")
    replay_parser.add_argument(
        "--chunk-size",
        type=int,
        default=8,
        help="bundles per replay job (default: 8)",
    )
    replay_parser.add_argument(
        "--fail-on-drift",
        action="store_true",
        help="exit 1 on any drift (the default; kept explicit for CI)",
    )
    replay_parser.add_argument(
        "--allow-drift",
        action="store_true",
        help="report drift but exit 0 (triage workflows)",
    )
    replay_parser.add_argument(
        "--skip-version-check",
        action="store_true",
        help="compare verdicts even for bundles recorded under other "
        "versions (no stale-version failures)",
    )
    replay_parser.add_argument(
        "--out", metavar="FILE", help="write the JSON drift report here"
    )
    replay_parser.add_argument(
        "--json", action="store_true", help="print the JSON drift report"
    )
    replay_parser.set_defaults(func=_regress_replay)

    list_parser = sub.add_parser("list", help="list the recorded bundles")
    add_store(list_parser)
    list_parser.set_defaults(func=_regress_list)

    diff_parser = sub.add_parser(
        "diff", help="show expected-vs-observed detail for drifted bundles"
    )
    add_store(diff_parser)
    diff_parser.add_argument(
        "ids", nargs="*", help="bundle ids (default: the whole store)"
    )
    diff_parser.add_argument(
        "--skip-version-check",
        action="store_true",
        help="compare verdicts even across version bumps",
    )
    diff_parser.set_defaults(func=_regress_diff)

    rebaseline_parser = sub.add_parser(
        "rebaseline",
        help="re-assert expectations and versions after an intentional change",
    )
    add_store(rebaseline_parser)
    rebaseline_parser.add_argument(
        "ids", nargs="*", help="bundle ids (default: the whole store)"
    )
    rebaseline_parser.set_defaults(func=_regress_rebaseline)

    gc_parser = sub.add_parser(
        "gc", help="sweep unreadable or address-mismatched bundles"
    )
    add_store(gc_parser)
    gc_parser.add_argument(
        "--dry-run", action="store_true", help="report without deleting"
    )
    gc_parser.set_defaults(func=_regress_gc)

    args = parser.parse_args(argv)
    return _run_command(
        args,
        "regress",
        (getattr(args, "chunk_size", 1) < 1, "--chunk-size must be >= 1"),
    )


def _score_corpus(args):
    """Score the package graph named by ``args.packages`` (or the demo
    graph) inline or over the service pool."""
    from .errors import ParseError
    from .score import demo_graph, load_package_dir, score_graph
    from .service.workers import JobFailed

    if args.demo:
        graph = demo_graph()
    else:
        try:
            graph = load_package_dir(args.packages)
        except (FileNotFoundError, ValueError) as error:
            raise _CommandError(str(error))
    if not 0.0 <= args.attenuation <= 1.0:
        raise _CommandError("--attenuation must be in [0, 1]")
    try:
        with _batch_pool(args) as pool:
            return score_graph(graph, args.attenuation, pool=pool)
    except ParseError as error:
        raise _CommandError(str(error))
    except JobFailed as failure:
        raise _CommandError(f"score job failed: {failure}", status=1)


def _score_score(args) -> int:
    score = _score_corpus(args)
    if args.json:
        print(score.to_json())
        return 0
    for name in score.ranking:
        entry = score.entry(name)
        print(
            f"── {name} ── intrinsic {entry.intrinsic}, "
            f"blast {entry.blast_radius:.2f}, exposure {entry.exposure:.2f}"
        )
        for risk in entry.risks:
            cwes = ",".join(f"CWE-{n}" for n in risk["cwe"])
            print(
                f"  line {risk['line']:>3}  {risk['trigger']:<28} "
                f"{risk['threat']} ({cwes})  "
                f"{risk['likelihood']}/{risk['impact']} score={risk['score']}"
            )
        if not entry.risks:
            print("  no intrinsic risks")
    return 0


def _score_rank(args) -> int:
    score = _score_corpus(args)
    output = score.to_json() if args.json else score.render(top=args.top)
    if args.out:
        _write_text(args.out, output + "\n")
        print(f"wrote {args.out}")
    else:
        print(output)
    return 0


def _score_diff(args) -> int:
    from .score import diff_score_reports

    lines = diff_score_reports(
        *(
            _load_report(path, "score report", "packages", "ranking")
            for path in (args.before, args.after)
        )
    )
    for line in lines:
        print(line)
    if not lines:
        print("reports are equivalent")
    return 1 if lines else 0


def _matrix_regress_dir(args) -> Optional[str]:
    import os

    if args.no_regress:
        return None
    if args.regress_dir:
        if not os.path.isdir(args.regress_dir):
            raise _CommandError(f"no such regression store: {args.regress_dir}")
        return args.regress_dir
    default = "corpus/regress"
    return default if os.path.isdir(default) else None


def _matrix_run(args) -> int:
    from .defenses import defense_by_name
    from .matrix import canonical_report_json, render_report, run_sweep
    from .service.workers import JobFailed

    defenses = (
        tuple(name.strip() for name in args.defenses.split(",") if name.strip())
        if args.defenses
        else ()
    )
    regress_dir = _matrix_regress_dir(args)
    for name in defenses:
        _lookup(defense_by_name, name)
    try:
        with _batch_pool(args) as pool:
            report = run_sweep(
                defenses=defenses,
                seed=args.seed,
                regress_dir=regress_dir,
                step_budget=args.step_budget,
                pool=pool,
            )
    except JobFailed as failure:
        raise _CommandError(f"matrix-cell job failed: {failure}", status=1)
    encoded = canonical_report_json(report)
    if args.out:
        _write_text(args.out, encoded + "\n")
    if args.json:
        print(encoded)
    else:
        print(render_report(report))
    return 0


def _matrix_report(args) -> int:
    from .matrix import canonical_report_json, render_report

    report = _load_report(args.report, "matrix sweep report", "rows")
    if args.json:
        print(canonical_report_json(report))
    else:
        print(render_report(report))
    return 0


def _matrix_diff(args) -> int:
    from .matrix import diff_reports

    drift = diff_reports(
        *(
            _load_report(path, "matrix sweep report", "rows")
            for path in (args.baseline, args.current)
        )
    )
    for line in drift:
        print(line)
    if not drift:
        print("matrix outcomes are identical")
    return 1 if drift else 0


def matrix_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro-matrix``."""
    parser = argparse.ArgumentParser(
        prog="repro-matrix",
        description="Modern-mitigation sweep: gallery attacks, generator "
        "seed families, and regression bundles under every defense "
        "(see docs/DEFENSES.md)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="evaluate the sweep")
    _add_pool_options(run_parser, 4, "cells")
    run_parser.add_argument(
        "--seed", type=int, default=1, help="generator seed-row seed (default: 1)"
    )
    run_parser.add_argument(
        "--regress-dir",
        metavar="DIR",
        help="regression store for bundle rows (default: corpus/regress "
        "when present)",
    )
    run_parser.add_argument(
        "--no-regress",
        action="store_true",
        help="skip the regression-bundle rows",
    )
    run_parser.add_argument(
        "--defenses",
        help="comma-separated defense names (default: the full roster)",
    )
    run_parser.add_argument(
        "--step-budget",
        type=int,
        default=DEFAULT_STEP_BUDGET,
        help=f"interpreter step budget per program cell (default: {DEFAULT_STEP_BUDGET})",
    )
    run_parser.add_argument("--out", help="write the canonical JSON report here")
    run_parser.add_argument(
        "--json", action="store_true", help="print canonical JSON, not the table"
    )
    run_parser.set_defaults(func=_matrix_run)

    report_parser = sub.add_parser("report", help="render a saved sweep report")
    report_parser.add_argument("report", help="sweep report JSON file")
    report_parser.add_argument(
        "--json", action="store_true", help="re-emit canonical JSON"
    )
    report_parser.set_defaults(func=_matrix_report)

    diff_parser = sub.add_parser(
        "diff", help="compare two sweep reports; exit 1 on outcome drift"
    )
    diff_parser.add_argument("baseline", help="baseline sweep report (JSON)")
    diff_parser.add_argument("current", help="current sweep report (JSON)")
    diff_parser.set_defaults(func=_matrix_diff)

    return _run_command(parser.parse_args(argv), "matrix")


def score_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro-score``."""
    parser = argparse.ArgumentParser(
        prog="repro-score",
        description="CWE/CAPEC risk scoring with dependency-graph "
        "blast-radius propagation (see docs/SCORING.md)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sub_parser):
        sub_parser.add_argument(
            "packages",
            nargs="?",
            default="corpus/packages",
            help="package corpus directory (default: corpus/packages)",
        )
        sub_parser.add_argument(
            "--demo",
            action="store_true",
            help="score the built-in demo graph instead of a directory",
        )
        sub_parser.add_argument(
            "--attenuation",
            type=float,
            default=0.5,
            help="depth attenuation for propagated score (default: 0.5)",
        )
        _add_pool_options(sub_parser, 0, "packages")
        sub_parser.add_argument(
            "--json",
            action="store_true",
            help="emit the byte-stable JSON report",
        )

    score_parser = sub.add_parser(
        "score", help="per-package risks with CWE/CAPEC attribution"
    )
    add_common(score_parser)
    score_parser.set_defaults(func=_score_score)

    rank_parser = sub.add_parser(
        "rank", help="corpus ranking by propagated blast radius"
    )
    add_common(rank_parser)
    rank_parser.add_argument(
        "--top", type=int, default=0, help="show only the top N packages"
    )
    rank_parser.add_argument("--out", help="write the report to a file")
    rank_parser.set_defaults(func=_score_rank)

    diff_parser = sub.add_parser(
        "diff", help="compare two saved JSON score reports"
    )
    diff_parser.add_argument("before", help="baseline score report (JSON)")
    diff_parser.add_argument("after", help="new score report (JSON)")
    diff_parser.set_defaults(func=_score_diff)

    args = parser.parse_args(argv)
    return _run_command(
        args, "score", (getattr(args, "top", 0) < 0, "--top must be >= 0")
    )


if __name__ == "__main__":  # pragma: no cover - manual entry
    sys.exit(attacks_main())
