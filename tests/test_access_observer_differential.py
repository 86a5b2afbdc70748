"""Differential test: write-only observers skipped on reads.

An access hook that declares ``observes_reads = False`` is never called
for a read: ``read`` and ``read_c_string`` notify only the hooks that
observe reads (the heap's header walk notifies none).  The reference
here is an address space that hands every access to every hook, as all
hooks were once called.  Random access and heap
sequences, run with a random mix of read-observing and write-only
observers, must give every observer exactly the reference's calls, in
order and with the same bytes, minus the reads a write-only observer
ignores; results, exceptions and final heap bytes must match too.
Sequences also detach and re-attach observers and run probes inside
``unobserved()``, which must swap both hook lists in place.
"""

from __future__ import annotations

from contextlib import contextmanager

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.defenses.tagging import MemoryTagging
from repro.defenses.vrt import VariableRecordTable
from repro.memory import AddressSpace, HeapAllocator, SegmentKind
from repro.memory.events import MemoryEventTap
from repro.memory.shadow import ShadowMemory

_HEAP = AddressSpace().segment(SegmentKind.HEAP)
_STACK = AddressSpace().segment(SegmentKind.STACK)


class _EveryHookSeesReads(AddressSpace):
    """The reference: every hook is called on every read and write.

    Its read-hook list *is* the list of every hook, so no bookkeeping of
    a second list (adding, removing, swapping) can hide a hook from a
    read here.
    """

    @property
    def _read_hooks(self) -> list:
        return self._hooks

    @_read_hooks.setter
    def _read_hooks(self, hooks: list) -> None:
        pass

    def add_access_hook(self, hook) -> None:
        self._hooks.append(hook)


def _recorder_class(observes_reads: bool) -> type:
    class Recorder:
        def __init__(self) -> None:
            self.log: list = []

        def __call__(self, address: int, data: bytes, is_write: bool) -> None:
            self.log.append((address, bytes(data), is_write))

    Recorder.observes_reads = observes_reads
    return Recorder


_OBSERVERS = st.lists(st.booleans(), min_size=1, max_size=4)

_ADDRESS = st.one_of(
    st.builds(lambda offset: _HEAP.base + offset, st.integers(-8, 0x200)),
    st.builds(lambda offset: _STACK.base + offset, st.integers(0, 0x40)),
    st.builds(lambda offset: _HEAP.end + offset, st.integers(-16, 16)),
)
_DATA = st.one_of(
    st.binary(max_size=24),
    st.builds(lambda byte, count: bytes((byte,)) * count, st.integers(1, 255), st.integers(0, 24)),
)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("read"), _ADDRESS, st.integers(0, 24)),
        st.tuples(st.just("write"), _ADDRESS, _DATA),
        st.tuples(st.just("fill"), _ADDRESS, st.integers(0, 24), st.sampled_from([0, 0x41])),
        st.tuples(st.just("read_int"), _ADDRESS, st.sampled_from([1, 4, 8])),
        st.tuples(st.just("read_c_string"), _ADDRESS, st.sampled_from([8, 4096])),
        st.tuples(st.just("alloc"), st.integers(1, 48)),
        st.tuples(st.just("free"), st.integers(0, 7)),
        st.tuples(st.just("trample"), st.integers(0, 7), st.integers(-8, 24), _DATA),
        st.tuples(st.just("detach"), st.integers(0, 3)),
        st.tuples(st.just("attach"), st.integers(0, 3)),
        st.tuples(st.just("probe"), _ADDRESS, st.integers(0, 24)),
        st.tuples(st.just("probe_alloc"), st.integers(1, 48)),
    ),
    max_size=40,
)


@contextmanager
def _unseen(observers):
    """Fail if any observer is called inside the block."""
    before = [len(observer.log) for observer in observers]
    yield
    assert [len(observer.log) for observer in observers] == before


def _session(space_cls, flags, ops, strict):
    """Replay ``ops``; returns ``(transcript, heap bytes, logs)``."""
    space = space_cls(strict_alignment=strict)
    observers = [_recorder_class(flag)() for flag in flags]
    attached = [True] * len(observers)
    for observer in observers:
        space.add_access_hook(observer)
    heap = HeapAllocator(space)
    issued: list = []
    transcript = []
    for op in ops:
        name, *args = op
        try:
            if name == "read":
                result = space.read(*args)
            elif name == "write":
                result = space.write(*args)
            elif name == "fill":
                result = space.fill(*args)
            elif name == "read_int":
                result = space.read_int(*args)
            elif name == "read_c_string":
                result = space.read_c_string(*args)
            elif name == "alloc":
                result = heap.allocate(*args)
                issued.append(result)
            elif name == "probe_alloc":
                # the allocation's header writes are recorded, not seen
                with _unseen(observers), space.unobserved() as accesses:
                    issued.append(heap.allocate(*args))
                result = (issued[-1], accesses)
            elif name == "free":
                result = issued and heap.free(issued[args[0] % len(issued)])
            elif name == "trample":
                index, delta, data = args
                result = issued and space.write(
                    issued[index % len(issued)] + delta, data
                )
            elif name in ("detach", "attach"):
                index = args[0] % len(observers)
                if attached[index] != (name == "attach"):
                    attached[index] = name == "attach"
                    if name == "attach":
                        space.add_access_hook(observers[index])
                    else:
                        space.remove_access_hook(observers[index])
                result = None
            else:  # probe
                with _unseen(observers), space.unobserved() as accesses:
                    result = (space.read(*args), accesses)
            transcript.append(("ok", result))
        except Exception as error:  # compared by type and message
            transcript.append((type(error).__name__, str(error)))
    segment = space.segment(SegmentKind.HEAP)
    heap_bytes = segment.read(segment.base, segment.size)
    return transcript, heap_bytes, [observer.log for observer in observers]


@settings(deadline=None)
@given(_OBSERVERS, _OPS, st.booleans())
@example(  # a write-only observer alone
    [False],
    [("alloc", 16), ("alloc", 16), ("free", 0), ("free", 1), ("read", _HEAP.base, 8)],
    False,
)
@example(  # mixed: coalescing writes reach both
    [True, False],
    [("alloc", 8), ("alloc", 8), ("alloc", 8), ("free", 0), ("free", 2), ("free", 1)],
    False,
)
@example(  # the read observer leaves and comes back around unobserved probes
    [True, False],
    [
        ("alloc", 8),
        ("detach", 0),
        ("alloc", 8),
        ("probe_alloc", 8),
        ("attach", 0),
        ("probe", _HEAP.base, 8),
        ("read_c_string", _HEAP.base, 4096),
        ("free", 1),
    ],
    True,
)
def test_observers_see_every_access_but_ignored_reads(flags, ops, strict):
    """Each observer's calls equal the every-hook reference's, minus
    the reads a write-only observer ignores."""
    transcript, heap_bytes, logs = _session(AddressSpace, flags, ops, strict)
    expected_transcript, expected_bytes, expected_logs = _session(
        _EveryHookSeesReads, flags, ops, strict
    )
    assert transcript == expected_transcript
    assert heap_bytes == expected_bytes
    for observes_reads, log, expected in zip(flags, logs, expected_logs):
        if not observes_reads:
            expected = [call for call in expected if call[2]]
        assert log == expected


def test_only_read_checking_observers_observe_reads():
    """The event tap, shadow memory and memory tagging check writes
    only; the VRT checks reads too."""
    for owner in (MemoryEventTap, ShadowMemory, MemoryTagging):
        assert owner.observes_reads is False, owner
    assert getattr(VariableRecordTable, "observes_reads", True)
