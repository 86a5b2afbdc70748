"""Byte-granular taint tracking.

The paper's threat model is *attacker-influenced data reaching a
placement site*: ``cin >>`` input, serialized/remote objects (Section
3.2), values flowing indirectly through intermediate objects (Section
3.3).  The taint engine labels simulated memory bytes with their origin
so scenarios — and the dynamic half of the detector — can prove that a
corrupted return address or size variable is in fact attacker-derived.
"""

from .engine import TaintEngine, TaintLabel

__all__ = ["TaintEngine", "TaintLabel"]
