"""Untrusted object producers: the third-party services of Section 3.2.

The ``remoteobj`` passed to ``addStudent`` in Listings 6–8 comes from
here.
"""

from __future__ import annotations

from typing import Optional

from .._record import record
from ..taint.engine import TaintLabel
from .json_codec import RemoteObject


@record
class RemoteService:
    """A (possibly malicious) remote peer producing objects and lists."""

    name: str = "thirdparty"
    malicious: bool = False

    def get_student(
        self,
        gpa: float = 3.0,
        year: int = 2010,
        semester: int = 1,
        extra_fields: Optional[dict] = None,
        course_count: Optional[int] = None,
    ) -> RemoteObject:
        """A serialized Student-like object (Listings 6–7).

        A malicious service attaches surplus fields and a lying
        ``n``/course count — the knobs the copy loops trust.
        """
        fields: dict = {"gpa": gpa, "year": year, "semester": semester}
        if self.malicious:
            fields["n"] = course_count if course_count is not None else 64
            fields["courseid"] = list(range(9000, 9000 + fields["n"]))
            if extra_fields:
                fields.update(extra_fields)
        else:
            fields["n"] = course_count if course_count is not None else 2
            fields["courseid"] = [101, 102][: fields["n"]]
        labels = (
            frozenset({TaintLabel.REMOTE_OBJECT})
            if self.malicious
            else frozenset()
        )
        return RemoteObject(class_name="Student", fields=fields, labels=labels)

    def get_aggregate(self, payload_words: int) -> RemoteObject:
        """Listing 8's ``Someclass`` aggregate whose size the remote end
        inflates (indirect construction)."""
        return RemoteObject(
            class_name=f"Someclass{payload_words}",
            fields={"payload": list(range(payload_words))},
            labels=frozenset({TaintLabel.REMOTE_OBJECT})
            if self.malicious
            else frozenset(),
        )


def honest_service() -> RemoteService:
    """A well-behaved peer (the control condition)."""
    return RemoteService(name="registrar", malicious=False)


def malicious_service() -> RemoteService:
    """The attacker-run peer."""
    return RemoteService(name="evil-webservice", malicious=True)
