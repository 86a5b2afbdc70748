"""Serialized/remote objects — the untrusted inputs of Section 3.2."""

from .json_codec import RemoteObject, construct_from_remote
from .remote import RemoteService, honest_service, malicious_service

__all__ = [
    "RemoteObject",
    "RemoteService",
    "construct_from_remote",
    "honest_service",
    "malicious_service",
]
