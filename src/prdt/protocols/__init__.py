"""Protocol catalogue and the name -> adapter registry used by the CLI."""

from __future__ import annotations

from ..kernel import Consensus
from .voting import Membership, ParallelVoting, Voting
from .paxos import Paxos
from .variants import GenPaxos, MultiPaxos, ReconfigurablePaxos, SequencePaxos

PROTOCOLS = {
    "voting": Voting,
    "paxos": Paxos,
    "multipaxos": MultiPaxos,
    "sequence": SequencePaxos,
    "gen": GenPaxos,
    "reconfig": ReconfigurablePaxos,
}


def make_protocol(name: str, membership: Membership) -> Consensus:
    try:
        factory = PROTOCOLS[name]
    except KeyError:
        raise ValueError(f"unknown protocol {name!r}") from None
    return factory(membership)


__all__ = [
    "GenPaxos",
    "Membership",
    "MultiPaxos",
    "ParallelVoting",
    "Paxos",
    "PROTOCOLS",
    "ReconfigurablePaxos",
    "SequencePaxos",
    "Voting",
    "make_protocol",
]
