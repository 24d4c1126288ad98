"""Three-valued predicate outcomes with machine-checkable evidence.

Holds carries a theorem tag (a named structural fact about the family, never
a sampled pass); Refuted carries a witness that re-verifies on replay;
Unknown carries the sampling parameters that failed to decide.
"""

from __future__ import annotations

from dataclasses import dataclass, field


HOLDS = "holds"
REFUTED = "refuted"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Verdict:
    outcome: str
    reason: str = ""  # theorem tag when holds
    witness: tuple = ()  # structured witness when refuted
    samples: int = 0  # sampling size when unknown
    detail: str = ""

    @property
    def is_holds(self) -> bool:
        return self.outcome == HOLDS

    @property
    def is_refuted(self) -> bool:
        return self.outcome == REFUTED

    @property
    def is_unknown(self) -> bool:
        return self.outcome == UNKNOWN

    def summary(self) -> str:
        if self.is_holds:
            return f"holds[{self.reason}]"
        if self.is_refuted:
            w = ", ".join(repr(x) for x in self.witness)
            return f"refuted[{self.detail or 'witness'}: {w}]"
        return f"unknown[samples={self.samples}]"

    def __repr__(self):
        return self.summary()


def holds(reason: str, detail: str = "") -> Verdict:
    return Verdict(HOLDS, reason=reason, detail=detail)


def refuted(*witness, detail: str = "") -> Verdict:
    return Verdict(REFUTED, witness=tuple(witness), detail=detail)


def unknown(samples: int, detail: str = "") -> Verdict:
    return Verdict(UNKNOWN, samples=samples, detail=detail)


@dataclass(frozen=True)
class SampleSpec:
    """Deterministic sampling parameters; identical spec, identical samples.

    A spec draws each seeded stream once and replays it: `draws` holds the
    prefix of every stream drawn under this spec (see `classify.seeded`), so
    the predicates checked together on one spec share one sample universe.
    It lives as long as the spec and takes no part in its equality, hash or
    repr."""

    seed: int = 0
    count: int = 200
    generator_bound: int = 4
    denominator_bound: int = 12
    value_window: int = 8
    draws: dict = field(default_factory=dict, init=False, repr=False, compare=False, hash=False)

    def rng(self, salt: str = ""):
        import random

        mix = self.seed
        for ch in salt:
            mix = (mix * 1_000_003 + ord(ch)) % (1 << 63)
        return random.Random(mix)
