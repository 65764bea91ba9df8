"""Certified finite sets: residue tuples under explicit moduli, or integers.

Every constructed set carries its provenance (construction name and all
parameters needed to reproduce it bit for bit) and is meant to travel with
a verification report produced by :mod:`apfree.verify`.  Its elements are
checked once, when it is made, and ``DiscreteSet.verify`` certifies them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .verify import (VerificationReport, group_elements, integer_elements, verify_group_set,
                     verify_integer_set)


@dataclass
class DiscreteSet:
    kind: str  # "group" | "integer"
    elements: tuple
    moduli: tuple[int, ...] | None = None
    bound: int | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind == "group":
            if self.moduli is None:
                raise ValueError("group set needs moduli")
            self.moduli = tuple(int(m) for m in self.moduli)
            self.elements = group_elements(self.moduli, self.elements)
        elif self.kind == "integer":
            if self.bound is None:
                raise ValueError("integer set needs a bound")
            self.bound = int(self.bound)
            self.elements = integer_elements(self.bound, self.elements)
        else:
            raise ValueError(f"unknown kind {self.kind!r}")

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def universe(self) -> int:
        if self.kind == "group":
            return math.prod(self.moduli)
        return self.bound

    @property
    def density(self) -> Fraction:
        return Fraction(self.size, self.universe)

    def verify(self, subject: str | None = None,
               all_counterexamples: bool = False) -> VerificationReport:
        name = subject or self.provenance.get("construction", self.kind)
        # the elements are as their normaliser returned them, so the
        # certificate takes them as they are
        if self.kind == "group":
            return verify_group_set(self.moduli, self.elements, name, all_counterexamples)
        return verify_integer_set(self.bound, self.elements, name, all_counterexamples)
