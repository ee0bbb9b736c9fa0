"""The 5-phase mixed-precision configuration (``-prec xxxxx``).

Each of the five matvec phases — (1) broadcast+pad, (2) FFT,
(3) SBGEMV, (4) IFFT, (5) unpad+reduce — computes in single or double
precision, giving 32 configurations.  The original executable takes them
as strings like ``-prec dssdd``; this module parses/formats those and
provides the configuration lattice used by the Pareto analysis.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, Tuple, Union

from repro.util.dtypes import Precision, lowest
from repro.util.validation import ReproError

__all__ = ["PHASE_NAMES", "PrecisionConfig"]

PHASE_NAMES: Tuple[str, ...] = ("pad", "fft", "sbgemv", "ifft", "unpad")

# The configs ``parse`` has built, by canonical string: at most 32.
_PARSED: Dict[str, "PrecisionConfig"] = {}


@dataclass(frozen=True)
class PrecisionConfig:
    """Per-phase compute precisions of one matvec configuration."""

    pad: Precision
    fft: Precision
    sbgemv: Precision
    ifft: Precision
    unpad: Precision

    # -- constructors -------------------------------------------------------
    @classmethod
    def parse(cls, spec: Union[str, "PrecisionConfig"]) -> "PrecisionConfig":
        """Parse a 5-character string of ``d``/``s`` (e.g. ``"dssdd"``);
        interned, so a loop passing ``"ddddd"`` pays one dict lookup."""
        if isinstance(spec, PrecisionConfig):
            return spec
        hit = _PARSED.get(spec) if spec.__class__ is str else None
        if hit is not None:
            return hit
        s = str(spec).strip().lower()
        if len(s) != len(PHASE_NAMES):
            raise ReproError(
                f"precision config must have {len(PHASE_NAMES)} characters "
                f"(phases {PHASE_NAMES}), got {spec!r}"
            )
        try:
            return _PARSED.setdefault(s, cls(*(Precision.parse(c) for c in s)))
        except ValueError as exc:
            raise ReproError(f"invalid precision config {spec!r}: {exc}") from exc

    @classmethod
    def all_double(cls) -> "PrecisionConfig":
        """The baseline configuration, ``"ddddd"``."""
        return cls.parse("ddddd")

    @classmethod
    def all_single(cls) -> "PrecisionConfig":
        return cls.parse("sssss")

    @classmethod
    def all_configs(cls) -> Iterator["PrecisionConfig"]:
        """All 32 configurations, in lexicographic d<s order of the string."""
        for chars in itertools.product("ds", repeat=len(PHASE_NAMES)):
            yield cls.parse("".join(chars))

    # -- accessors -----------------------------------------------------------
    @property
    def phases(self) -> Tuple[Precision, ...]:
        return (self.pad, self.fft, self.sbgemv, self.ifft, self.unpad)

    def phase(self, name: str) -> Precision:
        """Precision of one named phase ('pad', 'fft', ...)."""
        if name not in PHASE_NAMES:
            raise ReproError(f"unknown phase {name!r}; phases are {PHASE_NAMES}")
        return getattr(self, name)

    @functools.cached_property
    def code(self) -> str:
        """The 5-character string — a cheap dict key: a config itself
        hashes through five Python-level ``Enum.__hash__`` calls."""
        return "".join(p.char for p in self.phases)

    def __str__(self) -> str:
        return self.code

    @property
    def is_all_double(self) -> bool:
        return all(p is Precision.DOUBLE for p in self.phases)

    @property
    def n_single(self) -> int:
        """Number of single-precision phases (a crude 'aggressiveness')."""
        return sum(p is Precision.SINGLE for p in self.phases)

    # -- derived precisions ------------------------------------------------------
    def reorder_precision(self, before: str, after: str) -> Precision:
        """Precision of a pure memory reorder between two phases.

        Paper footnote 8: intermediate reorderings are "always computed in
        the lowest possible precision given the compute precisions of the
        major phases adjacent to them".
        """
        return lowest(self.phase(before), self.phase(after))

    def adjoint_view(self) -> "PrecisionConfig":
        """The same physical configuration read in the F* direction.

        The adjoint matvec traverses the phases with input/output swapped:
        its Phase 1 pads the *data* vector and its Phase 4 IFFT produces
        the *parameter* vector.  The configuration string indexes the
        algorithmic phases (pad, fft, sbgemv, ifft, unpad) in execution
        order for either direction, so no permutation is needed; this
        helper exists to make that explicit at call sites.
        """
        return self
