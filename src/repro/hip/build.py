"""On-the-fly build system: the CMake + hipify workflow of Section 3.1.

The application maintains *only* CUDA sources.  When targeting an AMD
device, compilation first hipifies each source into the build directory;
when targeting NVIDIA, sources compile as-is.  Re-"compiling" after a
source change re-hipifies only the modified files (content-hash caching),
exactly like the paper's CMake integration where "recompilation
automatically triggers re-hipification of the modified source files".

"Compilation" here is simulated: it validates the translated source
(no untranslated CUDA identifiers may remain when targeting AMD) and
produces an :class:`Executable` handle recording which sources and
translation results went into it.

Kept by ``examples/hipify_port.py``: the on-the-fly hipification build of
the paper's CUDA -> HIP port (Sec. 3).
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.gpu.specs import GPUSpec
from repro.hip.hipify import HipifyResult, hipify_perl
from repro.hip.mappings import CUDA_TO_HIP, UNSUPPORTED_CUDA
from repro.util.validation import ReproError

__all__ = ["SourceFile", "Executable", "OnTheFlyBuildSystem", "CompileError"]


class CompileError(ReproError):
    """Simulated compiler error (residual CUDA identifiers, etc.)."""


@dataclass
class SourceFile:
    """One maintained CUDA source file."""

    name: str
    text: str

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()


@dataclass
class Executable:
    """Result of a successful build."""

    target_vendor: str
    arch: str
    sources: List[str]
    translated: Dict[str, str] = field(default_factory=dict)
    build_count: int = 0


# Any surviving CUDA-prefixed identifier in a HIP build is a compile error
# (undeclared identifier). cuTENSOR survivors are the canonical case.
_RESIDUAL_CUDA_RE = re.compile(
    r"\b(cuda[A-Z]\w+|cublas[A-Z]\w+|cufft[A-Z]\w+|cutensor\w+|curand[A-Z]\w+)\b"
)


class OnTheFlyBuildSystem:
    """Holds CUDA sources; builds for AMD (via hipify) or NVIDIA (as-is).

    Parameters
    ----------
    hipify_enabled:
        The CMake toggle: when False, builds targeting AMD raise, and
        NVIDIA builds bypass translation entirely.
    custom_overrides:
        Application-provided replacements for unsupported CUDA APIs
        (e.g. ``{"cutensorPermute": "fftmatvec_permute_kernel"}``).
    """

    def __init__(
        self,
        *,
        hipify_enabled: bool = True,
        custom_overrides: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.hipify_enabled = hipify_enabled
        self.custom_overrides = dict(custom_overrides or {})
        self._sources: Dict[str, SourceFile] = {}
        # cache: source name -> (digest, HipifyResult)
        self._hip_cache: Dict[str, tuple] = {}
        self.hipify_invocations = 0
        self.builds = 0

    # -- source management -------------------------------------------------
    def add_source(self, name: str, text: str) -> None:
        """Add or replace a maintained CUDA source file."""
        self._sources[name] = SourceFile(name=name, text=text)

    def update_source(self, name: str, text: str) -> None:
        """Modify an existing source (triggers re-hipification on build)."""
        if name not in self._sources:
            raise ReproError(f"unknown source {name!r}")
        self._sources[name] = SourceFile(name=name, text=text)

    def sources(self) -> List[str]:
        """Names of the maintained CUDA sources, sorted."""
        return sorted(self._sources)

    def get_source(self, name: str) -> str:
        """Current text of a maintained source."""
        return self._sources[name].text

    # -- translation cache ---------------------------------------------------
    def _hipify_cached(self, src: SourceFile) -> HipifyResult:
        cached = self._hip_cache.get(src.name)
        if cached is not None and cached[0] == src.digest:
            return cached[1]
        result = hipify_perl(
            src.text,
            filename=src.name,
            custom_overrides=self.custom_overrides,
            strict=True,
        )
        self._hip_cache[src.name] = (src.digest, result)
        self.hipify_invocations += 1
        return result

    # -- building ------------------------------------------------------------
    def build(self, target: GPUSpec) -> Executable:
        """Compile all sources for the target vendor.

        AMD targets hipify-then-compile; NVIDIA targets compile the CUDA
        sources directly ("no hipification needed").
        """
        if not self._sources:
            raise CompileError("no sources to build")
        self.builds += 1

        translated: Dict[str, str] = {}
        if target.vendor == "AMD":
            if not self.hipify_enabled:
                raise CompileError(
                    "target is AMD but hipification is disabled "
                    "(set hipify_enabled=True, the CMake toggle)"
                )
            for src in self._sources.values():
                result = self._hipify_cached(src)
                self._check_compiles(result.source, src.name, vendor="AMD")
                translated[src.name] = result.source
        elif target.vendor == "NVIDIA":
            for src in self._sources.values():
                self._check_compiles(src.text, src.name, vendor="NVIDIA")
                translated[src.name] = src.text
        else:
            raise CompileError(f"no toolchain for vendor {target.vendor!r}")

        return Executable(
            target_vendor=target.vendor,
            arch=target.arch,
            sources=sorted(self._sources),
            translated=translated,
            build_count=self.builds,
        )

    def _check_compiles(self, text: str, name: str, vendor: str) -> None:
        """Simulated compile: reject residual CUDA identifiers on AMD."""
        if vendor != "AMD":
            return
        residues = set()
        for m in _RESIDUAL_CUDA_RE.finditer(text):
            ident = m.group(1)
            # Identifiers the tables know are translated already; anything
            # still CUDA-looking is undeclared under the HIP toolchain.
            if ident in CUDA_TO_HIP or ident in UNSUPPORTED_CUDA:
                residues.add(ident)
            elif ident.startswith(("cuda", "cublas", "cufft", "cutensor", "curand")):
                residues.add(ident)
        if residues:
            raise CompileError(
                f"{name}: undeclared identifiers under HIP toolchain: "
                f"{sorted(residues)}"
            )

    # -- stats ---------------------------------------------------------------
    def cache_info(self) -> Dict[str, int]:
        """Hit/miss accounting for tests of rebuild behaviour."""
        return {
            "sources": len(self._sources),
            "cached": len(self._hip_cache),
            "hipify_invocations": self.hipify_invocations,
            "builds": self.builds,
        }
