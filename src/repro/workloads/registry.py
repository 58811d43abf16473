"""Named registry of workload models, mirroring the platform registry.

The paper's power profiles are workload-shaped: VASP methods, MILC,
DGEMM/STREAM each impose a distinct utilization structure on the same
hardware.  This registry makes "a workload" a first-class, pluggable
concept the way :mod:`repro.hardware.platform` did for hardware — every
layer that used to assume :class:`~repro.vasp.workload.VaspWorkload`
(classification, fleet mixes, prediction features, cache fingerprints,
the CLI) resolves workloads through here instead.

A *workload model* is the named family (``vasp``, ``milc``, ``cloudsc``
...); a *workload instance* is one runnable member of that family (a
Table I benchmark, a MILC lattice size).  Instances stay plain
dataclasses that expose the engine contract the rest of the library
already consumes:

``name``
    Stable instance label (enters cache keys and reports).
``phases(parallel, comm=None) -> list[MacroPhase]``
    The macro-phase schedule for a parallel layout.
``uncapped_runtime_s(parallel) -> float``
    Total runtime at default clocks.

Classification hints are carried as :class:`WorkloadClass` *values*
(strings), not the enum, so this module never imports the capping layer
(which imports this one).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import RegistryLookupError

#: Valid classification hints: the WorkloadClass values understood by
#: repro.capping.policy (kept as strings to avoid the import cycle).
CLASS_HINTS: tuple[str, ...] = ("higher_order", "basic_dft", "other")

#: Valid roofline regimes a model may declare.
ROOFLINE_REGIMES: tuple[str, ...] = (
    "compute-bound",
    "memory-bound",
    "mixed",
    "alternating",
    "idle",
)


@dataclass(frozen=True)
class WorkloadModel:
    """One registered workload family.

    Attributes
    ----------
    id:
        Stable registry id (``"vasp"``, ``"milc"``); enters cache
        fingerprints, so renaming an id invalidates caches (safe — only
        outputs carry the bit-identity contract).
    family:
        Human grouping label (``"dft"``, ``"lattice-qcd"``...).
    roofline:
        Dominant regime, one of :data:`ROOFLINE_REGIMES`.
    workload_type:
        The instance dataclass; used to resolve an instance back to its
        model (:func:`model_for`).
    builder:
        ``variant -> instance`` factory; variants are the named presets
        (benchmark names for VASP, lattice sizes for MILC).
    default_widths:
        Healthy node counts for fleet mixes and scenario sampling.
    class_hint:
        Power class every instance falls into when ``classifier`` is
        unset, one of :data:`CLASS_HINTS`.
    classifier:
        Optional per-instance refinement, returning a class-hint value.
    """

    id: str
    family: str
    description: str
    roofline: str
    workload_type: type
    builder: Callable[[str], Any]
    variants: tuple[str, ...]
    default_variant: str
    default_widths: tuple[int, ...] = (1, 2)
    class_hint: str = "other"
    classifier: Callable[[Any], str] | None = None

    def build(self, variant: str | None = None) -> Any:
        """Construct one instance (the default variant when unset)."""
        chosen = self.default_variant if variant is None else variant
        if chosen not in self.variants:
            raise RegistryLookupError(
                f"unknown {self.id} variant {chosen!r}; "
                f"known: {', '.join(self.variants)}"
            )
        return self.builder(chosen)

    def classify(self, workload: Any) -> str:
        """Class-hint value for one instance (cheap, input-only)."""
        if self.classifier is not None:
            return self.classifier(workload)
        return self.class_hint


_REGISTRY: dict[str, WorkloadModel] = {}

#: The model unqualified benchmark names resolve against.
DEFAULT_MODEL_ID = "vasp"


def register_workload_model(model: WorkloadModel, replace: bool = False) -> None:
    """Register a workload model under its id.

    Validation mirrors :func:`repro.hardware.platform.register_platform`:
    structural errors surface at registration, not first use.
    """
    if not model.id:
        raise ValueError("workload model id must be non-empty")
    if ":" in model.id or any(ch.isspace() for ch in model.id):
        raise ValueError(
            f"workload model id {model.id!r} must not contain ':' or whitespace"
            " (':' separates model and variant in workload refs)"
        )
    if model.id in _REGISTRY and not replace:
        raise ValueError(
            f"workload model {model.id!r} already registered "
            "(pass replace=True to override)"
        )
    if model.roofline not in ROOFLINE_REGIMES:
        raise ValueError(
            f"{model.id}: roofline {model.roofline!r} not one of "
            f"{', '.join(ROOFLINE_REGIMES)}"
        )
    if not model.variants:
        raise ValueError(f"{model.id}: needs at least one variant")
    if model.default_variant not in model.variants:
        raise ValueError(
            f"{model.id}: default variant {model.default_variant!r} "
            f"not in variants {model.variants}"
        )
    if not model.default_widths or any(w < 1 for w in model.default_widths):
        raise ValueError(f"{model.id}: default_widths must be positive node counts")
    if model.class_hint not in CLASS_HINTS:
        raise ValueError(
            f"{model.id}: class hint {model.class_hint!r} not one of "
            f"{', '.join(CLASS_HINTS)}"
        )
    _REGISTRY[model.id] = model


def get_workload_model(model: "str | WorkloadModel") -> WorkloadModel:
    """Resolve a model id (or pass a model through)."""
    if isinstance(model, WorkloadModel):
        return model
    try:
        return _REGISTRY[model]
    except KeyError:
        raise RegistryLookupError(
            f"unknown workload model {model!r}; "
            f"known: {', '.join(workload_model_ids())}"
        ) from None


def workload_model_ids() -> list[str]:
    """Registered model ids, default model first."""
    ids = sorted(_REGISTRY)
    if DEFAULT_MODEL_ID in ids:
        ids.remove(DEFAULT_MODEL_ID)
        ids.insert(0, DEFAULT_MODEL_ID)
    return ids


def model_for(workload: Any) -> WorkloadModel | None:
    """The registered model a workload instance belongs to, if any."""
    for model in _REGISTRY.values():
        if type(workload) is model.workload_type:
            return model
    for model in _REGISTRY.values():
        if isinstance(workload, model.workload_type):
            return model
    return None


def workload_model_id(workload: Any) -> str:
    """Stable model id for cache fingerprints.

    Unregistered workload types still fingerprint (under a qualified
    type name) so ad-hoc workloads never crash the cache layer.
    """
    model = model_for(workload)
    if model is not None:
        return model.id
    return f"unregistered:{type(workload).__module__}.{type(workload).__qualname__}"


# ---------------------------------------------------------------------------
# Workload references: "<benchmark>" or "<model>" or "<model>:<variant>"
# ---------------------------------------------------------------------------


def workload_refs() -> list[str]:
    """Every resolvable reference: benchmark names plus model:variant."""
    from repro.vasp.benchmarks import benchmark_names

    refs = list(benchmark_names())
    for model_id in workload_model_ids():
        if model_id == DEFAULT_MODEL_ID:
            continue  # its variants are the benchmark names above
        model = _REGISTRY[model_id]
        refs.append(model_id)
        refs.extend(f"{model_id}:{variant}" for variant in model.variants)
    return refs


def resolve_workload(ref: str) -> Any:
    """Build the workload a reference names.

    Accepts the historical Table I benchmark names (``"Si256_hse"``),
    bare model ids (``"milc"`` -> default variant) and qualified
    ``model:variant`` references (``"milc:large"``).
    """
    from repro.vasp.benchmarks import BENCHMARKS

    if ref in BENCHMARKS:
        return BENCHMARKS[ref].build()
    model_id, sep, variant = ref.partition(":")
    model = _REGISTRY.get(model_id)
    if model is None:
        raise RegistryLookupError(
            f"unknown workload {ref!r}; known: benchmarks "
            f"{', '.join(sorted(BENCHMARKS))}; models "
            f"{', '.join(workload_model_ids())} (use model or model:variant)"
        )
    return model.build(variant if sep else None)


def resolve_widths(ref: str) -> tuple[int, ...]:
    """Healthy node counts for a workload reference (fleet sampling)."""
    from repro.vasp.benchmarks import BENCHMARKS

    if ref in BENCHMARKS:
        case = BENCHMARKS[ref]
        return tuple(n for n in case.node_counts if n <= case.optimal_nodes)
    model_id = ref.partition(":")[0]
    return get_workload_model(model_id).default_widths
