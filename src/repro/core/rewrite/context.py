"""Shared state for one MTSQL→SQL rewrite: C, D', schema and flags."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..conversion import ConversionRegistry
from ..mtschema import MTSchema


@dataclass
class RewriteOptions:
    """Which parts of the canonical rewrite to emit.

    The canonical algorithm always emits everything; the *trivial semantic
    optimizations* (§4.1) disable individual parts when C and D allow it:

    * ``add_dataset_filters``   — the per-table ``ttid IN (D')`` filters,
    * ``add_ttid_join_predicates`` — the extra ``a.ttid = b.ttid`` predicates,
    * ``wrap_conversions``      — the ``fromUniversal(toUniversal(...))`` calls.
    """

    add_dataset_filters: bool = True
    add_ttid_join_predicates: bool = True
    wrap_conversions: bool = True

    @classmethod
    def canonical(cls) -> "RewriteOptions":
        return cls()

    @classmethod
    def trivially_optimized(
        cls, client: int, dataset: Sequence[int], all_tenants: Sequence[int]
    ) -> "RewriteOptions":
        """Compute the §4.1 flags from C, D and the set of all tenants."""
        dataset = tuple(sorted(set(dataset)))
        every_tenant = tuple(sorted(set(all_tenants)))
        is_all = bool(every_tenant) and dataset == every_tenant
        single = len(dataset) == 1
        own_data_only = dataset == (client,)
        return cls(
            add_dataset_filters=not is_all,
            add_ttid_join_predicates=not single,
            wrap_conversions=not own_data_only,
        )


@dataclass
class RewriteContext:
    """Everything the canonical rewriter needs to know about the statement."""

    client: int
    dataset: tuple[int, ...]
    schema: MTSchema
    conversions: ConversionRegistry
    options: RewriteOptions = field(default_factory=RewriteOptions.canonical)
    all_tenants: tuple[int, ...] = ()
