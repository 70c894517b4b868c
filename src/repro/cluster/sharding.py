"""Embedding-table sharding across nodes under per-node memory budgets.

Production recommendation fleets are sized by embedding-table *placement*
("scale-in", MicroRec): the tables dwarf every dense layer, so which node
holds which rows decides both memory feasibility and how many bytes every
query must gather across the interconnect.  This module provides the two
canonical placements:

* :func:`shard_row_wise` — hash partitioning: every table's rows are
  spread near-evenly across all nodes.  Capacity scales with node count
  and no single table can overflow a node, but *every* query gathers from
  (almost) every node.
* :func:`shard_table_wise` — greedy bin-packing: whole tables are placed
  on single nodes, largest ``size × popularity`` product first, onto the
  node with the most remaining budget.  Popular tables stay local to one
  node, so the expected per-query gather traffic is lower, at the cost of
  placement feasibility (one table must fit one node).

Both return a :class:`ShardingPlan` whose constructor enforces the
invariants the property suite checks: every table row is assigned exactly
once, and no node exceeds its memory budget.  The same single pass over
the shards also accumulates per-node aggregates (rows, bytes, lookup share
and remote gather payload), so pricing a plan from any home node —
:meth:`ShardingPlan.remote_bytes_per_query`, :meth:`ShardingPlan.remote_rows`
and friends — is an O(nodes) read rather than another walk over every
shard.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.distributions import zipf_probabilities
from repro.models.cost import ModelCost

__all__ = [
    "FP32_BYTES",
    "EmbeddingTableSpec",
    "ShardAssignment",
    "ShardingError",
    "ShardingPlan",
    "shard_row_wise",
    "shard_table_wise",
    "tables_from_cost",
]

#: Bytes per embedding-table element (fp32, matching ``nn/embedding.py``).
FP32_BYTES = 4


class ShardingError(ValueError):
    """A placement is infeasible under the given per-node memory budgets."""


@dataclass(frozen=True)
class EmbeddingTableSpec:
    """One logical embedding table of the sharded model.

    Parameters
    ----------
    name : str
        Stable label used in plans and artifacts.
    num_rows : int
        Number of embedding rows (vocabulary size).
    dim : int
        Embedding dimension; a row occupies ``dim * FP32_BYTES`` bytes.
    lookups_per_query : float
        Expected row lookups this table serves per query, already folded
        over the funnel's items-per-query (popular tables take more).
    """

    name: str
    num_rows: int
    dim: int
    lookups_per_query: float

    def __post_init__(self) -> None:
        """Validate the table geometry."""
        if self.num_rows <= 0:
            raise ValueError(f"num_rows must be positive, got {self.num_rows}")
        if self.dim <= 0:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if self.lookups_per_query < 0:
            raise ValueError(f"lookups_per_query must be >= 0, got {self.lookups_per_query}")

    @property
    def row_bytes(self) -> int:
        """Storage footprint of one row in bytes."""
        return self.dim * FP32_BYTES

    @property
    def total_bytes(self) -> int:
        """Storage footprint of the whole table in bytes."""
        return self.num_rows * self.row_bytes


def tables_from_cost(
    cost: ModelCost,
    num_tables: int,
    items_per_query: float = 1.0,
    size_alpha: float = 0.8,
    popularity_alpha: float = 1.05,
) -> list[EmbeddingTableSpec]:
    """Derive a sharding-ready table set from a model's cost profile.

    The zoo's :class:`~repro.models.cost.ModelCost` records total embedding
    storage and lookups per scored item; this expands that aggregate into
    ``num_tables`` individual tables with Zipf-skewed sizes (real table
    sets are dominated by a few huge vocabularies) and Zipf-skewed lookup
    popularity — the ``size × popularity`` signal the table-wise packer
    bins on.

    Parameters
    ----------
    cost : ModelCost
        The model whose embedding tier is being sharded (use
        :meth:`~repro.models.cost.ModelCost.scaled` for fleet-scale
        footprints).
    num_tables : int
        How many logical tables to expand into.
    items_per_query : float
        Items the funnel scores per query on this model; per-table lookups
        are ``lookups_per_item × items_per_query`` split by popularity.
    size_alpha : float
        Zipf exponent of the table-size skew.
    popularity_alpha : float
        Zipf exponent of the lookup-popularity skew.

    Returns
    -------
    list[EmbeddingTableSpec]
        ``num_tables`` specs whose total bytes approximate
        ``cost.reference_storage_bytes``.
    """
    if num_tables <= 0:
        raise ValueError(f"num_tables must be positive, got {num_tables}")
    if items_per_query <= 0:
        raise ValueError(f"items_per_query must be positive, got {items_per_query}")
    row_bytes = cost.embedding_dim * FP32_BYTES
    total_rows = max(int(cost.reference_storage_bytes // row_bytes), num_tables)
    size_shares = zipf_probabilities(num_tables, size_alpha)
    rows = np.maximum(np.round(size_shares * total_rows).astype(np.int64), 1)
    lookup_shares = zipf_probabilities(num_tables, popularity_alpha)
    total_lookups = float(cost.embedding_lookups_per_item) * float(items_per_query)
    return [
        EmbeddingTableSpec(
            name=f"{cost.name}_t{i:02d}",
            num_rows=int(rows[i]),
            dim=cost.embedding_dim,
            lookups_per_query=float(lookup_shares[i] * total_lookups),
        )
        for i in range(num_tables)
    ]


@dataclass(frozen=True)
class ShardAssignment:
    """One contiguous row range of one table placed on one node.

    Parameters
    ----------
    table_index : int
        Index into the plan's table list.
    node : int
        Node holding the rows.
    row_start : int
        First row of the shard (inclusive).
    row_end : int
        One past the last row of the shard (exclusive).
    """

    table_index: int
    node: int
    row_start: int
    row_end: int

    def __post_init__(self) -> None:
        """Validate the row range."""
        if self.row_start < 0 or self.row_end <= self.row_start:
            raise ValueError(
                f"invalid shard range [{self.row_start}, {self.row_end}) "
                f"for table {self.table_index}"
            )

    @property
    def num_rows(self) -> int:
        """Rows held by this shard."""
        return self.row_end - self.row_start


@dataclass(frozen=True)
class ShardingPlan:
    """A complete placement of every table row onto a node.

    Construction validates the two placement invariants — every row of
    every table is assigned exactly once (no gaps, no overlaps) and every
    node's assigned bytes fit its budget — raising :class:`ShardingError`
    otherwise, so any plan that exists is feasible by construction.  The
    validating pass also accumulates the per-node aggregates every query
    method reads, adding shards in assignment order exactly as a per-node
    loop over the shards would.

    Parameters
    ----------
    tables : tuple[EmbeddingTableSpec, ...]
        The sharded tables, in index order.
    num_nodes : int
        Number of nodes in the fleet.
    node_budgets : tuple[int, ...]
        Per-node memory budget in bytes, one per node.
    strategy : str
        ``rowwise`` or ``tablewise`` (recorded in artifacts).
    assignments : tuple[ShardAssignment, ...]
        The shard placements.
    """

    tables: tuple[EmbeddingTableSpec, ...]
    num_nodes: int
    node_budgets: tuple[int, ...]
    strategy: str
    assignments: tuple[ShardAssignment, ...]
    # Per-node aggregates, filled by the validating pass in __post_init__.
    _rows: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _bytes: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _lookups: np.ndarray = field(init=False, repr=False, compare=False)
    _payload: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        """Enforce exactly-once row coverage and per-node memory budgets."""
        if self.num_nodes <= 0:
            raise ValueError(f"num_nodes must be positive, got {self.num_nodes}")
        if len(self.node_budgets) != self.num_nodes:
            raise ValueError(
                f"need one budget per node: {len(self.node_budgets)} != {self.num_nodes}"
            )
        per_table: dict[int, list[ShardAssignment]] = {}
        rows = [0] * self.num_nodes
        held = [0] * self.num_nodes
        lookups = [0.0] * self.num_nodes
        payload = [0.0] * self.num_nodes
        for shard in self.assignments:
            if not 0 <= shard.table_index < len(self.tables):
                raise ValueError(f"assignment references unknown table {shard.table_index}")
            if not 0 <= shard.node < self.num_nodes:
                raise ValueError(f"assignment references unknown node {shard.node}")
            per_table.setdefault(shard.table_index, []).append(shard)
            table = self.tables[shard.table_index]
            share = shard.num_rows / table.num_rows
            rows[shard.node] += shard.num_rows
            held[shard.node] += shard.num_rows * table.row_bytes
            lookups[shard.node] += table.lookups_per_query * share
            payload[shard.node] += table.lookups_per_query * share * table.row_bytes
        object.__setattr__(self, "_rows", tuple(rows))
        object.__setattr__(self, "_bytes", tuple(held))
        object.__setattr__(self, "_lookups", np.array(lookups, dtype=np.float64))
        object.__setattr__(self, "_payload", np.array(payload, dtype=np.float64))
        for index, table in enumerate(self.tables):
            shards = sorted(per_table.get(index, []), key=lambda s: s.row_start)
            cursor = 0
            for shard in shards:
                if shard.row_start != cursor:
                    raise ShardingError(
                        f"table {table.name}: rows [{cursor}, {shard.row_start}) "
                        "assigned zero or more than one time"
                    )
                cursor = shard.row_end
            if cursor != table.num_rows:
                raise ShardingError(
                    f"table {table.name}: rows [{cursor}, {table.num_rows}) unassigned"
                )
        used = self.node_bytes()
        for node, (spent, budget) in enumerate(zip(used, self.node_budgets)):
            if budget <= 0:
                raise ValueError(f"node {node} budget must be positive, got {budget}")
            if spent > budget:
                raise ShardingError(
                    f"node {node} over budget: {spent} bytes assigned > {budget} allowed"
                )

    def node_bytes(self) -> np.ndarray:
        """Bytes of embedding rows held by each node, shape ``(num_nodes,)``."""
        return np.array(self._bytes, dtype=np.float64)

    def total_bytes(self) -> float:
        """Total bytes of all sharded tables."""
        return float(sum(t.total_bytes for t in self.tables))

    def node_lookup_fraction(self) -> np.ndarray:
        """Fraction of all per-query lookups served by each node.

        Hash partitioning spreads a table's lookup popularity uniformly
        over its rows (the hash destroys rank locality), so a shard's
        lookup share is its row share; a table-wise placement concentrates
        the whole table's lookups on its home node.
        """
        total = self._lookups.sum()
        return self._lookups / total if total > 0 else self._lookups.copy()

    def remote_bytes_per_query(self, home: int) -> np.ndarray:
        """Expected bytes a ``home``-node query gathers from each other node.

        Element ``j`` is the per-query payload fetched *from* node ``j``;
        the home element is zero (local lookups never cross the link).

        Parameters
        ----------
        home : int
            The node the query executes on.

        Returns
        -------
        np.ndarray
            Per-source-node gather payload in bytes, shape ``(num_nodes,)``.
        """
        self._check_home(home)
        payload = self._payload.copy()
        payload[home] = 0.0
        return payload

    def remote_rows(self, home: int) -> float:
        """Total embedding rows held by nodes other than ``home``."""
        self._check_home(home)
        return float(sum(self._rows) - self._rows[home])

    def remote_bytes(self, home: int) -> float:
        """Total bytes of embedding rows held by nodes other than ``home``."""
        self._check_home(home)
        return float(sum(self._bytes) - self._bytes[home])

    def _check_home(self, home: int) -> None:
        if not 0 <= home < self.num_nodes:
            raise ValueError(f"home must be a node index, got {home}")


def shard_row_wise(
    tables: list[EmbeddingTableSpec] | tuple[EmbeddingTableSpec, ...],
    node_budgets: tuple[int, ...] | list[int],
) -> ShardingPlan:
    """Hash-partition every table's rows near-evenly across all nodes.

    Each table is split into ``len(node_budgets)`` contiguous blocks whose
    sizes differ by at most one row — the analytic stand-in for a uniform
    row hash.  Capacity scales with node count, but every query gathers
    from every remote node that holds rows.

    Parameters
    ----------
    tables : sequence of EmbeddingTableSpec
        The tables to place.
    node_budgets : sequence of int
        Per-node memory budget in bytes.

    Returns
    -------
    ShardingPlan
        The validated placement.

    Raises
    ------
    ShardingError
        When the near-even split overflows some node's budget.
    """
    tables = tuple(tables)
    budgets = tuple(int(b) for b in node_budgets)
    if not tables:
        raise ValueError("at least one table is required")
    num_nodes = len(budgets)
    if num_nodes == 0:
        raise ValueError("at least one node budget is required")
    assignments: list[ShardAssignment] = []
    for index, table in enumerate(tables):
        base, extra = divmod(table.num_rows, num_nodes)
        cursor = 0
        for node in range(num_nodes):
            rows = base + (1 if node < extra else 0)
            if rows == 0:
                continue
            assignments.append(
                ShardAssignment(
                    table_index=index, node=node, row_start=cursor, row_end=cursor + rows
                )
            )
            cursor += rows
    return ShardingPlan(
        tables=tables,
        num_nodes=num_nodes,
        node_budgets=budgets,
        strategy="rowwise",
        assignments=tuple(assignments),
    )


def shard_table_wise(
    tables: list[EmbeddingTableSpec] | tuple[EmbeddingTableSpec, ...],
    node_budgets: tuple[int, ...] | list[int],
) -> ShardingPlan:
    """Greedy bin-packing: whole tables onto nodes, hottest-largest first.

    Tables are placed in decreasing ``total_bytes × lookups_per_query``
    order (the gather traffic a misplacement would cost), each onto the
    node with the most remaining budget that still fits it — the classic
    first-fit-decreasing heuristic with a load-spreading tie-break.

    Parameters
    ----------
    tables : sequence of EmbeddingTableSpec
        The tables to place.
    node_budgets : sequence of int
        Per-node memory budget in bytes.

    Returns
    -------
    ShardingPlan
        The validated placement.

    Raises
    ------
    ShardingError
        When some table fits no node's remaining budget.
    """
    tables = tuple(tables)
    budgets = tuple(int(b) for b in node_budgets)
    if not tables:
        raise ValueError("at least one table is required")
    if not budgets:
        raise ValueError("at least one node budget is required")
    remaining = list(map(float, budgets))
    order = sorted(
        range(len(tables)),
        key=lambda i: (-tables[i].total_bytes * max(tables[i].lookups_per_query, 1e-12), i),
    )
    assignments: list[ShardAssignment] = []
    for index in order:
        table = tables[index]
        fits = [n for n, free in enumerate(remaining) if free >= table.total_bytes]
        if not fits:
            raise ShardingError(
                f"table {table.name} ({table.total_bytes} bytes) fits no node; "
                f"remaining budgets: {[int(b) for b in remaining]}"
            )
        node = max(fits, key=lambda n: (remaining[n], -n))
        remaining[node] -= table.total_bytes
        assignments.append(
            ShardAssignment(table_index=index, node=node, row_start=0, row_end=table.num_rows)
        )
    return ShardingPlan(
        tables=tables,
        num_nodes=len(budgets),
        node_budgets=budgets,
        strategy="tablewise",
        assignments=tuple(assignments),
    )
