"""Per-item cost profile of a recommendation model.

The hardware models never execute the numpy networks when estimating
performance -- they consume a :class:`ModelCost` describing how much compute
(MAC operations), how many embedding lookups, and how many bytes of model
state one candidate-item inference requires.  Each zoo spec derives its
paper-scale cost (:meth:`repro.models.zoo.ModelSpec.reference_cost`), which
is also what the memory-capacity experiments (Figure 1c, Figure 13) operate
on.

It also defines the package's byte units; it imports nothing from the
package, so any module may read them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Bytes of one fp32 value.
FP32_BYTES = 4
MiB = 1024**2
GiB = 1024**3


@dataclass(frozen=True)
class ModelCost:
    """Compute and memory demands of scoring one candidate item.

    Attributes:
        name: model identifier (e.g. ``"RMsmall"``).
        macs_per_item: multiply-accumulate operations in the MLPs per item.
        embedding_lookups_per_item: embedding-vector fetches per item.
        embedding_dim: latent vector width (elements per fetched vector).
        mlp_parameters: number of dense (MLP) weights.
        embedding_rows: total rows across all embedding tables at paper
            scale.
        reference_storage_bytes: the paper-scale model size (Table 1 reports
            1 / 4 / 8 GB) used for capacity experiments.
        mlp_layer_dims: (input, output) widths of each dense layer, used by
            the systolic-array model to estimate MAC utilization.
    """

    name: str
    macs_per_item: int
    embedding_lookups_per_item: int
    embedding_dim: int
    mlp_parameters: int
    embedding_rows: int
    reference_storage_bytes: int
    mlp_layer_dims: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.macs_per_item < 0:
            raise ValueError("macs_per_item must be non-negative")
        if self.embedding_lookups_per_item < 0:
            raise ValueError("embedding_lookups_per_item must be non-negative")
        if self.embedding_dim <= 0:
            raise ValueError("embedding_dim must be positive")

    @property
    def flops_per_item(self) -> int:
        """FLOPs per item (2 FLOPs per MAC)."""
        return 2 * self.macs_per_item

    @property
    def embedding_bytes_per_item(self) -> int:
        """Bytes of embedding data fetched per item at fp32."""
        return self.embedding_lookups_per_item * self.embedding_dim * FP32_BYTES

    def scaled(self, embedding_scale: float = 1.0, name: str | None = None) -> "ModelCost":
        """Return a copy with the paper-scale embedding storage scaled.

        Used by the future-model projections (Figure 13) which grow embedding
        tables by up to 32x.
        """
        if embedding_scale <= 0:
            raise ValueError("embedding_scale must be positive")
        return replace(
            self,
            name=name if name is not None else f"{self.name}x{embedding_scale:g}",
            reference_storage_bytes=int(self.reference_storage_bytes * embedding_scale),
            embedding_rows=int(self.embedding_rows * embedding_scale),
        )
