"""Exact-arithmetic toolkit for covers, unit-sphere kernels and
compression embeddings on finite metric windows."""

from .errors import CapExceeded, ContractViolation, CoverageError
from .spaces import FiniteMetricSpace, grid_space, lattice_window, tree_ball
from .lamplighter import lamp_coordinates, lamplighter_ball, word_length
from .covers import (Cover, CoverStats, balls_cover, cover_stats,
                     interval_cover, pullback_cover)
from .lattice import LatticeCoverSpec, cell_contains, membership, zk_cover
from .kernels import (Kernel, KernelStats, kernel_stats, mazur_map,
                      pou_kernel, pullback_kernel, tree_kernel_tent)
from .embeddings import (CompressionEmbedding, KernelField, StepFunction,
                         WeightFunction, build_embedding, compression_report,
                         generalized_inverse, shape_condition, weight_from_type)
from .wreath import wreath_cover

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
