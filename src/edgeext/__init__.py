"""Extending precoloured matchings to proper edge-colourings.

Modules: core (multigraphs), colouring (palettes and precolourings),
exact (ground-truth solvers), kernels (bipartite and Shannon-bound
extenders), gallai (degree-list machinery and known exceptional shapes),
planar (embeddings, peel-and-replay extension, discharging audit),
instances (families, enumeration, verification harness), cli.
"""

from .core import (EdgeId, InputError, INFINITE_DISTANCE, MultiGraph,
                   DegreeStats, degree_stats, line_graph, line_adjacency,
                   edge_distance, is_distance_matching, edges_path,
                   edges_cycle)
from .colouring import (Palette, is_proper, validate_precolouring,
                        reduce_to_lists, merge_colourings,
                        colouring_to_json_obj, colouring_from_json_obj)
from .exact import (SOLVED, UNSOLVABLE, BUDGET, BudgetSpent, SolveOutcome,
                    solve_list, extend, avoid, chromatic_index,
                    vizing_colour)
from .kernels import (find_bipartition, konig_colour, GalvinOrientation,
                      galvin_orient, kernel, is_kernel,
                      list_colour_bipartite, extend_bipartite, extend_shannon)
from .gallai import (block_decompose, is_gallai_tree, degree_list_colour,
                     ExceptionReport, exception_shape, extend_gallai,
                     extend_subcubic)
from .planar import (RotationSystem, trace_faces, extend_planar,
                     audit_discharge, wheel, icosahedron, random_plane_graph)
from .instances import (FamilySpec, generate, compute_rho, canonical_form,
                        enumerate_multigraphs, enumerate_precolourings,
                        verify, VerificationReport)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
