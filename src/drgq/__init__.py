"""Distance-regular graph spectra, Q-polynomial detection, and
subconstituent connectivity certification."""

__version__ = "0.1.0"

from .errors import DisconnectedGraphError, MathAssertionError, NumericalError
from .graphs import (Graph, DistanceData, are_isomorphic, bipartite_double,
                     build_graph, connected_components, distance_data,
                     induced_subgraph)
from .graph6 import load_graph6_file, read_graph6, save_graph6_file, write_graph6
from .families import (FamilySpec, FamilySpecError, build_family, complete_graph,
                       cycle_graph, folded_cube, hamming_graph, johnson_graph,
                       odd_graph, petersen_graph)
from .intersection import (ClassificationFlags, IntersectionData, NotDRG,
                           check_distance_regular, classify)
from .spectral import (SpectralData, compute_spectral_data,
                       eigenvalues_from_intersection_array,
                       inner_product_residual, standard_sequence)
from .qpoly import (BalancedSetResult, QPolyReport, balanced_set_check,
                    krein_orderings, krein_parameters, qpoly_orderings,
                    qpoly_report)
from .connectivity import (CensusRecord, dual_sign_change_index,
                           odd_component_census, subconstituent,
                           sweep_last_two, sweep_tail)
from .tolerances import DEFAULT_TOLERANCES, Tolerances
from .report import run_analysis, to_json

__all__ = [name for name in dir() if not name.startswith("_")]
