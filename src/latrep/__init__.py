"""Exact arithmetic for integral quadratic forms: p-adic invariants,
local representability with bounded imprimitivity, genus enumeration via
Kneser neighbors, global representation search, and local-global scans."""

from .matrices import (GramMatrix, IntMatrix, column_hnf, det,
                       gram_of_columns, inner_product, invert_unimodular,
                       is_positive_definite, load_gram, parse_gram, saturate,
                       smith_normal_form, solve_integer_columns)
from .padic import (Place, REAL, SpaceInvariants, JordanComponent,
                    JordanSplitting, hasse_invariant, hilbert_symbol,
                    is_isotropic, is_local_square, jordan_decomposition,
                    legendre, ord_p, space_invariants, squarefree_class)
from .enumeration import (Embedding, ShortVectorReport, extend_representation,
                          find_representations, lattice_minimum, lll_reduce,
                          vectors_of_norm)
from .localrep import (LocalRepCertificate, NOT_REPRESENTABLE, REPRESENTABLE,
                       UNDECIDED, auto_isotropy_shortcut,
                       represents_locally_everywhere, represents_over_Zp)
from .genus import (GenusRecord, automorphism_group_order, enumerate_genus,
                    is_isometric, p_neighbors, represented_by_all_classes)
from .reports import (HypothesisReport, ScanResult, ScanRow,
                      check_theorem_hypotheses, parse_family, report_emit,
                      scan_family)

__version__ = "0.1.0"
