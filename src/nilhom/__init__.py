"""Exact homology of finitely generated nilpotent groups, Bieri-Strebel
style tameness invariants, and finite-index Betti number scans.

The package is organised around exact rational and integer linear
algebra (:mod:`nilhom.linalg`); on top of it sit group descriptions
(:mod:`nilhom.groups`), spectral pages and assembled homology
(:mod:`nilhom.spectral`), filtration certificates and nilpotency checks
(:mod:`nilhom.filtration`), polyhedral tameness machinery
(:mod:`nilhom.sigma`) and the finite-index scans (:mod:`nilhom.vbscan`).
A JSON command line lives in :mod:`nilhom.cli`.

No command reaches these, kept on purpose: ``is_nilpotent_action``
(acceptance criterion 09); ``kernel_matrix``, ``image_matrix``,
``IntMatrix.rank`` and ``hall_basis`` (wrapped by name in
``perfbench/spans.py``; the Hall basis grounds homology past class two);
``_action_on_centre`` and the central-extension branch of
``equivariant_page`` (scans of other class-two extensions); the tests'
witness audits' membership and polynomial API (``LaurentPoly``'s ``+``,
``-``, unary ``-``, ``coeff`` and ``monomial``, ``Cone.contains``,
``ConeUnion.contains``, ``ValuationVector.pair``); and the matrix API
(``_Matrix``'s ``+``, ``-``, unary ``-``, ``__rmul__``, ``transpose``,
``is_zero``, ``IntMatrix.to_rat``).
"""

from .linalg import (IntMatrix, RatMatrix, exterior_power_map,
                     rank_kernel_image, smith_normal_form, tensor_power_map)
from .groups import (CentralExtension, FreeNilpotentSpec, HallBasis,
                     NilpotentAction, central_extension_of_class2, hall_basis,
                     induced_action_on_quotient, witt_number)
from .spectral import (HomologyResult, Page, betti_free_nilpotent_c2,
                       d2_central, e2_page, e3_dimensions, equivariant_page,
                       h2_class2, homology_free_nilpotent_c2, ks_page)
from .filtration import (ActionNilpotencyReport, FiltrationCertificate,
                         filtration_certificate, induced_homology_action,
                         is_nilpotent_action, tensor_degree_bound)
from .sigma import (Cone, ConeUnion, CyclicModuleSpec, HypothesisReport,
                    LaurentPoly, ValuationVector, full_sphere,
                    hypothesis_report, m_tame, newton_polytope, sigma_complement,
                    sigma_complement_principal, sigma_witness_search,
                    tame_requirement, tensor_power_fg_check)
from .vbscan import (QModuleFD, ScanReport, hirsch_bound, koszul_homology,
                     power_subgroup, vb_scan)

__version__ = "0.1.0"
