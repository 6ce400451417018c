"""Exact classification of noncommutative polynomial images on 2x2 matrices.

The pieces, bottom to top:

  fields     exact raw values and their ops: Q, F_p, and the extensions F_p^2
  freealg    free-algebra polynomials, parsing, weights, linearization
  matalg     2x2 matrices, the eigenvalue-ratio invariant, cone positions
  generic    evaluation at generic matrices and seeded random probing
  classify   the decision ladders that name an image
  oracle     exhaustive images over M_2(F_q) for small q
  corpus     pinned reference inputs with side checks
  cli        the polimage command
"""

from polimage.fields import (FieldMismatchError, FieldSpec, QQ, ScalarParseError,
                             parse_scalar, sqrt_in_closure)
from polimage.freealg import (FreePoly, HomogeneityReport, PolyParseError,
                              capelli_poly, compile_plan, format_poly,
                              infer_weights, multilinearize, parse_poly,
                              run_plan, semi_homogeneous_check, standard_poly,
                              weighted_degree, weighted_parts)
from polimage.matalg import (ConeClass, ConeKind, Mat2, SingularMatrixError,
                             cone_classify, conjugate, eigenvalues_in_closure,
                             parse_mat2, ratio_invariant, similar)
from polimage.generic import (ComPoly, GenericMat, ProbeReport, Proportionality,
                              TermBudgetExceeded, eval_on_matrices, generic_eval,
                              is_central, is_identically_zero, is_trace_zero,
                              probabilistic_probe, proportionality, random_mat2)
from polimage.classify import (EulerVerdict, ImageClass, SpanAnomalyError,
                               SpanResult, Verdict, check_euler,
                               classify_general, classify_multilinear,
                               classify_semihomogeneous, eval_on_units,
                               euler_predict, nondense_invariant_check,
                               parse_units, span_dimension, unit_evaluations)
from polimage.oracle import (AlternatingTraceReport, EnumerationBudgetError,
                             ImageReport, cross_check, enumerate_image,
                             fast_multilinear_image, naive_image,
                             verify_alternating_trace)
from polimage.corpus import CorpusEntry, ENTRIES, run_corpus, run_entry

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
