"""Linearization toolkit for Hessian-determinant equations.

Equations of the class u_xx*u_yy - u_xy^2 = u_y^4 * f(u, u_x/u_y) transform,
through a chain of Ampere, point, Legendre and rotation steps, into the linear
equation U_XX + f(X, Y)*U_YY = 0.  This package classifies right-hand sides
into that class, solves the linear side on a rectangle, pushes solutions back
through the contact map into exact nonlinear solutions, and verifies every
step by residual and identity checks.
"""

from .expressions import (Bindings, Const, EvalError, Expr, ExprError, Neg,
                          BinOp, Call, ParseError, Var, as_expr, diff,
                          evaluate, parse, subst, to_text, variables)
from .grids import (Grid2, GridError, GridFormatError, GridGeometry, JetArrays,
                    MaskedGrid2, geometry_from_domain, interior_jets, jet_exprs,
                    read_grid, sample, symbolic_jet, write_grid)
from .transforms import (DEGENERACY_EPS, ContactImage, DegenerateJetError,
                         DualGrid1, FoldError, ScatteredSamples, TransformError,
                         ampere_discrete, ampere_step, compose_chain,
                         contact_map, discrete_legendre_1d, discrete_legendre_2d,
                         legendre_point_map, point_step, rotation_step,
                         write_scattered)
from .equations import (KhabirovCase, LinearizableClass, MAEquation,
                        NotInClassError, catalog, catalog_get, classify,
                        classification_report, equation_from_class_function,
                        khabirov_push, linear_coefficient, residual)
from .linsolve import (BoundaryValues, EllipticProblem, NotConvergedError,
                       NotEllipticError, SolveReport, boundary_from_expr,
                       constant_f_family, mms_source, problem_from_exprs,
                       solve_dirichlet)
from .lift import (EmptyLiftError, LiftedSurface, PipelineConfig,
                   PipelineError, PipelineResult, VerificationReport,
                   lift_parametric, pipeline, resample, verify_lift,
                   write_lifted)
from .elasticity import (AxisymDeformation, IncompressibilityReport,
                         MembraneDeformation, PlaneDeformation, deform,
                         deformation_from_dict, incompressibility_check,
                         inversion_coords, jacobian, jacobian_from_jet)

__version__ = "0.1.0"
