"""Tau functions of Gelfand-Dickey hierarchies via block Toeplitz determinants.

Subpackages by task:

- gradedpoly: truncated graded ring in the times, Schur polynomials, characters
- laurent: banded matrix Laurent series and circle sample grids
- symbols: matrix symbols of the hierarchies and their deformations
- toeplitz: block Toeplitz truncations, operator determinants, limit theorems
- tau: tau functions (numeric, graded, character expansion, Wronskian routes)
- factorization: numerical Wiener-Hopf (Birkhoff) factorization on the circle
- algebro: spectral curves, branch series, commuting-matrix reconstruction
- checks: the check registry behind `blocktau verify` and the acceptance suite
- cli: command line front end
"""

from . import algebro, checks, cli, factorization, gradedpoly, laurent, symbols, tau, toeplitz
from .errors import (
    AliasError,
    BlocktauError,
    BranchError,
    BranchMatchError,
    ConvergenceError,
    DegenerateInput,
    FactorizationError,
    HypothesisError,
    NearSingularSymbol,
    QuadratureError,
    SingularVandermonde,
    SpecError,
    TruncationError,
    WindingUndefined,
)

__all__ = [
    "algebro",
    "checks",
    "cli",
    "factorization",
    "gradedpoly",
    "laurent",
    "symbols",
    "tau",
    "toeplitz",
    "AliasError",
    "BlocktauError",
    "BranchError",
    "BranchMatchError",
    "ConvergenceError",
    "DegenerateInput",
    "FactorizationError",
    "HypothesisError",
    "NearSingularSymbol",
    "QuadratureError",
    "SingularVandermonde",
    "SpecError",
    "TruncationError",
    "WindingUndefined",
]

__version__ = "0.1.0"
