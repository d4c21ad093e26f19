"""vaknh: derivation, integration and comparison of vakonomic and
nonholonomic dynamics for Lagrangian systems with velocity constraints in
solved form dq_dep = psi(q, dq_base)."""

from .errors import (AdmissibilityError, EvalError, ExprSyntaxError,
                     IntegrationError, LinearityError, NonlinearSystemError,
                     SingularMatrixError, SystemFormatError, VaknhError)
from .models import builtin, builtin_names, builtin_source
from .system import (NhState, SystemDef, VakState, complete_velocities,
                     load_system, restricted_lagrangian, serialize_system,
                     verify_linearity)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError", "EvalError", "ExprSyntaxError", "IntegrationError",
    "LinearityError", "NonlinearSystemError", "SingularMatrixError", "SystemFormatError",
    "VaknhError",
    "builtin", "builtin_names", "builtin_source",
    "NhState", "SystemDef", "VakState", "complete_velocities", "load_system",
    "restricted_lagrangian", "serialize_system", "verify_linearity",
    "__version__",
]
