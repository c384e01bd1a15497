"""MTSQL core: schema metadata, conversions, scopes, privileges, rewriting.

The public entry point is :class:`MTBase` (the middleware) from which clients
obtain :class:`MTConnection` objects.
"""

from .client import MTConnection
from .conversion import (
    ConversionPair,
    ConversionRegistry,
    distributes_over,
    make_currency_pair,
    make_phone_pair,
    verify_conversion_pair,
)
from .dml import DMLRewriter
from .middleware import MTBase
from .mtschema import AttributeInfo, MTSchema, TableInfo
from .optimizer import OptimizationLevel
from .privileges import PrivilegeManager
from .rewrite import CanonicalRewriter, RewriteContext, RewriteOptions
from .scope import ComplexScope, DefaultScope, SimpleScope, parse_scope

__all__ = [
    "MTBase",
    "MTConnection",
    "MTSchema",
    "TableInfo",
    "AttributeInfo",
    "ConversionPair",
    "ConversionRegistry",
    "distributes_over",
    "make_currency_pair",
    "make_phone_pair",
    "verify_conversion_pair",
    "DMLRewriter",
    "OptimizationLevel",
    "PrivilegeManager",
    "CanonicalRewriter",
    "RewriteContext",
    "RewriteOptions",
    "ComplexScope",
    "DefaultScope",
    "SimpleScope",
    "parse_scope",
]
