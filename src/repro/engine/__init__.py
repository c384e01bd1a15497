"""In-memory SQL engine: storage, planner, executor and the Database facade."""

from .catalog import Catalog
from .database import (
    POSTGRES_PROFILE,
    PROFILES,
    SYSTEM_C_PROFILE,
    BackendProfile,
    Database,
)
from .functions import PythonFunction, SQLFunction
from .storage import ColumnSchema, Table, TableSchema
from .vector import DEFAULT_BATCH_SIZE, BatchExpressionCompiler, RowBatch

__all__ = [
    "BatchExpressionCompiler",
    "DEFAULT_BATCH_SIZE",
    "RowBatch",
    "Catalog",
    "Database",
    "BackendProfile",
    "POSTGRES_PROFILE",
    "SYSTEM_C_PROFILE",
    "PROFILES",
    "PythonFunction",
    "SQLFunction",
    "ColumnSchema",
    "Table",
    "TableSchema",
]
