"""Engine: catalog, cost model, statistics, tables, and the RodentStore."""

from repro.engine.catalog import Catalog, CatalogEntry
from repro.engine.cost import CostEstimate, CostModel, estimate
from repro.engine.database import RodentStore
from repro.engine.adaptive import AdaptiveController
from repro.engine.indexes import FieldIndex, SpatialIndex
from repro.engine.persistence import load_catalog, save_catalog
from repro.engine.stats import FieldStats, TableStats
from repro.engine.table import Table, normalize_order, split_design

__all__ = [
    "AdaptiveController",
    "Catalog",
    "CatalogEntry",
    "CostEstimate",
    "CostModel",
    "FieldIndex",
    "FieldStats",
    "RodentStore",
    "SpatialIndex",
    "Table",
    "TableStats",
    "estimate",
    "load_catalog",
    "normalize_order",
    "save_catalog",
    "split_design",
]
