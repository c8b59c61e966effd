"""Hyracks: the partitioned-parallel dataflow runtime (paper feature 4)."""

from repro.hyracks.cluster import (
    ClusterController,
    DatasetInfo,
    JobResult,
    NodeController,
)
from repro.hyracks.connectors import (
    BroadcastConnector,
    HashPartitionConnector,
    MergeConnector,
    OneToOneConnector,
    RangePartitionConnector,
)
from repro.hyracks.executor import JobExecutor, Stage, build_stages
from repro.hyracks.expressions import (
    CaseExpr,
    CollectionConstructor,
    ColumnRef,
    Const,
    FunctionCall,
    ObjectConstructor,
    Quantified,
    RuntimeExpr,
    VarRef,
)
from repro.hyracks.job import (
    ConnectorDescriptor,
    JobSpecification,
    OperatorDescriptor,
)
from repro.hyracks.memory import MemoryGovernor, MemoryGrant
from repro.hyracks.profiler import JobProfile, OperatorProfile, PartitionCost

__all__ = [
    "BroadcastConnector",
    "CaseExpr",
    "ClusterController",
    "CollectionConstructor",
    "ColumnRef",
    "ConnectorDescriptor",
    "Const",
    "DatasetInfo",
    "FunctionCall",
    "HashPartitionConnector",
    "JobExecutor",
    "JobProfile",
    "JobResult",
    "JobSpecification",
    "MemoryGovernor",
    "MemoryGrant",
    "MergeConnector",
    "NodeController",
    "ObjectConstructor",
    "OneToOneConnector",
    "OperatorDescriptor",
    "OperatorProfile",
    "PartitionCost",
    "Quantified",
    "RangePartitionConnector",
    "ResultWriterOp",
    "RuntimeExpr",
    "Stage",
    "VarRef",
    "build_stages",
]

from repro.hyracks.operators.result import ResultWriterOp  # noqa: E402
