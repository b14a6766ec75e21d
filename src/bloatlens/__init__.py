"""Container bloat and vulnerability analysis toolkit."""

from ._version import __version__  # noqa: F401
from .debloat import (  # noqa: E402,F401
    DebloatResult,
    compute_bloat,
    compute_retained,
    container_bloat_degree,
    debloat,
    materialize,
    render_manifest,
)
from .depgraph import (  # noqa: F401
    GraphNode,
    PackageAttrGraph,
    build_graph,
    depth_correlations,
    pd_aggregate,
    pd_set,
    pr_set,
    to_dot,
    to_node_link,
)
from .errors import (  # noqa: F401
    BloatlensError,
    ContractViolation,
    IngestError,
    InputError,
    MaterializeError,
    VulnReportError,
)
from .imagefs import (  # noqa: F401
    FileEntry,
    FileSet,
    FlatTarSource,
    LayeredSource,
    RootfsSource,
    check_parent_closure,
    load_flat_tar,
    load_layers,
    load_rootfs,
    normalize_path,
    total_size,
)
from .packages import (  # noqa: F401
    PackageRecord,
    build_owner_index,
    category_breakdown,
    classify_functionality,
    detect_packages,
    load_rules,
    package_bloat_degree,
    quartile_summary,
    size_reduction_R,
)
from .report import (  # noqa: F401
    Analysis,
    PipelineConfig,
    bloat_degree_histogram,
    cdf_points,
    pareto_files,
    run_pipeline,
)
from .trace import AccessSet, TraceStats, parse_trace  # noqa: F401
from .vuln import (  # noqa: F401
    SeverityTable,
    VulnDiff,
    VulnMatch,
    load_report,
    severity_table,
    surviving_cves,
)
