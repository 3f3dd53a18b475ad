"""Tools for graphs whose vertex-deleted subgraphs stay hamiltonian or traceable.

The two families studied here generalize hypohamiltonian and
hypotraceable graphs: a graph belongs to the cycle family at parameter k
when its longest cycle misses exactly k vertices yet every induced
subgraph of that order has a spanning cycle, and to the path family when
the analogous statements hold for paths after deleting any k vertices.
The package bundles exact solvers for the relevant invariants, degree
and order bounds that empty out small parameter ranges, an exhaustive
scanner with replayable certificates, and an auditor for the segment
counting arguments behind the degree bounds.
"""

from .attachment import (
    AttachmentConfig,
    ClaimIndexRecord,
    ClaimReport,
    ConfigError,
    build_config,
    verify_claims,
)
from .canon import canonical_form
from .generate import GENERATION_CAP, generate_connected, subtree_roots
from .graphs import (
    Graph,
    Graph6Error,
    degree_profile,
    induced_subgraph,
    is_connected,
    parse_graph6,
    petersen,
    vertex_connectivity,
    write_graph6,
)
from .membership import (
    ClassKind,
    ClassParams,
    MembershipVerdict,
    connectivity_requirement,
    emptiness_threshold,
    membership,
    parameter_emptiness,
    required_connectivity,
    theorem_max_degree,
    violated_rules,
)
from .search import (
    Certificate,
    CertificateError,
    EmptinessReport,
    ScanSpec,
    certify,
    parse_certificate,
    scan,
    verify_certificate,
)
from .walks import (
    CycleWitness,
    PathWitness,
    WitnessError,
    check_witness,
    circumference,
    detour_order,
    hamilton_cycle,
    hamilton_path,
)

__all__ = [
    "AttachmentConfig",
    "Certificate",
    "CertificateError",
    "ClaimIndexRecord",
    "ClaimReport",
    "ClassKind",
    "ClassParams",
    "ConfigError",
    "CycleWitness",
    "EmptinessReport",
    "GENERATION_CAP",
    "Graph",
    "Graph6Error",
    "MembershipVerdict",
    "PathWitness",
    "ScanSpec",
    "WitnessError",
    "build_config",
    "canonical_form",
    "certify",
    "check_witness",
    "circumference",
    "connectivity_requirement",
    "degree_profile",
    "detour_order",
    "emptiness_threshold",
    "generate_connected",
    "hamilton_cycle",
    "hamilton_path",
    "induced_subgraph",
    "is_connected",
    "membership",
    "parameter_emptiness",
    "parse_certificate",
    "parse_graph6",
    "petersen",
    "required_connectivity",
    "scan",
    "subtree_roots",
    "theorem_max_degree",
    "verify_certificate",
    "verify_claims",
    "vertex_connectivity",
    "violated_rules",
    "write_graph6",
]

__version__ = "0.1.0"
