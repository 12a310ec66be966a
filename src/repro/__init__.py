"""Leases: fault-tolerant distributed file cache consistency.

A full reproduction of Gray & Cheriton, "Leases: An Efficient
Fault-Tolerant Mechanism for Distributed File Cache Consistency"
(SOSP 1989): the lease mechanism itself, a V-like file service substrate,
a deterministic discrete-event testbed with fault injection and a
consistency oracle, a real-time asyncio runtime speaking the same
protocol, the paper's analytic model, workload generators, baseline
protocols, and an experiment harness regenerating every table and figure.

Quick tour (see ``examples/quickstart.py``)::

    from repro import build_cluster, FixedTermPolicy

    cluster = build_cluster(
        n_clients=2,
        policy=FixedTermPolicy(10.0),
        setup_store=lambda store: store.create_file("/doc", b"v1"),
    )
    datum = cluster.store.file_datum("/doc")
    client = cluster.clients[0]
    result = cluster.run_until_complete(client, client.read(datum))

Package map:

==================  =====================================================
``repro.lease``     the lease mechanism (table, holdings, policies, §4
                    installed-file optimization)
``repro.protocol``  sans-io client/server engines + wire codec
``repro.storage``   versioned files + namespace (the file service)
``repro.cache``     client write-through cache, temp-file store
``repro.sim``       discrete-event kernel, network, faults, oracle,
                    drivers
``repro.runtime``   asyncio nodes and transports (in-memory, TCP)
``repro.analytic``  the §3.1 model: formulas (1)-(2), alpha, break-even
``repro.workload``  Poisson and synthetic-V-trace generators, fast
                    trace-driven simulation
``repro.baselines`` §6 comparators: TTL hints, breakable locks,
                    degenerate terms, head-to-head comparison
``repro.experiments`` regenerates Table 2, Figures 1-3, claims, ablations
==================  =====================================================
"""

from repro.analytic import (
    FIG3_WAN_PARAMS,
    V_PARAMS,
    SystemParams,
    added_delay,
    alpha,
    break_even_term,
    effective_term,
    server_consistency_load,
    v_params,
    wan_params,
)
from repro.clock import Clock, ManualClock, MonotonicClock, SimClock
from repro.errors import (
    ConsistencyViolationError,
    LeaseDeniedError,
    LeaseExpiredError,
    ProtocolError,
    ReproError,
    StorageError,
)
from repro.lease import (
    INFINITE_TERM,
    AdaptiveTermPolicy,
    DistanceCompensatingPolicy,
    FixedTermPolicy,
    InfiniteTermPolicy,
    Lease,
    LeaseSet,
    LeaseTable,
    PerClassPolicy,
    TermPolicy,
    ZeroTermPolicy,
)
from repro.lease.installed import InstalledFileManager
from repro.protocol import ClientConfig, ClientEngine, ServerConfig, ServerEngine
from repro.obs import NULL_BUS, Registry, TraceBus
from repro.runtime import InMemoryHub, LeaseClientNode, LeaseServerNode
from repro.sim.driver import (
    Cluster,
    OpResult,
    SimClient,
    SimServer,
    build_cluster,
    install_tree,
)
from repro.sim.faults import FaultInjector, Partition
from repro.sim.kernel import Kernel
from repro.sim.network import Network, NetworkParams
from repro.sim.oracle import ConsistencyOracle
from repro.storage import FileStore
from repro.types import DatumId, DatumKind, FileClass, HostId
from repro.workload import (
    PoissonWorkload,
    VTraceConfig,
    generate_v_trace,
    simulate_trace,
    trace_stats,
)

__version__ = "1.0.0"

__all__ = [
    # core mechanism
    "Lease",
    "LeaseTable",
    "LeaseSet",
    "INFINITE_TERM",
    "TermPolicy",
    "FixedTermPolicy",
    "ZeroTermPolicy",
    "InfiniteTermPolicy",
    "PerClassPolicy",
    "DistanceCompensatingPolicy",
    "AdaptiveTermPolicy",
    "InstalledFileManager",
    # engines and runtime
    "ServerEngine",
    "ServerConfig",
    "ClientEngine",
    "ClientConfig",
    "LeaseServerNode",
    "LeaseClientNode",
    "InMemoryHub",
    # simulation
    "Kernel",
    "Network",
    "NetworkParams",
    "Cluster",
    "SimServer",
    "SimClient",
    "OpResult",
    "build_cluster",
    "install_tree",
    "FaultInjector",
    "Partition",
    "ConsistencyOracle",
    # observability
    "TraceBus",
    "NULL_BUS",
    "Registry",
    # substrate
    "FileStore",
    "DatumId",
    "DatumKind",
    "FileClass",
    "HostId",
    # clocks
    "Clock",
    "SimClock",
    "MonotonicClock",
    "ManualClock",
    # analytic model
    "SystemParams",
    "V_PARAMS",
    "FIG3_WAN_PARAMS",
    "v_params",
    "wan_params",
    "server_consistency_load",
    "added_delay",
    "effective_term",
    "alpha",
    "break_even_term",
    # workloads
    "PoissonWorkload",
    "VTraceConfig",
    "generate_v_trace",
    "simulate_trace",
    "trace_stats",
    # errors
    "ReproError",
    "ProtocolError",
    "LeaseDeniedError",
    "LeaseExpiredError",
    "StorageError",
    "ConsistencyViolationError",
]
