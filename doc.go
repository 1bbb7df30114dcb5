// Package dcm reproduces "DCM: Dynamic Concurrency Management for Scaling
// n-Tier Applications in Cloud" (Chen, Wang, Palanisamy, Xiong — ICDCS
// 2017) as a deterministic discrete-event simulation plus the paper's
// controller, implemented entirely in Go with the standard library.
//
// The root package holds no code of its own: it carries the repository-wide
// tests (the exported-API gate and the benchmarks that regenerate every
// table and figure). The implementation lives in the internal packages:
//
//   - internal/sim, internal/rng — deterministic discrete-event engine;
//   - internal/server, internal/connpool, internal/lb, internal/graph —
//     the simulated service graph with thread pools, DB connection pools
//     and HAProxy-style balancing;
//   - internal/ntier — the paper's RUBBoS-style 3-tier chain (Apache /
//     Tomcat / MySQL): its Table I calibration and its translation into a
//     3-node graph;
//   - internal/workload, internal/trace — the paper's three workload
//     generators and bursty trace synthesis;
//   - internal/bus, internal/monitor, internal/cloud — the Kafka-like
//     metric log, per-VM monitoring agents, and the VM lifecycle;
//   - internal/fit, internal/model — least-squares fitting and the
//     concurrency-aware performance model (Equations 1–8);
//   - internal/policy — the declarative scaling, planner and
//     target-tracking rules every controller and the planner read;
//   - internal/controller, internal/actuator, internal/core — the DCM and
//     EC2-AutoScale controllers, the VM-agent (the APP-agent is
//     ntier.SetAllocation), and the assembled framework;
//   - internal/experiments — one harness per table and figure of the
//     paper's evaluation.
//
// See DESIGN.md for the system inventory, EXPERIMENTS.md for
// paper-vs-measured results, and examples/ for runnable entry points.
package dcm
