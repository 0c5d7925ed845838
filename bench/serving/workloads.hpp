// The benchmark's workloads. Each returns the run's result; the caller
// prints it.
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"

namespace serving {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;  ///< span CSV destination (traced runs); optional
};

inline constexpr unsigned kClients = 4;

/// download_fleet, upload_crowd and rebuild_churn: a 4-node, R=2 cluster
/// driven through ClusterRouter by kClients closed-loop clients.
[[nodiscard]] RunResult run_cluster_workload(const Options& options);

/// frontend_open: one SpectrumService behind ServiceFrontend, driven by an
/// open-loop generator.
[[nodiscard]] RunResult run_frontend_workload(const Options& options);

[[nodiscard]] bool is_cluster_workload(const std::string& name);

}  // namespace serving
