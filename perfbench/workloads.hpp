// The benchmark's workloads: bb_lifecycle (burst-buffer job lifecycles
// through slurmsim and the Composability Manager), hot_read (single-resource
// GETs and revalidations) and fleet_sweep (dashboard-style aggregated
// collections, paged walks and fleet scrapes).
#pragma once

#include <chrono>
#include <memory>
#include <string>

#include "bench.hpp"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;
  /// Creates the client threads' state: sessions, partitions, working sets.
  virtual Status Setup(Deployment& deployment, std::uint64_t seed, bool traced) = 0;
  /// A short fixed amount of the workload, before any timed request.
  virtual void Warm() = 0;
  /// Every client runs its closed loop until `deadline`, then finishes the
  /// operation in hand.
  virtual void Run(std::chrono::steady_clock::time_point deadline) = 0;
  /// What the clients measured since the last call.
  virtual ClientStats TakeStats() = 0;
  virtual int clients() const = 0;
};

/// nullptr for an unknown workload name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

}  // namespace perfbench
