#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "scenario/metrics.h"
#include "workloads.h"

/// Output checks. Each is computed apart from the program (an identity
/// recomputed from raw counters, a bound derived from the spec) or tests a
/// property the protocol must have. They read a `Facts` record of plain
/// numbers rather than the report itself, so the self-test can alter one
/// number and show that the check notices.
namespace perfbench {

struct Facts {
  // Every workload.
  std::uint64_t rent_charged = 0;
  std::uint64_t rent_paid = 0;
  std::uint64_t rent_pool = 0;
  std::uint64_t files_added = 0;
  std::uint64_t upload_failures = 0;
  std::uint64_t files_discarded = 0;
  std::uint64_t files_lost = 0;
  std::uint64_t final_files = 0;
  std::uint64_t value_lost = 0;
  std::uint64_t value_compensated = 0;
  /// Theorem 3: live files when the burst began (N), the burst's sector
  /// fraction (lambda), replicas per file (k), and files the run lost from
  /// the burst on. Without a burst lambda is 0 and the whole run counts.
  std::uint64_t burst_population = 0;
  double burst_fraction = 0.0;
  std::uint64_t replicas = 0;
  std::uint64_t burst_files_lost = 0;
  /// State hash before the checkpoint and of the session resumed from it.
  std::string hash_at_checkpoint;
  std::string hash_resumed;

  // Workloads with the `network.*` block.
  bool network = false;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_loss = 0;
  std::uint64_t dropped_partition = 0;
  std::uint64_t dropped_down = 0;
  double drop_probability = 0.0;
  std::vector<std::uint64_t> region_max_latency;
  std::uint64_t latency_bound = 0;
  /// Refresh handoffs started in the last phase that ran cycles: messages
  /// still in flight at the end were sent then (latency < one cycle).
  std::uint64_t last_phase_refreshes = 0;

  // Workloads with the `traffic.*` block.
  bool traffic = false;
  std::uint64_t requests_attempted = 0;
  std::uint64_t rate_limited = 0;
  std::uint64_t lookup_failures = 0;
  std::uint64_t starved = 0;
  std::uint64_t dropped = 0;
  std::uint64_t enqueued = 0;
  std::uint64_t served = 0;
  std::uint64_t backlog = 0;
  std::uint64_t retrievals_settled = 0;
  std::uint64_t p50_latency = 0;
  std::uint64_t p99_latency = 0;
  std::uint64_t honest_streams = 0;
  std::uint64_t gang_streams = 0;
  std::vector<std::uint64_t> flagged_streams;
  /// Epoch the gang starts, the run's last epoch, and the earliest flag.
  std::uint64_t gang_start = 0;
  std::uint64_t run_end_epoch = 0;
  std::uint64_t first_flagged_epoch = 0;
  /// Consecutive violating epochs the defense needs before it flags.
  std::uint64_t defense_violations = 0;
};

/// Gathers the facts of one run: the final report, the live-file count at
/// the burst epoch, and the two state hashes around the resume.
[[nodiscard]] Facts collect_facts(const Workload& workload,
                                  const fi::scenario::MetricsReport& report,
                                  std::uint64_t burst_population,
                                  std::string hash_at_checkpoint,
                                  std::string hash_resumed);

struct CheckResult {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Runs every check that applies to `facts`, in a fixed order.
[[nodiscard]] std::vector<CheckResult> run_checks(const Facts& facts);

/// One deliberate alteration per check, for the self-test: applying
/// `alter` to valid facts must make the check named `check` fail.
struct Mutation {
  std::string check;
  std::string what;
  std::function<void(Facts&)> alter;
};
[[nodiscard]] std::vector<Mutation> mutations();

}  // namespace perfbench
