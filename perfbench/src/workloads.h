#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/spec.h"
#include "util/status.h"

/// The benchmark's three workloads, each a `ScenarioSpec` generated from a
/// seed. The seed only reaches the spec's `seed` field: the shape of every
/// workload (sizes, phases, rates) is fixed, so two seeds give the same
/// amount of work on different placements, sizes and draws.
namespace perfbench {

inline constexpr std::uint64_t kNoBurst = ~std::uint64_t{0};

struct Workload {
  fi::scenario::ScenarioSpec spec;
  /// Epochs at which the run is hashed, checkpointed, dropped, resumed and
  /// hashed again; the snapshot times are medians over them. Short
  /// snapshots are taken at several epochs so that their samples spread
  /// over the run.
  std::vector<std::uint64_t> checkpoint_epochs;
  /// `Session::state_hash()` calls before each checkpoint: more than one
  /// where a hash takes well under a second, so the median has samples.
  std::uint64_t hash_samples = 1;
  /// Epoch at which the corruption burst phase begins (the Theorem 3
  /// population is read here); `kNoBurst` when the workload has none.
  std::uint64_t burst_epoch = kNoBurst;
  /// Proof cycles in the whole run.
  std::uint64_t total_epochs = 0;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Builds workload `name` for `seed`, with `engine.workers = workers`.
/// `shrink` divides every population and rate (1 = full size; the
/// self-test uses 100).
[[nodiscard]] fi::util::Result<Workload> make_workload(
    const std::string& name, std::uint64_t seed, std::uint64_t workers,
    std::uint64_t shrink = 1);

}  // namespace perfbench
