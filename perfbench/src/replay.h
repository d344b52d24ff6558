#pragma once

#include <cstdint>

#include "workloads.h"

/// Layer replay for the traced run: builds a `core::Network` at the
/// workload's size and times calls into the engine, the delivery model and
/// the traffic engine directly, apart from the scenario runner.
namespace perfbench {

struct LayerTimes {
  double upload_us = 0.0;        ///< per file_add plus its file_confirms
  double discard_us = 0.0;       ///< per file_discard
  double cycle_s = 0.0;          ///< one proof cycle at workers = 1
  double cycle_workers_s = 0.0;  ///< one proof cycle at workers = W
  double send_us = 0.0;          ///< per NetModel::send
  double deliver_us = 0.0;       ///< per message popped by pop_due
  std::uint64_t inflight_max = 0;
  double tick_s = 0.0;           ///< per TrafficEngine::on_epoch
  double requests_per_s = 0.0;
};

/// Replays `workload`'s population through each layer. The NetModel
/// profile comes from `net_source` and the request load from
/// `traffic_source`: the workload itself when it has that block, otherwise
/// the workload that exercises the layer, so every time is measured on
/// every workload. `messages` is the NetModel message count to replay (the
/// Session run's; 0 means one per replayed upload transfer). Returns false
/// if a protocol call failed.
[[nodiscard]] bool replay_layers(const Workload& workload,
                                 const Workload& net_source,
                                 const Workload& traffic_source,
                                 unsigned workers, std::uint64_t messages,
                                 LayerTimes& out);

}  // namespace perfbench
