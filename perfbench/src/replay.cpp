#include "replay.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <variant>
#include <vector>

#include "core/network.h"
#include "ledger/account.h"
#include "sim/net_model.h"
#include "traffic/engine.h"
#include "util/prng.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Generous balances: the replay studies speed, not bankruptcy.
constexpr fi::TokenAmount kFunds = 1'000'000'000'000'000ULL;
constexpr std::uint64_t kReplaySalt = 0x5265706c6179ULL;
/// Cycles timed at each worker count (alternating, after one warm-up).
constexpr int kCyclePairs = 2;
constexpr std::uint64_t kTrafficTicks = 3;

/// The honest provider side of the runner, reduced to what the replay
/// needs: every requested transfer is confirmed.
class Replayer {
 public:
  explicit Replayer(const fi::scenario::ScenarioSpec& spec)
      : provider_(ledger_.create_account(kFunds)),
        client_(ledger_.create_account(kFunds)),
        net_(spec.params, ledger_, spec.seed) {
    net_.set_auto_prove(true);
    net_.subscribe([this](const fi::core::Event& event) {
      if (const auto* t =
              std::get_if<fi::core::ReplicaTransferRequested>(&event)) {
        inbox_.push_back(*t);
      }
    });
  }

  void confirm_inbox() {
    for (const fi::core::ReplicaTransferRequested& req : inbox_) {
      if (!net_.sectors().exists(req.to)) continue;
      // Stale requests (file gone) are rejected by the engine; the
      // replay, like the runner, ignores the rejection.
      (void)net_.file_confirm(net_.sectors().at(req.to).owner, req.file,
                              req.index, req.to, {}, std::nullopt);
    }
    inbox_.clear();
  }

  /// One proof cycle, confirming between task batches.
  void run_cycle() {
    const fi::Time horizon = net_.now() + net_.params().proof_cycle;
    confirm_inbox();
    while (true) {
      const fi::Time next = net_.next_task_time();
      if (next == fi::kNoTime || next > horizon) break;
      net_.advance_to(next);
      confirm_inbox();
    }
    net_.advance_to(horizon);
    confirm_inbox();
  }

  fi::ledger::Ledger ledger_;
  fi::AccountId provider_;
  fi::AccountId client_;
  fi::core::Network net_;
  std::vector<fi::core::ReplicaTransferRequested> inbox_;
};

}  // namespace

bool replay_layers(const Workload& workload, const Workload& net_source,
                   const Workload& traffic_source, unsigned workers,
                   std::uint64_t messages, LayerTimes& out) {
  const fi::scenario::ScenarioSpec& spec = workload.spec;
  Replayer r(spec);
  fi::util::Xoshiro256 rng(spec.seed ^ kReplaySalt);
  const fi::ByteCount capacity = spec.sector_units * spec.params.min_capacity;
  for (std::uint64_t s = 0; s < spec.sectors; ++s) {
    if (!r.net_.sector_register(r.provider_, capacity).is_ok()) return false;
  }

  // core: uploads.
  const fi::ByteCount span = spec.file_size_max - spec.file_size_min + 1;
  std::vector<fi::core::FileId> live;
  live.reserve(spec.initial_files);
  double upload_s = 0.0;
  for (std::uint64_t f = 0; f < spec.initial_files; ++f) {
    const fi::ByteCount size = spec.file_size_min + rng.uniform_below(span);
    const auto t = Clock::now();
    const auto id = r.net_.file_add(
        r.client_, {size, spec.effective_file_value(), {}});
    r.confirm_inbox();
    upload_s += seconds_since(t);
    if (!id.is_ok()) return false;
    live.push_back(id.value());
  }
  out.upload_us = upload_s / static_cast<double>(live.size()) * 1e6;

  // core: proof cycles, alternating workers = 1 and workers = W.
  r.run_cycle();  // warm-up: every upload's Auto_CheckAlloc lands here
  std::vector<double> serial;
  std::vector<double> parallel;
  for (int i = 0; i < 2 * kCyclePairs; ++i) {
    const bool one = i % 2 == 0;
    r.net_.set_workers(one ? 1 : workers);
    const auto t = Clock::now();
    r.run_cycle();
    (one ? serial : parallel).push_back(seconds_since(t));
  }
  out.cycle_s = median(serial);
  out.cycle_workers_s = median(parallel);

  // traffic: epochs of the (possibly borrowed) retrieval load.
  {
    const fi::traffic::TrafficSpec& tspec = traffic_source.spec.traffic;
    fi::traffic::TrafficEngine engine(tspec, r.net_, r.ledger_, r.client_,
                                      spec.seed ^ kReplaySalt, tspec.streams);
    std::vector<double> ticks;
    for (std::uint64_t e = 0; e < kTrafficTicks; ++e) {
      const auto t = Clock::now();
      engine.on_epoch(e, live);
      ticks.push_back(seconds_since(t));
    }
    out.tick_s = median(ticks);
    double total = 0.0;
    for (const double s : ticks) total += s;
    out.requests_per_s =
        static_cast<double>(engine.metrics().requests_attempted) / total;
  }

  // core: discards of 5% of the live files.
  {
    const std::size_t n = std::max<std::size_t>(live.size() / 20, 1);
    double discard_s = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t at =
          static_cast<std::size_t>(rng.uniform_below(live.size()));
      const fi::core::FileId file = live[at];
      live[at] = live.back();
      live.pop_back();
      const auto t = Clock::now();
      const fi::util::Status st = r.net_.file_discard(r.client_, file);
      discard_s += seconds_since(t);
      if (!st.is_ok()) return false;
    }
    out.discard_us = discard_s / static_cast<double>(n) * 1e6;
  }

  // sim: the message volume spread over the workload's epochs, each
  // epoch's batch sent at its start and delivered tick by tick.
  {
    if (messages == 0) {
      messages = spec.initial_files *
                 spec.params.replica_count(spec.effective_file_value());
    }
    fi::sim::NetModel model(net_source.spec.network.to_net_config(),
                            spec.seed ^ kReplaySalt);
    const std::uint64_t epochs =
        std::max<std::uint64_t>(workload.total_epochs, 1);
    const fi::Time cycle = spec.params.proof_cycle;
    std::vector<fi::sim::TransferMessage> batch;
    std::vector<fi::ByteCount> sizes;
    double send_s = 0.0;
    double deliver_s = 0.0;
    std::uint64_t popped = 0;
    for (std::uint64_t e = 0; e < epochs; ++e) {
      const std::uint64_t count =
          messages / epochs + (e < messages % epochs ? 1 : 0);
      batch.assign(count, {});
      sizes.resize(count);
      for (std::uint64_t m = 0; m < count; ++m) {
        batch[m].file = m;
        batch[m].from_sector = ~std::uint64_t{0};
        batch[m].to_sector = rng.uniform_below(spec.sectors);
        batch[m].deadline = e * cycle + cycle;
        sizes[m] = spec.file_size_min + rng.uniform_below(span);
      }
      const fi::Time start = e * cycle;
      auto t = Clock::now();
      for (std::uint64_t m = 0; m < count; ++m) {
        model.send(start, sizes[m], batch[m]);
      }
      send_s += seconds_since(t);
      out.inflight_max = std::max<std::uint64_t>(out.inflight_max,
                                                 model.in_flight());
      fi::sim::TransferMessage msg;
      t = Clock::now();
      for (fi::Time tick = start; tick < start + cycle; ++tick) {
        while (model.pop_due(tick, msg)) ++popped;
      }
      deliver_s += seconds_since(t);
    }
    out.send_us = send_s / static_cast<double>(messages) * 1e6;
    out.deliver_us =
        popped == 0 ? 0.0 : deliver_s / static_cast<double>(popped) * 1e6;
  }
  return true;
}

}  // namespace perfbench
