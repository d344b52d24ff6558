#include "workloads.h"

#include <algorithm>
#include <sstream>

#include "util/config.h"

namespace perfbench {

namespace {

/// SplitMix64 finalizer: spreads small consecutive seeds over the whole
/// 64-bit space, so seed 1 and seed 2 share no low-bit structure.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// FNV-1a of the workload name: a fixed per-workload salt, so one seed
/// gives unrelated specs for the three workloads.
std::uint64_t name_salt(const std::string& name) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

/// Protocol and population knobs shared by every workload: 1–2 KiB files
/// of value min_value on 256 KiB sectors, k = 3 replicas.
void common_keys(std::ostringstream& out) {
  out << "sector_units = 4\n"
         "file_size_min = 1024\n"
         "file_size_max = 2048\n"
         "file_value = 10\n"
         "net.min_value = 10\n"
         "net.k = 3\n"
         "net.cap_para = 200\n"
         "net.avg_refresh = 20\n";
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"steady_1m", "churn_net",
                                                 "retrieval_attack"};
  return names;
}

fi::util::Result<Workload> make_workload(const std::string& name,
                                         std::uint64_t seed,
                                         std::uint64_t workers,
                                         std::uint64_t shrink) {
  const auto n = [shrink](std::uint64_t full) {
    return std::max<std::uint64_t>(full / shrink, 1);
  };
  Workload w;
  std::ostringstream out;
  out << "name = " << name << "\n"
      << "seed = " << mix(seed ^ name_salt(name)) << "\n"
      << "engine.workers = " << workers << "\n";
  common_keys(out);

  if (name == "steady_1m") {
    // 10^6 files on 2x10^5 sectors; ten idle cycles of proofs, refresh and
    // rent, then a burst corrupting 10% of sectors. No traffic, no NetModel:
    // the epoch engine and the snapshot layer do the work.
    out << "sectors = " << n(200000) << "\n"
        << "initial_files = " << n(1000000) << "\n"
        << "net.gamma_deposit = 0.01\n"
           "phase.0.kind = idle\n"
           "phase.0.cycles = 10\n"
           "phase.1.kind = corrupt_burst\n"
           "phase.1.corrupt_fraction = 0.1\n"
           "phase.1.cycles = 3\n"
           "phase.2.kind = rent_audit\n"
           "phase.2.periods = 0\n";
    // Two checkpoints in the idle phase, where the state has one size:
    // each snapshot call takes seconds, so one sample per run would mostly
    // time the host.
    w.checkpoint_epochs = {4, 7};
  } else if (name == "churn_net") {
    // 2x10^5 files, then four churn cycles of 10^5 adds and 5% discards;
    // every transfer is a NetModel message over four regions (latency,
    // jitter, 2% loss) and region 1 is cut off for one cycle mid-churn.
    // Ends with a 1% corruption burst and a rent audit.
    out << "sectors = " << n(100000) << "\n"
        << "initial_files = " << n(200000) << "\n"
        << "net.gamma_deposit = 0.01\n"
           "net.delay_per_kib = 40\n"
           "network.regions = 4\n"
           "network.base_latency = 2\n"
           "network.region_latency = 6\n"
           "network.ticks_per_kib = 1\n"
           "network.jitter = 4\n"
           "network.drop_probability = 0.02\n"
           "phase.0.kind = churn\n"
           "phase.0.cycles = 2\n"
        << "phase.0.adds_per_cycle = " << n(100000) << "\n"
        << "phase.0.discard_fraction = 0.05\n"
           "phase.1.kind = partition\n"
           "phase.1.region = 1\n"
           "phase.1.cycles = 1\n"
           "phase.2.kind = churn\n"
           "phase.2.cycles = 2\n"
        << "phase.2.adds_per_cycle = " << n(100000) << "\n"
        << "phase.2.discard_fraction = 0.05\n"
           "phase.3.kind = idle\n"
           "phase.3.cycles = 4\n"
           "phase.4.kind = corrupt_burst\n"
           "phase.4.corrupt_fraction = 0.01\n"
           "phase.4.cycles = 3\n"
           "phase.5.kind = rent_audit\n"
           "phase.5.periods = 0\n";
    // All three in the idle phase, after the last adds: the state has one
    // size, so the snapshot samples are alike and their median sits inside
    // one cluster rather than between a small and a large state.
    w.checkpoint_epochs = {5, 6, 7};
  } else if (name == "retrieval_attack") {
    // 10^5 files under 2x10^5 honest Zipf requests per cycle in four
    // streams, with the Poisson-envelope defense armed after four cycles.
    // A three-member gang hammers one file from epoch 6 at well over the
    // envelope; a cartel holding 15% of the fleet refuses to serve
    // throughout.
    out << "sectors = " << n(20000) << "\n"
        << "initial_files = " << n(100000) << "\n"
        << "net.gamma_deposit = 0.05\n"
        << "traffic.requests_per_cycle = " << n(200000) << "\n"
        << "traffic.streams = 4\n"
           "traffic.zipf_s = 0.8\n"
           "traffic.provider_capacity = 32\n"
           "traffic.queue_limit = 128\n"
           "traffic.cache_blocks = 4096\n"
           "traffic.price_per_kib = 1\n"
           "traffic.defense.enabled = true\n"
           "traffic.defense.warmup = 4\n"
           "traffic.defense.k = 4\n"
           "traffic.defense.violations = 2\n"
           "traffic.defense.surge = 8\n"
           "traffic.defense.rate_limit = true\n"
           "adversary.0.strategy = retrieval_ddos\n"
           "adversary.0.label = hammer_gang\n"
           "adversary.0.start_epoch = 6\n"
        << "adversary.0.requests_per_epoch = " << n(80000) << "\n"
        << "adversary.0.gang = 3\n"
           "adversary.1.strategy = cartel_starver\n"
           "adversary.1.label = serve_cartel\n"
           "adversary.1.start_epoch = 0\n"
           "adversary.1.fraction = 0.15\n"
           "phase.0.kind = idle\n"
           "phase.0.cycles = 12\n"
           "phase.1.kind = rent_audit\n"
           "phase.1.periods = 0\n";
    // One checkpoint before the gang starts and one after: few enough that
    // the round is short and several rounds fit in a run.
    w.checkpoint_epochs = {4, 8};
    w.hash_samples = 3;
  } else {
    return fi::util::err(fi::util::ErrorCode::invalid_argument,
                         "unknown workload '" + name + "'");
  }

  auto config = fi::util::Config::parse(out.str());
  if (!config.is_ok()) return config.status();
  auto spec = fi::scenario::ScenarioSpec::from_config(config.value());
  if (!spec.is_ok()) return spec.status();
  w.spec = std::move(spec).value();
  w.burst_epoch = kNoBurst;
  for (const fi::scenario::PhaseSpec& phase : w.spec.phases) {
    if (phase.kind == fi::scenario::PhaseKind::corrupt_burst &&
        w.burst_epoch == kNoBurst) {
      w.burst_epoch = w.total_epochs;
    }
    w.total_epochs += phase.kind == fi::scenario::PhaseKind::rent_audit
                          ? phase.periods * w.spec.params.rent_period_cycles
                          : phase.cycles;
  }
  return w;
}

}  // namespace perfbench
