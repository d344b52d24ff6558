// fi_perfbench: the repository benchmark program.
//
//   fi_perfbench --workload <steady_1m|churn_net|retrieval_attack>
//                --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//   fi_perfbench --self-test [--seed <n>] [--out-dir <dir>]
//
// Untraced (--trace 0): runs whole Session rounds of the workload (open,
// every epoch, a mid-run state hash + checkpoint + resume, report), checks
// every round's outputs, and prints the end-to-end metrics. The first
// round opens cold and gives setup_s; further whole rounds start until
// --seconds have passed since the process started. run_s and total_s are
// medians over rounds; the per-call times (epoch, state hash, checkpoint,
// resume) are medians over the samples of every round.
// Traced (--trace 1): one Session round that also reads per-epoch engine
// counts, then a replay that times each layer's public calls directly.
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/session.h"
#include "checks.h"
#include "replay.h"
#include "workloads.h"

namespace {

using Clock = std::chrono::steady_clock;
using perfbench::Workload;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Cores this process may run on (the affinity mask, so a container's CPU
/// set counts, not the host's).
unsigned host_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string json_number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

/// Operations attempted and failed: one per Session call and one per
/// output check. Failures are also listed on standard output.
struct Ops {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  bool record(bool ok, const std::string& what, const std::string& detail) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::cout << "FAILED " << what << ": " << detail << "\n";
    }
    return ok;
  }
};

struct RoundTimes {
  double setup_s = 0.0;
  double run_s = 0.0;
  double state_hash_s = 0.0;
  double checkpoint_s = 0.0;
  double resume_s = 0.0;
  double total_s = 0.0;
};

/// Every timed sample of one round, so that a run's medians can pool the
/// samples of all its rounds.
struct RoundSamples {
  std::vector<double> epoch;
  std::vector<double> state_hash;
  std::vector<double> checkpoint;
  std::vector<double> resume;
};

struct Round {
  bool completed = false;
  RoundTimes times;
  RoundSamples samples;
  std::optional<fi::scenario::MetricsReport> report;
  perfbench::Facts facts;
  std::uint64_t snapshot_bytes = 0;
  /// State hash after the last epoch (self-test only: costly at 10^6).
  std::string end_hash;
  /// Highest pending-task count seen at an epoch boundary (traced only).
  std::uint64_t pending_tasks_max = 0;
};

struct RoundOptions {
  bool trace = false;
  bool end_hash = false;
};

/// One Session lifecycle of `w`, timed from `t0` (process start for the
/// cold first round). Every Session call and output check is an operation.
Round run_round(const Workload& w, const std::string& snap_path,
                Clock::time_point t0, const RoundOptions& opt, Ops& ops) {
  Round round;
  std::optional<fi::Session> s;
  {
    auto opened = fi::Session::from_spec(w.spec);
    if (!ops.record(opened.is_ok(), "open", opened.status().to_string())) {
      return round;
    }
    s.emplace(std::move(opened).value());
  }
  round.times.setup_s = seconds_since(t0);

  std::vector<double>& epoch_times = round.samples.epoch;
  std::vector<double>& hash_times = round.samples.state_hash;
  std::vector<double>& checkpoint_times = round.samples.checkpoint;
  std::vector<double>& resume_times = round.samples.resume;
  std::uint64_t burst_population = 0;
  std::string hash_at_checkpoint;
  std::string hash_resumed;
  std::size_t next_checkpoint = 0;
  while (!s->finished()) {
    if (s->epoch() == w.burst_epoch) {
      burst_population = s->network().file_count();
    }
    if (next_checkpoint < w.checkpoint_epochs.size() &&
        s->epoch() == w.checkpoint_epochs[next_checkpoint]) {
      ++next_checkpoint;
      std::string before;
      for (std::uint64_t i = 0; i < w.hash_samples; ++i) {
        const auto t = Clock::now();
        const std::string hash = s->state_hash();
        hash_times.push_back(seconds_since(t));
        // A repeated hash of the same state must not change.
        ops.record(hash.size() == 64 && (i == 0 || hash == before),
                   "state_hash", hash + (i == 0 ? "" : " vs " + before));
        if (i == 0) before = hash;
      }

      auto t = Clock::now();
      const fi::util::Status saved = s->checkpoint(snap_path);
      checkpoint_times.push_back(seconds_since(t));
      if (!ops.record(saved.is_ok(), "checkpoint", saved.to_string())) {
        return round;
      }
      std::error_code ec;
      round.snapshot_bytes = std::filesystem::file_size(snap_path, ec);

      // Drop the original first: the process holds one live session.
      s.reset();
      t = Clock::now();
      auto resumed = fi::Session::from_snapshot_file(snap_path);
      resume_times.push_back(seconds_since(t));
      std::filesystem::remove(snap_path, ec);
      if (!ops.record(resumed.is_ok(), "resume",
                      resumed.status().to_string())) {
        return round;
      }
      s.emplace(std::move(resumed).value());
      // The same state hashed again: another state_hash_s sample, and the
      // resume check (the first mismatching pair is kept).
      t = Clock::now();
      const std::string after = s->state_hash();
      hash_times.push_back(seconds_since(t));
      if (hash_at_checkpoint.empty() || hash_at_checkpoint == hash_resumed) {
        hash_at_checkpoint = before;
        hash_resumed = after;
      }
    }
    const auto t = Clock::now();
    const std::uint64_t ran = s->run_epochs(1);
    const double dt = seconds_since(t);
    round.times.run_s += dt;
    if (ran == 1) epoch_times.push_back(dt);
    // A call that runs no epoch is only correct when it flushes the end.
    if (!ops.record(ran == 1 || s->finished(), "run_epochs",
                    "no progress at epoch " + std::to_string(s->epoch()))) {
      return round;
    }
    if (opt.trace) {
      round.pending_tasks_max = std::max<std::uint64_t>(
          round.pending_tasks_max, s->network().pending_tasks());
    }
  }
  round.times.state_hash_s = median(hash_times);
  round.times.checkpoint_s = median(checkpoint_times);
  round.times.resume_s = median(resume_times);
  if (opt.end_hash) round.end_hash = s->state_hash();

  round.report = s->report();
  round.times.total_s = seconds_since(t0);
  ops.record(round.report->final_time > 0, "report", "empty report");
  s.reset();

  round.facts = perfbench::collect_facts(w, *round.report, burst_population,
                                         hash_at_checkpoint, hash_resumed);
  for (const perfbench::CheckResult& check :
       perfbench::run_checks(round.facts)) {
    ops.record(check.ok, "check " + check.name, check.detail);
  }
  round.completed = true;
  return round;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, const Ops& ops,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << json_number(m.value) << " "
              << m.unit << "\n";
  }
  std::cout << "operations: " << ops.attempted << " attempted, " << ops.failed
            << " failed\n";
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ops.attempted);
  json += ", \"failed\": " + std::to_string(ops.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

int run_untraced(const Workload& w, const std::string& snap_path,
                 double seconds, Clock::time_point process_start) {
  Ops ops;
  std::vector<Round> rounds;
  Clock::time_point t0 = process_start;
  double peak_rss = 0.0;
  while (true) {
    rounds.push_back(run_round(w, snap_path, t0, {}, ops));
    // The high-water mark of one Session lifecycle: later rounds reopen in
    // a heap the earlier ones left fragmented.
    if (rounds.size() == 1) peak_rss = peak_rss_mib();
    if (!rounds.back().completed) break;
    // Whole rounds until the measuring time is spent: a workload whose
    // round is shorter than --seconds always runs at least two.
    if (seconds_since(process_start) >= seconds) break;
    t0 = Clock::now();
  }
  const bool completed = rounds.back().completed;
  const auto over_rounds = [&rounds](double RoundTimes::*field) {
    std::vector<double> v;
    for (const Round& r : rounds) {
      if (r.completed) v.push_back(r.times.*field);
    }
    return median(v);
  };
  // Per-call times: the median over the samples of every round.
  const auto pooled = [&rounds](std::vector<double> RoundSamples::*field) {
    std::vector<double> v;
    for (const Round& r : rounds) {
      if (r.completed) {
        const std::vector<double>& part = r.samples.*field;
        v.insert(v.end(), part.begin(), part.end());
      }
    }
    return median(v);
  };
  std::cout << "rounds: " << rounds.size() << " (setup_s from the first, "
            << "cold round; run_s and total_s are medians over rounds, the "
            << "other times medians over the samples of every round)\n";
  const std::vector<Metric> metrics = {
      {"setup_s", rounds.front().times.setup_s, "s"},
      {"run_s", over_rounds(&RoundTimes::run_s), "s"},
      {"epoch_p50_s", pooled(&RoundSamples::epoch), "s"},
      {"state_hash_s", pooled(&RoundSamples::state_hash), "s"},
      {"checkpoint_s", pooled(&RoundSamples::checkpoint), "s"},
      {"resume_s", pooled(&RoundSamples::resume), "s"},
      {"total_s", over_rounds(&RoundTimes::total_s), "s"},
      {"peak_rss_mb", peak_rss, "MiB"},
  };
  const bool correct = completed && ops.failed == 0;
  print_result(correct, ops, metrics);
  return correct ? 0 : 1;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

int run_traced(const Workload& w, const Workload& net_source,
               const Workload& traffic_source, unsigned workers,
               const std::string& snap_path) {
  Ops ops;
  RoundOptions opt;
  opt.trace = true;
  const Round round = run_round(w, snap_path, Clock::now(), opt, ops);
  std::vector<Metric> metrics;
  bool completed = round.completed;
  perfbench::LayerTimes layers;
  if (completed) {
    completed = ops.record(
        perfbench::replay_layers(w, net_source, traffic_source, workers,
                                 round.report->network.sent, layers),
        "layer replay", "a protocol call was rejected");
  }
  if (completed) {
    const fi::scenario::MetricsReport& rep = *round.report;
    const double mb = static_cast<double>(round.snapshot_bytes) / 1e6;
    const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
    metrics = {
        {"core.upload_us", layers.upload_us, "us"},
        {"core.discard_us", layers.discard_us, "us"},
        {"core.cycle_s", layers.cycle_s, "s"},
        {"core.cycle_workers_s", layers.cycle_workers_s, "s"},
        {"core.sweep_speedup", ratio(layers.cycle_s, layers.cycle_workers_s),
         "x"},
        {"core.files", count(rep.final_files), "count"},
        {"core.pending_tasks_max", count(round.pending_tasks_max), "count"},
        {"core.refreshes", count(rep.totals.refreshes_started), "count"},
        {"core.punishments", count(rep.totals.punishments), "count"},
        {"core.refresh_fail_ratio",
         ratio(count(rep.totals.refreshes_failed),
               count(rep.totals.refreshes_started)),
         "ratio"},
        {"sim.send_us", layers.send_us, "us"},
        {"sim.deliver_us", layers.deliver_us, "us"},
        {"sim.messages", count(rep.network.sent), "count"},
        {"sim.inflight_max", count(layers.inflight_max), "count"},
        {"traffic.tick_s", layers.tick_s, "s"},
        {"traffic.requests_per_s", layers.requests_per_s, "1/s"},
        {"traffic.requests", count(rep.traffic.requests_attempted), "count"},
        {"traffic.served", count(rep.traffic.served), "count"},
        {"traffic.cache_hit_ratio",
         ratio(count(rep.traffic.cache_hits),
               count(rep.traffic.cache_hits + rep.traffic.cache_misses)),
         "ratio"},
        {"snapshot.bytes", count(round.snapshot_bytes), "B"},
        {"snapshot.hash_mb_per_s", ratio(mb, round.times.state_hash_s),
         "MB/s"},
        {"snapshot.write_mb_per_s", ratio(mb, round.times.checkpoint_s),
         "MB/s"},
        {"snapshot.read_mb_per_s", ratio(mb, round.times.resume_s), "MB/s"},
        {"trace.run_s", round.times.run_s, "s"},
    };
  }
  const bool correct = completed && ops.failed == 0;
  print_result(correct, ops, metrics);
  return correct ? 0 : 1;
}

/// Self-test: (1) each workload, shrunk 100x, gives identical state hashes
/// and report bytes at workers = 1 and workers = cores; (2) every output
/// check fails on a deliberately altered input.
int run_self_test(std::uint64_t seed, unsigned workers,
                  const std::string& out_dir) {
  std::uint64_t problems = 0;
  const auto fail = [&problems](const std::string& what) {
    ++problems;
    std::cout << "SELF-TEST FAILED: " << what << "\n";
  };
  std::vector<std::string> seen_checks;
  std::vector<std::string> killed_checks;
  for (const std::string& name : perfbench::workload_names()) {
    Round runs[2];
    const unsigned counts[2] = {1, workers};
    for (int i = 0; i < 2; ++i) {
      auto w = perfbench::make_workload(name, seed, counts[i], 100);
      if (!w.is_ok()) {
        fail(name + ": " + w.status().to_string());
        continue;
      }
      Ops ops;
      RoundOptions opt;
      opt.end_hash = true;
      runs[i] = run_round(w.value(), out_dir + "/selftest.fisnap",
                          Clock::now(), opt, ops);
      if (!runs[i].completed || ops.failed != 0) {
        fail(name + " at workers=" + std::to_string(counts[i]) + ": " +
             std::to_string(ops.failed) + " failed operations");
      }
    }
    if (!runs[0].completed || !runs[1].completed) continue;
    if (runs[0].facts.hash_at_checkpoint != runs[1].facts.hash_at_checkpoint ||
        runs[0].end_hash != runs[1].end_hash) {
      fail(name + ": state hashes differ between worker counts");
    }
    if (runs[0].report->to_json() != runs[1].report->to_json()) {
      fail(name + ": report bytes differ between worker counts");
    }
    std::cout << "self-test " << name << ": workers 1 vs " << workers
              << " end hash " << runs[0].end_hash.substr(0, 16) << " / "
              << runs[1].end_hash.substr(0, 16) << "\n";

    const perfbench::Facts& facts = runs[0].facts;
    std::vector<std::string> applicable;
    for (const perfbench::CheckResult& c : perfbench::run_checks(facts)) {
      applicable.push_back(c.name);
      if (std::find(seen_checks.begin(), seen_checks.end(), c.name) ==
          seen_checks.end()) {
        seen_checks.push_back(c.name);
      }
    }
    for (const perfbench::Mutation& m : perfbench::mutations()) {
      if (std::find(applicable.begin(), applicable.end(), m.check) ==
          applicable.end()) {
        continue;
      }
      perfbench::Facts altered = facts;
      m.alter(altered);
      bool caught = false;
      for (const perfbench::CheckResult& c : perfbench::run_checks(altered)) {
        if (c.name == m.check && !c.ok) caught = true;
      }
      std::cout << "  mutation on " << name << " [" << m.what << "]: "
                << m.check << (caught ? " fails, as it must" : " PASSES")
                << "\n";
      if (!caught) {
        fail(name + ": check " + m.check + " passes with " + m.what);
      } else if (std::find(killed_checks.begin(), killed_checks.end(),
                           m.check) == killed_checks.end()) {
        killed_checks.push_back(m.check);
      }
    }
  }
  for (const std::string& check : seen_checks) {
    if (std::find(killed_checks.begin(), killed_checks.end(), check) ==
        killed_checks.end()) {
      fail("check " + check + " was never shown to fail");
    }
  }
  std::cout << "self-test: " << seen_checks.size() << " checks, "
            << problems << " problems\n";
  return problems == 0 ? 0 : 1;
}

int usage(const std::string& why) {
  std::cerr << "fi_perfbench: " << why << "\n"
            << "usage: fi_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n"
               "       fi_perfbench --self-test [--seed <n>] "
               "[--out-dir <dir>]\n";
  return 2;
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  const char* end = text.data() + text.size();
  const auto res = std::from_chars(text.data(), end, out);
  return res.ec == std::errc() && res.ptr == end && !text.empty();
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  std::string workload_name;
  std::string out_dir = ".bench_out";
  std::uint64_t seed = 1;
  std::uint64_t seconds = 10;
  std::uint64_t trace = 0;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--out-dir") {
      out_dir = value;
    } else if (arg == "--seed") {
      if (!parse_u64(value, seed)) return usage("bad --seed " + value);
    } else if (arg == "--seconds") {
      if (!parse_u64(value, seconds)) return usage("bad --seconds " + value);
    } else if (arg == "--trace") {
      if (!parse_u64(value, trace) || trace > 1) {
        return usage("bad --trace " + value);
      }
    } else {
      return usage("unknown flag " + arg);
    }
  }

  const unsigned workers = host_cores();
  std::cout << "host: nproc " << workers << ", cpu " << cpu_model()
            << ", engine.workers " << workers << "\n";
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) return usage("cannot create " + out_dir + ": " + ec.message());

  if (self_test) return run_self_test(seed, workers, out_dir);
  if (workload_name.empty()) return usage("--workload is required");

  auto w = perfbench::make_workload(workload_name, seed, workers);
  if (!w.is_ok()) return usage(w.status().to_string());
  std::cout << "workload " << workload_name << ", seed " << seed << ", "
            << w.value().spec.sectors << " sectors, "
            << w.value().spec.initial_files << " initial files, "
            << w.value().total_epochs << " epochs, checkpoints at epochs";
  for (const std::uint64_t e : w.value().checkpoint_epochs) {
    std::cout << " " << e;
  }
  std::cout << "\n";
  const std::string snap_path = out_dir + "/" + workload_name + "-" +
                                std::to_string(seed) + ".fisnap";
  if (trace == 0) {
    return run_untraced(w.value(), snap_path, static_cast<double>(seconds),
                        process_start);
  }
  // Layers a workload does not exercise are replayed with the settings of
  // the workload that does (NetModel: churn_net; traffic: retrieval_attack).
  const auto source = [&](bool has_block, const char* other) {
    return has_block ? w.value()
                     : perfbench::make_workload(other, seed, workers).value();
  };
  const Workload net_source =
      source(w.value().spec.network.enabled, "churn_net");
  const Workload traffic_source =
      source(w.value().spec.traffic.enabled, "retrieval_attack");
  return run_traced(w.value(), net_source, traffic_source, workers, snap_path);
}
