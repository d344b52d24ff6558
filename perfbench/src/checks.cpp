#include "checks.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace perfbench {

namespace {

/// Epochs after the gang starts by which every gang stream must be
/// flagged: the defense needs `violations` consecutive violating epochs,
/// and the workload's run ends this many epochs after the gang starts.
constexpr std::uint64_t kFlagWindow = 6;

std::string str(std::uint64_t v) { return std::to_string(v); }

CheckResult make(std::string name, bool ok, std::string detail) {
  return CheckResult{std::move(name), ok, std::move(detail)};
}

bool contains(const std::vector<std::uint64_t>& ids, std::uint64_t id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

}  // namespace

Facts collect_facts(const Workload& workload,
                    const fi::scenario::MetricsReport& report,
                    std::uint64_t burst_population,
                    std::string hash_at_checkpoint, std::string hash_resumed) {
  const fi::scenario::ScenarioSpec& spec = workload.spec;
  Facts f;
  f.rent_charged = report.rent_charged;
  f.rent_paid = report.rent_paid;
  f.rent_pool = report.rent_pool;
  f.files_added = report.totals.files_added;
  f.upload_failures = report.totals.upload_failures;
  f.files_discarded = report.totals.files_discarded;
  f.files_lost = report.totals.files_lost;
  f.final_files = report.final_files;
  f.value_lost = report.totals.value_lost;
  f.value_compensated = report.totals.value_compensated;

  f.replicas = spec.params.replica_count(spec.effective_file_value());
  f.burst_population = burst_population;
  if (workload.burst_epoch == kNoBurst) {
    f.burst_files_lost = report.totals.files_lost;
  } else {
    for (const fi::scenario::PhaseSpec& phase : spec.phases) {
      if (phase.kind == fi::scenario::PhaseKind::corrupt_burst) {
        f.burst_fraction = phase.corrupt_fraction;
      }
    }
    // Every file lost from the burst on, later phases included.
    bool from_burst = false;
    for (const fi::scenario::PhaseMetrics& phase : report.phases) {
      from_burst = from_burst || phase.kind == "corrupt_burst";
      if (from_burst) f.burst_files_lost += phase.delta.files_lost;
    }
  }
  f.hash_at_checkpoint = std::move(hash_at_checkpoint);
  f.hash_resumed = std::move(hash_resumed);

  if (spec.network.enabled) {
    const fi::scenario::NetworkMetrics& n = report.network;
    f.network = true;
    f.sent = n.sent;
    f.delivered = n.delivered;
    f.dropped_loss = n.dropped_loss;
    f.dropped_partition = n.dropped_partition;
    f.dropped_down = n.dropped_down;
    f.drop_probability = spec.network.drop_probability;
    for (const fi::scenario::RegionMetrics& region : n.per_region) {
      f.region_max_latency.push_back(region.max_latency);
    }
    f.latency_bound = spec.network.base_latency + spec.network.region_latency +
                      spec.network.ticks_per_kib *
                          ((spec.file_size_max + 1023) / 1024) +
                      spec.network.jitter;
    for (const fi::scenario::PhaseMetrics& phase : report.phases) {
      if (phase.end_time > phase.start_time) {
        f.last_phase_refreshes = phase.delta.refreshes_started;
      }
    }
  }

  if (spec.traffic.enabled) {
    const fi::traffic::TrafficMetrics& t = report.traffic;
    f.traffic = true;
    f.requests_attempted = t.requests_attempted;
    f.rate_limited = t.rate_limited;
    f.lookup_failures = t.lookup_failures;
    f.starved = t.starved;
    f.dropped = t.dropped;
    f.enqueued = t.enqueued;
    f.served = t.served;
    f.backlog = t.backlog;
    f.retrievals_settled = t.retrievals_settled;
    f.p50_latency = t.p50_latency;
    f.p99_latency = t.p99_latency;
    f.honest_streams = spec.traffic.streams;
    f.flagged_streams = t.flagged_stream_ids;
    f.first_flagged_epoch = t.first_flagged_epoch;
    f.run_end_epoch = workload.total_epochs;
    f.defense_violations = spec.traffic.defense_violations;
    for (const fi::adversary::AdversarySpec& adv : spec.adversaries) {
      if (adv.kind == fi::adversary::StrategyKind::retrieval_ddos) {
        f.gang_streams = adv.gang;
        f.gang_start = adv.start_epoch;
      }
    }
  }
  return f;
}

std::vector<CheckResult> run_checks(const Facts& f) {
  std::vector<CheckResult> out;

  out.push_back(make("rent_conservation",
                     f.rent_charged == f.rent_paid + f.rent_pool,
                     "charged " + str(f.rent_charged) + " vs paid " +
                         str(f.rent_paid) + " + pool " + str(f.rent_pool)));

  // Unsigned: in a broken run a wrap shows up as a mismatch all the same.
  const std::uint64_t expected_files = f.files_added - f.upload_failures -
                                       f.files_discarded - f.files_lost;
  out.push_back(make("file_accounting", expected_files == f.final_files,
                     str(f.files_added) + " - " + str(f.upload_failures) +
                         " - " + str(f.files_discarded) + " - " +
                         str(f.files_lost) + " = " + str(expected_files) +
                         " vs final " + str(f.final_files)));

  out.push_back(make("full_compensation", f.value_compensated == f.value_lost,
                     "compensated " + str(f.value_compensated) + " vs lost " +
                         str(f.value_lost)));

  {
    // Theorem 3: each file loses all k replicas with probability lambda^k,
    // so losses are Binomial(N, lambda^k); allow four standard deviations.
    const double mean = static_cast<double>(f.burst_population) *
                        std::pow(f.burst_fraction,
                                 static_cast<double>(f.replicas));
    const double bound = mean + 4.0 * std::sqrt(mean);
    std::ostringstream d;
    d << "lost " << f.burst_files_lost << " <= " << bound << " (N "
      << f.burst_population << ", lambda " << f.burst_fraction << ", k "
      << f.replicas << ", expected " << mean << ")";
    out.push_back(make("loss_bound",
                       static_cast<double>(f.burst_files_lost) <= bound,
                       d.str()));
  }

  out.push_back(make("resume_hash",
                     !f.hash_at_checkpoint.empty() &&
                         f.hash_at_checkpoint == f.hash_resumed,
                     f.hash_at_checkpoint + " vs " + f.hash_resumed));

  if (f.network) {
    // The report has no in-flight count, and handoffs sent at the last
    // epoch boundary are still in flight when the run ends. Every message
    // is delivered or dropped at most once, and what remains in flight was
    // sent in the last cycle (latency is below one cycle, see
    // latency_bound), so 0 <= sent - accounted <= that cycle's handoffs.
    const std::uint64_t accounted = f.delivered + f.dropped_loss +
                                    f.dropped_partition + f.dropped_down;
    const bool balanced = accounted <= f.sent &&
                          f.sent - accounted <= f.last_phase_refreshes;
    out.push_back(make("message_conservation", balanced,
                       "sent " + str(f.sent) + " vs delivered+dropped " +
                           str(accounted) + ", in flight at most " +
                           str(f.last_phase_refreshes)));

    // Every message that reached the loss draw drew it; messages blocked
    // at send skipped it, partition drops at delivery had drawn it. So the
    // number of draws lies in [sent - blocked, sent].
    const double p = f.drop_probability;
    const double n_hi = static_cast<double>(f.sent);
    const double n_lo = static_cast<double>(
        f.sent - std::min(f.sent, f.dropped_partition + f.dropped_down));
    const double slack = 4.0 * std::sqrt(n_hi * p * (1.0 - p)) + 1.0;
    const double lost = static_cast<double>(f.dropped_loss);
    std::ostringstream d;
    d << "dropped_loss " << f.dropped_loss << " in [" << p * n_lo - slack
      << ", " << p * n_hi + slack << "] (p " << p << ")";
    out.push_back(make("loss_rate",
                       lost >= p * n_lo - slack && lost <= p * n_hi + slack,
                       d.str()));

    std::uint64_t worst = 0;
    for (const std::uint64_t m : f.region_max_latency) {
      worst = std::max(worst, m);
    }
    out.push_back(make("latency_bound",
                       !f.region_max_latency.empty() &&
                           worst <= f.latency_bound,
                       "max region latency " + str(worst) + " <= " +
                           str(f.latency_bound)));
  }

  if (f.traffic) {
    const std::uint64_t disposed = f.rate_limited + f.lookup_failures +
                                   f.starved + f.dropped + f.enqueued;
    out.push_back(make("request_dispositions",
                       f.requests_attempted == disposed,
                       "attempted " + str(f.requests_attempted) +
                           " vs dispositions " + str(disposed)));

    out.push_back(make("queue_settlement",
                       f.enqueued == f.served + f.backlog &&
                           f.enqueued == f.retrievals_settled,
                       "enqueued " + str(f.enqueued) + " vs served " +
                           str(f.served) + " + backlog " + str(f.backlog) +
                           ", settled " + str(f.retrievals_settled)));

    out.push_back(make("latency_order", f.p50_latency <= f.p99_latency,
                       "p50 " + str(f.p50_latency) + " <= p99 " +
                           str(f.p99_latency)));

    bool honest_clean = true;
    for (const std::uint64_t id : f.flagged_streams) {
      honest_clean = honest_clean && id >= f.honest_streams;
    }
    bool gang_flagged = f.gang_streams > 0;
    for (std::uint64_t g = 0; g < f.gang_streams; ++g) {
      gang_flagged =
          gang_flagged && contains(f.flagged_streams, f.honest_streams + g);
    }
    const bool prompt =
        f.first_flagged_epoch <= f.gang_start + f.defense_violations &&
        f.run_end_epoch <= f.gang_start + kFlagWindow;
    out.push_back(make(
        "defense", honest_clean && gang_flagged && prompt,
        "flagged " + str(f.flagged_streams.size()) + " streams, honest " +
            (honest_clean ? "clean" : "FLAGGED") + ", gang of " +
            str(f.gang_streams) + (gang_flagged ? " all flagged" : " missed") +
            ", first flag at epoch " + str(f.first_flagged_epoch) +
            " (gang starts " + str(f.gang_start) + ", run ends " +
            str(f.run_end_epoch) + ")"));
  }
  return out;
}

std::vector<Mutation> mutations() {
  return {
      {"rent_conservation", "rent_pool + 1", [](Facts& f) { ++f.rent_pool; }},
      {"file_accounting", "final_files + 1", [](Facts& f) { ++f.final_files; }},
      {"full_compensation", "value_compensated - 1",
       [](Facts& f) { --f.value_compensated; }},
      {"loss_bound", "burst losses at 5x the Binomial mean + 20",
       [](Facts& f) {
         const double mean = static_cast<double>(f.burst_population) *
                             std::pow(f.burst_fraction,
                                      static_cast<double>(f.replicas));
         f.burst_files_lost = static_cast<std::uint64_t>(5.0 * mean) + 20;
       }},
      {"resume_hash", "one hex digit of the resumed hash changed",
       [](Facts& f) {
         f.hash_resumed[0] = f.hash_resumed[0] == '0' ? '1' : '0';
       }},
      {"message_conservation", "delivered one past sent - dropped",
       [](Facts& f) {
         f.delivered = f.sent - f.dropped_loss - f.dropped_partition -
                       f.dropped_down + 1;
       }},
      {"message_conservation", "delivered short by the in-flight bound + 1",
       [](Facts& f) {
         const std::uint64_t accounted = f.delivered + f.dropped_loss +
                                         f.dropped_partition + f.dropped_down;
         const std::uint64_t cut =
             f.last_phase_refreshes - (f.sent - accounted) + 1;
         f.delivered -= std::min(f.delivered, cut);
       }},
      {"loss_rate", "dropped_loss doubled",
       [](Facts& f) { f.dropped_loss *= 2; }},
      {"latency_bound", "region 0 max latency one past the bound",
       [](Facts& f) { f.region_max_latency.at(0) = f.latency_bound + 1; }},
      {"request_dispositions", "starved + 1", [](Facts& f) { ++f.starved; }},
      {"queue_settlement", "retrievals_settled + 1",
       [](Facts& f) { ++f.retrievals_settled; }},
      {"latency_order", "p50 one past p99",
       [](Facts& f) { f.p50_latency = f.p99_latency + 1; }},
      {"defense", "honest stream 0 flagged",
       [](Facts& f) { f.flagged_streams.push_back(0); }},
      {"defense", "last gang stream not flagged",
       [](Facts& f) {
         std::erase(f.flagged_streams, f.honest_streams + f.gang_streams - 1);
       }},
      {"defense", "first flag one epoch late",
       [](Facts& f) {
         f.first_flagged_epoch = f.gang_start + f.defense_violations + 1;
       }},
  };
}

}  // namespace perfbench
