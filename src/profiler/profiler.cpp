#include "profiler/profiler.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "sim/group_sweep.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span_tracer.hpp"
#include "trace/pca.hpp"
#include "trace/trace.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "workload/idle.hpp"

namespace aegis::profiler {

namespace {

// Domain-separation salts for the per-group shard streams (see the
// determinism contract in DESIGN.md "Parallel campaign").
constexpr std::uint64_t kWarmupSalt = 0x3A2250F11E2ULL;
constexpr std::uint64_t kRankSalt = 0x4A11ULL;

}  // namespace

ApplicationProfiler::ApplicationProfiler(const pmu::EventDatabase& db,
                                         ProfilerConfig config)
    : db_(&db), config_(config) {}

// aegis-rng: stream(profiler-warmup)
WarmupReport ApplicationProfiler::warmup(const workload::Workload& application) {
  if (config_.warmup_repeats == 0) {
    throw std::invalid_argument(
        "ApplicationProfiler::warmup: warmup_repeats must be at least 1");
  }
  // aegis-lint: clock-ok(reporting-only: WarmupReport::wall_seconds)
  const auto start = std::chrono::steady_clock::now();
  WarmupReport report;
  report.total_events = db_->size();
  report.before_by_type = db_->count_by_type();

  std::vector<std::uint32_t> all_events(db_->size());
  std::iota(all_events.begin(), all_events.end(), 0u);
  // Repeat the idle/active comparison; the median change decides, which
  // averages out interrupt noise and host background (C2).
  const workload::IdleWorkload idle(config_.warmup_slices);
  std::vector<sim::SweepJob> jobs;
  for (std::size_t rep = 0; rep < config_.warmup_repeats; ++rep) {
    jobs.push_back({&idle, config_.warmup_slices});
    jobs.push_back({&application, config_.warmup_slices});
  }

  telemetry::Registry& tel = telemetry::resolve(config_.telemetry);
  telemetry::ScopedSpan stage(tel.spans(), "profiler.warmup", 0,
                              sim::sweep_group_count(all_events.size()));
  util::ThreadPool pool(config_.num_threads);
  report.surviving = sim::sweep_groups(
      *db_, all_events, jobs,
      [&](std::size_t g) {
        return util::Rng(util::split_mix64(config_.seed ^ kWarmupSalt, g));
      },
      [](sim::MonitorResult& run) { return std::move(run.totals); },
      [&](const std::vector<std::uint32_t>& group,
          const std::vector<std::vector<double>>& totals) {
        std::vector<std::uint32_t> surviving;
        for (std::size_t e = 0; e < group.size(); ++e) {
          std::vector<double> rel_changes;
          std::vector<double> abs_changes;
          for (std::size_t r = 0; r < totals.size(); r += 2) {
            const double idle_count = totals[r][e];
            const double diff = std::abs(totals[r + 1][e] - idle_count);
            rel_changes.push_back(diff / std::max(idle_count, 1.0));
            abs_changes.push_back(diff);
          }
          if (util::median(rel_changes) > config_.warmup_rel_change &&
              util::median(abs_changes) > config_.warmup_abs_change) {
            surviving.push_back(group[e]);
          }
        }
        return surviving;
      },
      {config_.vm, &pool, &tel.spans(), "profiler.warmup.group"});
  for (std::uint32_t id : report.surviving) {
    ++report.after_by_type[static_cast<std::size_t>(db_->by_id(id).type)];
  }
  report.wall_seconds =
      // aegis-lint: clock-ok(reporting-only: WarmupReport::wall_seconds)
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return report;
}

// aegis-rng: stream(profiler-rank)
std::vector<EventRank> ApplicationProfiler::rank(
    const std::vector<std::unique_ptr<workload::Workload>>& secrets,
    const std::vector<std::uint32_t>& event_ids) {
  // No events: an empty ranking (no jobs needed, so none are checked).
  const std::size_t runs = config_.ranking_runs_per_secret;
  const std::vector<sim::SweepJob> jobs =
      event_ids.empty()
          ? std::vector<sim::SweepJob>{}
          : sim::secret_jobs(secrets, runs, "ApplicationProfiler::rank");

  telemetry::Registry& tel = telemetry::resolve(config_.telemetry);
  telemetry::ScopedSpan stage(tel.spans(), "profiler.rank", 0,
                              sim::sweep_group_count(event_ids.size()));
  util::ThreadPool pool(config_.num_threads);
  std::vector<EventRank> ranks = sim::sweep_groups(
      *db_, event_ids, jobs,
      [&](std::size_t g) {
        return util::Rng(util::split_mix64(config_.seed ^ kRankSalt, g));
      },
      [&](sim::MonitorResult& run) {
        // One run yields a trace for all 4 events of the group at once.
        trace::Trace t;
        t.samples = std::move(run.samples);  // avoids a deep copy
        return t.window_features(config_.feature_windows);
      },
      [&](const std::vector<std::uint32_t>& group,
          const std::vector<std::vector<double>>& pooled) {
        // features[e][j] = job j's pooled series for event e; jobs are
        // secret-major, so job j belongs to secret j / runs.
        std::vector<std::vector<std::vector<double>>> features(group.size());
        for (const std::vector<double>& all : pooled) {
          const std::size_t w = all.size() / group.size();
          for (std::size_t e = 0; e < group.size(); ++e) {
            features[e].emplace_back(
                all.begin() + static_cast<std::ptrdiff_t>(e * w),
                all.begin() + static_cast<std::ptrdiff_t>((e + 1) * w));
          }
        }

        std::vector<EventRank> group_ranks;
        for (std::size_t e = 0; e < group.size(); ++e) {
          // PCA over every run of this event, then per-secret Gaussian fits.
          trace::Pca pca;
          pca.fit(features[e], 1);
          std::vector<std::vector<double>> values_by_secret(secrets.size());
          for (std::size_t j = 0; j < features[e].size(); ++j) {
            values_by_secret[j / runs].push_back(
                pca.first_component(features[e][j]));
          }
          const trace::SecretGaussianModel model =
              trace::SecretGaussianModel::fit(values_by_secret);
          group_ranks.push_back(
              EventRank{group[e], trace::mutual_information_eq1(model)});
        }
        return group_ranks;
      },
      {config_.vm, &pool, &tel.spans(), "profiler.rank.group"});
  std::sort(ranks.begin(), ranks.end(), [](const EventRank& a, const EventRank& b) {
    return a.mutual_information > b.mutual_information;
  });
  return ranks;
}

double ApplicationProfiler::warmup_time_hours(std::size_t total_events,
                                              double t_w_seconds,
                                              std::size_t counters) {
  return static_cast<double>(total_events) * t_w_seconds * 2.0 /
         static_cast<double>(counters) / 3600.0;
}

double ApplicationProfiler::ranking_time_hours(std::size_t surviving_events,
                                               std::size_t secrets,
                                               std::size_t runs,
                                               double t_p_seconds,
                                               std::size_t counters) {
  return static_cast<double>(surviving_events) * static_cast<double>(secrets) *
         static_cast<double>(runs) * t_p_seconds /
         static_cast<double>(counters) / 3600.0;
}

}  // namespace aegis::profiler
