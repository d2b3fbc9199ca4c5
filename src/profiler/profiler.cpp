#include "profiler/profiler.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <span>
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

// Domain-separation salts for the sweep streams (see the determinism
// contract in DESIGN.md "Parallel campaign").
constexpr std::uint64_t kWarmupSalt = 0x3A2250F11E2ULL;
constexpr std::uint64_t kRankSalt = 0x4A11ULL;

// Ranking sweeps its events in chunks of this many. PCA reads every run of
// an event, so a sweep keeps every job's window features until it ends:
// with 450 jobs and 24 windows a 128-event chunk (32 register groups) holds
// about 11 MB, where all 729 Intel warm-up survivors at once would hold
// about 63 MB. Each chunk re-simulates the same runs (same seeds), so the
// ranking does not depend on this constant. A multiple of the group size.
constexpr std::size_t kRankChunkEvents = 128;
static_assert(kRankChunkEvents % pmu::EventDatabase::kNumCounters == 0);

/// Warm-up keeps a run's final cumulative reads.
struct FinalReads {
  std::vector<double> totals;
  void slice(std::size_t, std::span<const double>) const noexcept {}
  void finish(std::span<const double> reads) {
    totals.assign(reads.begin(), reads.end());
  }
};

/// Ranking keeps a run's window means (Trace::window_features).
struct WindowMeans {
  trace::WindowPooler pooler;
  void slice(std::size_t t, std::span<const double> delta) noexcept {
    pooler.add(t, delta);
  }
  void finish(std::span<const double>) const noexcept {}
};

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
  const std::vector<FinalReads> runs = sim::sweep_groups(
      *db_, all_events, jobs, util::Rng(config_.seed ^ kWarmupSalt),
      [](std::size_t) { return FinalReads{}; }, {config_.vm, &pool});
  std::vector<double> rel_changes;
  std::vector<double> abs_changes;
  for (std::size_t e = 0; e < all_events.size(); ++e) {
    rel_changes.clear();
    abs_changes.clear();
    for (std::size_t r = 0; r < runs.size(); r += 2) {
      const double idle_count = runs[r].totals[e];
      const double diff = std::abs(runs[r + 1].totals[e] - idle_count);
      rel_changes.push_back(diff / std::max(idle_count, 1.0));
      abs_changes.push_back(diff);
    }
    if (util::median(rel_changes) > config_.warmup_rel_change &&
        util::median(abs_changes) > config_.warmup_abs_change) {
      report.surviving.push_back(all_events[e]);
    }
  }
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
  if (event_ids.empty()) return {};
  const std::size_t runs = config_.ranking_runs_per_secret;
  const std::vector<sim::SweepJob> jobs =
      sim::secret_jobs(secrets, runs, "ApplicationProfiler::rank");

  telemetry::Registry& tel = telemetry::resolve(config_.telemetry);
  telemetry::ScopedSpan stage(tel.spans(), "profiler.rank", 0,
                              sim::sweep_group_count(event_ids.size()));
  util::ThreadPool pool(config_.num_threads);
  // ranks[i] = event_ids[i]'s rank until the sort: each event's reduction
  // runs as its own pool task and writes only its own slot.
  std::vector<EventRank> ranks(event_ids.size());
  const std::size_t total_groups = sim::sweep_group_count(event_ids.size());
  for (std::size_t base = 0; base < event_ids.size();
       base += kRankChunkEvents) {
    const std::span<const std::uint32_t> events =
        std::span<const std::uint32_t>(event_ids).subspan(
            base, std::min(kRankChunkEvents, event_ids.size() - base));
    std::vector<WindowMeans> means = sim::sweep_groups(
        *db_, events, jobs,
        util::Rng(config_.seed ^ kRankSalt),
        [&](std::size_t j) {
          return WindowMeans{trace::WindowPooler(
              events.size(), jobs[j].slices, config_.feature_windows)};
        },
        {config_.vm, &pool, base / pmu::EventDatabase::kNumCounters,
         total_groups});
    // pooled[j] = job j's window means, event-major; jobs are secret-major,
    // so job j belongs to secret j / runs.
    std::vector<std::vector<double>> pooled;
    pooled.reserve(means.size());
    for (WindowMeans& m : means) {
      pooled.push_back(std::move(m.pooler).features());
    }
    pool.parallel_for(events.size(), [&](std::size_t e) {
      // PCA over every run of this event, then per-secret Gaussian fits.
      std::vector<std::vector<double>> features;
      features.reserve(pooled.size());
      for (const std::vector<double>& all : pooled) {
        const std::size_t w = all.size() / events.size();
        features.emplace_back(
            all.begin() + static_cast<std::ptrdiff_t>(e * w),
            all.begin() + static_cast<std::ptrdiff_t>((e + 1) * w));
      }
      trace::Pca pca;
      pca.fit(features, 1);
      std::vector<std::vector<double>> values_by_secret(secrets.size());
      for (std::size_t j = 0; j < features.size(); ++j) {
        values_by_secret[j / runs].push_back(pca.first_component(features[j]));
      }
      const trace::SecretGaussianModel model =
          trace::SecretGaussianModel::fit(values_by_secret);
      ranks[base + e] =
          EventRank{events[e], trace::mutual_information_eq1(model)};
    });
  }
  // A total order (MI descending, then event id), so equal estimates rank
  // the same on every standard library: the fuzzer groups events in this
  // order.
  std::sort(ranks.begin(), ranks.end(), [](const EventRank& a, const EventRank& b) {
    if (a.mutual_information != b.mutual_information) {
      return a.mutual_information > b.mutual_information;
    }
    return a.event_id < b.event_id;
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
