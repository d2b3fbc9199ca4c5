#include "workload/website.hpp"

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"

namespace aegis::workload {

namespace {

using isa::InstructionClass;
using sim::InstructionBlock;

// Region-id space: each site gets disjoint working sets per phase type so
// cache behaviour is site-structured.
constexpr std::uint32_t kSiteRegionBase = 1000;

const char* kSiteNames[WebsiteWorkload::kNumSites] = {
    "google.com",    "youtube.com",    "facebook.com",  "twitter.com",
    "instagram.com", "baidu.com",      "wikipedia.org", "yandex.ru",
    "yahoo.com",     "whatsapp.com",   "amazon.com",    "live.com",
    "netflix.com",   "reddit.com",     "tiktok.com",    "office.com",
    "linkedin.com",  "zoom.us",        "vk.com",        "discord.com",
    "twitch.tv",     "bing.com",       "naver.com",     "microsoft.com",
    "roblox.com",    "ebay.com",       "pinterest.com", "qq.com",
    "apple.com",     "aliexpress.com", "bbc.com",       "cnn.com",
    "espn.com",      "github.com",     "stackoverflow.com",
    "imdb.com",      "spotify.com",    "paypal.com",    "dropbox.com",
    "weather.com",   "booking.com",    "nytimes.com",   "quora.com",
    "canva.com",     "etsy.com"};

}  // namespace

// aegis-rng: stream(website-init)
WebsiteWorkload::WebsiteWorkload(std::size_t site_id, std::size_t slices)
    : site_id_(site_id % kNumSites), slices_(slices) {
  // Deterministic per-site profile: same site always has the same phase
  // structure (that is what makes it fingerprintable).
  util::Rng rng(0x5173ULL * 2654435761ULL + site_id_);
  const double total_scale = rng.uniform(0.8, 1.35);
  const double js_intensity = rng.uniform(0.3, 2.0);
  const double media_fraction = rng.uniform(0.05, 0.7);
  const int resources = static_cast<int>(rng.uniform_int(6, 18));

  // Initial network wait before first byte.
  Phase wait{PhaseKind::kNetworkWait, 0.0, rng.uniform(0.06, 0.22), 0.2,
             kSiteRegionBase + static_cast<std::uint32_t>(site_id_) * 8, 4096};
  phases_.push_back(wait);

  // HTML parse right after the wait.
  phases_.push_back(Phase{PhaseKind::kParse, wait.duration_frac,
                          rng.uniform(0.08, 0.2), total_scale,
                          wait.region + 1, rng.uniform(64e3, 512e3)});

  for (int r = 0; r < resources; ++r) {
    const double pick = rng.uniform();
    PhaseKind kind;
    double intensity;
    double footprint;
    if (pick < media_fraction) {
      kind = PhaseKind::kImageDecode;
      intensity = total_scale * rng.uniform(0.5, 1.6);
      footprint = rng.uniform(256e3, 4e6);
    } else if (pick < media_fraction + 0.5) {
      kind = PhaseKind::kScript;
      intensity = total_scale * js_intensity * rng.uniform(0.5, 1.5);
      footprint = rng.uniform(128e3, 2e6);
    } else {
      kind = PhaseKind::kPaint;
      intensity = total_scale * rng.uniform(0.4, 1.2);
      footprint = rng.uniform(512e3, 6e6);
    }
    const double start = rng.uniform(wait.duration_frac + 0.02, 0.85);
    const double duration = rng.uniform(0.04, 0.25);
    phases_.push_back(Phase{kind, start, duration, intensity,
                            wait.region + 2 + static_cast<std::uint32_t>(r % 6),
                            footprint});
  }

  // Final full-page paint.
  phases_.push_back(Phase{PhaseKind::kPaint, rng.uniform(0.75, 0.9),
                          rng.uniform(0.08, 0.18), total_scale,
                          wait.region + 7, rng.uniform(1e6, 8e6)});
}

std::string WebsiteWorkload::name() const { return kSiteNames[site_id_]; }

// aegis-rng: stream(website-visit)
sim::BlockSource WebsiteWorkload::visit(std::uint64_t visit_seed) const {
  // Per-visit jitter: timing shifts, work scaling, and slice-level noise.
  auto rng = std::make_shared<util::Rng>(visit_seed ^ (site_id_ * 0x9E3779B9ULL));
  struct JitteredPhase {
    Phase phase;
    double start, end, scale;
  };
  auto jittered = std::make_shared<std::vector<JitteredPhase>>();
  const double global_scale = std::exp(rng->normal(0.0, 0.06));
  for (const Phase& p : phases_) {
    JitteredPhase jp;
    jp.phase = p;
    jp.start = std::max(0.0, p.start_frac + rng->normal(0.0, 0.015));
    jp.end = std::min(1.0, jp.start + p.duration_frac * std::exp(rng->normal(0.0, 0.05)));
    jp.scale = p.intensity * global_scale * std::exp(rng->normal(0.0, 0.08));
    jittered->push_back(jp);
  }

  const std::size_t slices = slices_;
  return [rng, jittered, slices](std::size_t t) {
    const double frac = static_cast<double>(t) / static_cast<double>(slices);
    auto active = [frac](const JitteredPhase& jp) {
      return frac >= jp.start && frac < jp.end;
    };
    std::vector<InstructionBlock> blocks;
    blocks.reserve(static_cast<std::size_t>(
        std::count_if(jittered->begin(), jittered->end(), active)));
    for (const auto& jp : *jittered) {
      if (!active(jp)) continue;
      const double active_slices =
          std::max(1.0, (jp.end - jp.start) * static_cast<double>(slices));
      // Per-slice share of the phase's work, with slice-level noise.
      const double w = jp.scale * std::exp(rng->normal(0.0, 0.1)) * 10.0 /
                       active_slices * static_cast<double>(slices) / 300.0;
      InstructionBlock& b = blocks.emplace_back();
      b.region = jp.phase.region;
      switch (jp.phase.kind) {
        case PhaseKind::kNetworkWait:
          b.class_counts[InstructionClass::kIntAlu] = 60 * w;
          b.class_counts[InstructionClass::kBranch] = 25 * w;
          b.class_counts[InstructionClass::kSystem] = 0;
          b.read_bytes = 2048 * w;
          b.locality = 0.8;
          b.branch_entropy = 0.2;
          break;
        case PhaseKind::kParse:
          b.class_counts[InstructionClass::kIntAlu] = 2600 * w;
          b.class_counts[InstructionClass::kLogic] = 1400 * w;
          b.class_counts[InstructionClass::kBranch] = 1100 * w;
          b.class_counts[InstructionClass::kLoad] = 900 * w;
          b.class_counts[InstructionClass::kStore] = 350 * w;
          b.read_bytes = 40e3 * w;
          b.write_bytes = 10e3 * w;
          b.locality = 0.7;
          b.branch_entropy = 0.35;
          break;
        case PhaseKind::kScript:
          b.class_counts[InstructionClass::kIntAlu] = 4200 * w;
          b.class_counts[InstructionClass::kBranch] = 2300 * w;
          b.class_counts[InstructionClass::kCall] = 380 * w;
          b.class_counts[InstructionClass::kLoad] = 1800 * w;
          b.class_counts[InstructionClass::kStore] = 700 * w;
          b.class_counts[InstructionClass::kFpAdd] = 250 * w;
          b.read_bytes = 60e3 * w;
          b.write_bytes = 22e3 * w;
          b.locality = 0.45;  // pointer chasing
          b.branch_entropy = 0.5;
          break;
        case PhaseKind::kImageDecode:
          b.class_counts[InstructionClass::kSimdInt] = 5200 * w;
          b.class_counts[InstructionClass::kSimdFp] = 1400 * w;
          b.class_counts[InstructionClass::kLoad] = 1500 * w;
          b.class_counts[InstructionClass::kStore] = 600 * w;
          b.class_counts[InstructionClass::kBranch] = 500 * w;
          b.read_bytes = 180e3 * w;
          b.write_bytes = 60e3 * w;
          b.locality = 0.95;
          b.branch_entropy = 0.1;
          break;
        case PhaseKind::kPaint:
          b.class_counts[InstructionClass::kSimdFp] = 2800 * w;
          b.class_counts[InstructionClass::kFpMul] = 750 * w;
          b.class_counts[InstructionClass::kFpAdd] = 600 * w;
          b.class_counts[InstructionClass::kStore] = 1400 * w;
          b.class_counts[InstructionClass::kLoad] = 600 * w;
          b.read_bytes = 50e3 * w;
          b.write_bytes = 140e3 * w;
          b.locality = 1.0;  // streaming
          b.branch_entropy = 0.05;
          break;
      }
      // Footprint decides cache pressure; large media blow out L1.
      const double fp_scale = std::min(1.0, jp.phase.footprint / 1e6);
      b.read_bytes *= (0.5 + fp_scale);
      double uops = 0.0;
      for (std::size_t i = 0; i < b.class_counts.size(); ++i) {
        uops += b.class_counts.at_index(i);
      }
      b.uops = uops * 1.12;
    }
    return blocks;
  };
}

}  // namespace aegis::workload
