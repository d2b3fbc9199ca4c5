#include "telemetry/registry.hpp"

#include <cstdlib>
#include <utility>

namespace aegis::telemetry {

namespace {

/// One tick renders as 1 µs, keeping distinct reads visibly apart in trace
/// viewers.
constexpr std::uint64_t kTickNs = 1000;

}  // namespace

Registry::Registry()
    : Registry([this] {
        return ticks_.fetch_add(1, std::memory_order_relaxed) * kTickNs;
      }) {}

Registry::Registry(Clock clock)
    : clock_(std::move(clock)), spans_(recorder_, clock_) {}

Registry& Registry::global() {
  static Registry instance;
  // AEGIS_FR_DUMP=<path-prefix> arms crash/terminate dumps of the global
  // recorder to "<prefix>.<pid>.frd" — how CI harvests flight-recorder
  // dumps from failed test legs with zero per-test plumbing.
  static const bool armed = [] {
    const char* prefix = std::getenv("AEGIS_FR_DUMP");
    if (prefix != nullptr && prefix[0] != '\0') {
      instance.recorder().arm_crash_dump(prefix);
    }
    return true;
  }();
  (void)armed;
  return instance;
}

}  // namespace aegis::telemetry
