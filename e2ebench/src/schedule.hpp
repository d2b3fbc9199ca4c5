// Open-loop arrival schedule for the service workload.
#pragma once

#include <cstdint>
#include <vector>

namespace e2ebench {

/// Due times, in seconds from the schedule start, of `count` arrivals of a
/// Poisson process at `rate_per_s` (exponential gaps). Same seed, same
/// schedule.
std::vector<double> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                     std::size_t count);

}  // namespace e2ebench
