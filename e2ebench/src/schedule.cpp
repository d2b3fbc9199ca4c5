#include "schedule.hpp"

#include "util/rng.hpp"

namespace e2ebench {

std::vector<double> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                     std::size_t count) {
  aegis::util::Rng rng(seed);
  std::vector<double> due;
  due.reserve(count);
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    t += rng.exponential(rate_per_s);
    due.push_back(t);
  }
  return due;
}

}  // namespace e2ebench
