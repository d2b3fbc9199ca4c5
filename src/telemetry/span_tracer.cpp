#include "telemetry/span_tracer.hpp"

#include <algorithm>

namespace aegis::telemetry {

namespace {

/// Innermost open ScopedSpan on this thread, for parent inference.
thread_local ScopedSpan* t_innermost = nullptr;

}  // namespace

SpanStream SpanTracer::stream(std::string_view name) {
  const EventHandle begin =
      recorder_->event_handle(name, WideEventType::kSpanBegin);
  return {begin, EventHandle(recorder_, WideEventType::kSpanEnd,
                             begin.stream())};
}

std::uint64_t SpanTracer::record_complete(const SpanStream& stream,
                                          std::uint64_t begin_ns,
                                          std::uint64_t end_ns,
                                          std::uint32_t track,
                                          std::uint64_t arg,
                                          std::uint64_t parent) noexcept {
  const std::uint64_t id = next_id();
  stream.begin.record(begin_ns, id, arg, parent, track);
  stream.end.record(std::max(begin_ns, end_ns), id, 0, 0, track);
  return id;
}

ScopedSpan::ScopedSpan(SpanTracer& tracer, std::string_view name,
                       std::uint32_t track, std::uint64_t arg)
    : tracer_(&tracer),
      id_(tracer.next_id()),
      track_(track),
      enclosing_(t_innermost) {
  std::uint64_t parent = 0;
  for (const ScopedSpan* s = enclosing_; s != nullptr; s = s->enclosing_) {
    if (s->tracer_ == tracer_) {
      parent = s->id_;
      break;
    }
  }
  const SpanStream stream = tracer.stream(name);
  end_ = stream.end;
  stream.begin.record(tracer.now_ns(), id_, arg, parent, track);
  t_innermost = this;
}

ScopedSpan::~ScopedSpan() {
  if (t_innermost == this) t_innermost = enclosing_;
  end_.record(tracer_->now_ns(), id_, 0, 0, track_);
}

}  // namespace aegis::telemetry
