// Metric exporter: the JSON snapshot (aegis_top input). Spans and admission
// decisions live in the flight recorder; write_recorder_trace_json
// (flight_recorder.hpp) renders them.
//
// It is deterministic given deterministic inputs: metrics iterate in name
// order and doubles print via a fixed %.10g format — the exporter golden
// test pins the bytes.
#pragma once

#include <ostream>

#include "telemetry/metrics.hpp"

namespace aegis::telemetry {

/// One JSON object: {"counters": {...}, "gauges": {...}}. This is the wire
/// format tools/aegis_top consumes.
void write_json_snapshot(const MetricsSnapshot& snap, std::ostream& os);

}  // namespace aegis::telemetry
