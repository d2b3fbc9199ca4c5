// Metric exporters: Prometheus text exposition and the JSON snapshot
// (aegis_top input). Spans and admission decisions live in the flight
// recorder; write_recorder_trace_json (flight_recorder.hpp) renders them.
//
// Both are deterministic given deterministic inputs: metrics iterate in name
// order and doubles print via a fixed %.10g format — the exporter golden
// tests pin the bytes.
#pragma once

#include <ostream>

#include "telemetry/metrics.hpp"

namespace aegis::telemetry {

/// Prometheus text format. Counters print as integers, gauges as %.10g;
/// histograms expand to cumulative `_bucket{le="..."}` rows plus `_sum` and
/// `_count`. A `# TYPE` line is emitted once per metric base name (the part
/// before any `{label}` suffix), preceded by a `# HELP` line when the
/// registry registered one (MetricsRegistry::set_help). Per the text-format
/// spec, HELP text escapes `\` and line feeds, and label VALUES additionally
/// escape `"` — raw registration-site label values can't corrupt the
/// exposition.
void write_prometheus(const MetricsSnapshot& snap, std::ostream& os);

/// One JSON object: {"counters": {...}, "gauges": {...},
/// "histograms": {...}}. This is the wire format tools/aegis_top consumes.
void write_json_snapshot(const MetricsSnapshot& snap, std::ostream& os);

}  // namespace aegis::telemetry
