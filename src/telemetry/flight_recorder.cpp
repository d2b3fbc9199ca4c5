#include "telemetry/flight_recorder.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <istream>
#include <map>
#include <ostream>

namespace aegis::telemetry {

namespace {

// Dump format v2 (span events name their span by stream and carry its arg;
// read_dump rejects every other version). Header (40 bytes, little-endian):
//   magic[8]="AEGISFR1", u32 version, u32 record_size, u64 count,
//   u64 dropped, u32 name_table_len, u32 name_table_count
// then name_table_len bytes of (u16 length + bytes) stream names, then
// `count` 56-byte records (count == ~0 means "until EOF" — the crash path
// cannot know the count up front without a second pass it may not survive).
constexpr char kMagic[8] = {'A', 'E', 'G', 'I', 'S', 'F', 'R', '1'};
constexpr std::uint32_t kDumpVersion = 2;
constexpr std::uint32_t kRecordSize = 56;
constexpr std::uint64_t kCountUntilEof = ~0ULL;
/// Largest name table read_dump accepts; the writer's own table is
/// FlightRecorder::kNameTableBytes (16 KiB).
constexpr std::uint32_t kMaxNameTableBytes = 1u << 20;

/// Process-wide thread ordinal for ring selection. Deliberately separate
/// from metrics detail::thread_shard() so this TU stays standalone (the
/// aegis_top dump viewer links it without the rest of the library).
std::uint32_t fr_thread_ordinal() noexcept {
  static std::atomic<std::uint32_t> next{0};
  thread_local std::uint32_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

std::size_t round_up_pow2(std::size_t v) noexcept {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

void put_u16(unsigned char* p, std::uint16_t v) noexcept {
  p[0] = static_cast<unsigned char>(v);
  p[1] = static_cast<unsigned char>(v >> 8);
}

void put_u32(unsigned char* p, std::uint32_t v) noexcept {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

void put_u64(unsigned char* p, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

std::uint16_t get_u16(const unsigned char* p) noexcept {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const unsigned char* p) noexcept {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t get_u64(const unsigned char* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

void encode_record(const DrainedEvent& ev, unsigned char* p) noexcept {
  put_u64(p + 0, ev.t_ns);
  put_u64(p + 8, ev.a);
  put_u64(p + 16, ev.b);
  put_u64(p + 24, ev.c);
  put_u64(p + 32, ev.d);
  const std::uint64_t meta = (static_cast<std::uint64_t>(ev.type) << 48) |
                             (static_cast<std::uint64_t>(ev.stream) << 32) |
                             ev.tenant;
  put_u64(p + 40, meta);
  put_u32(p + 48, ev.ring);
  put_u32(p + 52, static_cast<std::uint32_t>(ev.seq));
}

DrainedEvent decode_record(const unsigned char* p) noexcept {
  DrainedEvent ev;
  ev.t_ns = get_u64(p + 0);
  ev.a = get_u64(p + 8);
  ev.b = get_u64(p + 16);
  ev.c = get_u64(p + 24);
  ev.d = get_u64(p + 32);
  const std::uint64_t meta = get_u64(p + 40);
  ev.type = static_cast<std::uint16_t>(meta >> 48);
  ev.stream = static_cast<std::uint16_t>((meta >> 32) & 0xFFFF);
  ev.tenant = static_cast<std::uint32_t>(meta);
  ev.ring = get_u32(p + 48);
  ev.seq = get_u32(p + 52);
  return ev;
}

/// write(2) loop tolerating short writes; async-signal-safe.
bool write_all(int fd, const unsigned char* data, std::size_t size) noexcept {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n <= 0) return false;
    data += static_cast<std::size_t>(n);
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return std::string(buf);
}

/// A double from a payload word; a dump may carry any bits, and JSON has no
/// NaN or infinity.
std::string fmt_payload_double(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return std::isfinite(v) ? fmt_double(v) : std::string("null");
}

double us(std::uint64_t ns) { return static_cast<double>(ns) / 1000.0; }

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Crash-dump arming state. Path and recorder are published atomically and
// the path is fully composed at arm time, so the signal path only reads.
std::atomic<FlightRecorder*> g_armed{nullptr};
char g_armed_path[512] = {0};
std::atomic<bool> g_terminate_hook_installed{false};
std::terminate_handler g_prev_terminate = nullptr;

void crash_dump_now() noexcept {
  FlightRecorder* rec = g_armed.load(std::memory_order_acquire);
  if (rec != nullptr && g_armed_path[0] != '\0') {
    rec->dump_to_file(g_armed_path);
  }
}

extern "C" void aegis_fr_signal_handler(int sig) {
  crash_dump_now();
  // SA_RESETHAND restored the default disposition; re-raise so the process
  // still dies with the original signal (and core-dumps where configured).
  ::raise(sig);
}

[[noreturn]] void fr_terminate_handler() {
  crash_dump_now();
  if (g_prev_terminate != nullptr) g_prev_terminate();
  std::abort();
}

}  // namespace

const char* to_string(WideEventType t) noexcept {
  switch (t) {
    case WideEventType::kNone: return "none";
    case WideEventType::kSpanBegin: return "span-begin";
    case WideEventType::kSpanEnd: return "span-end";
    case WideEventType::kMetricDelta: return "metric-delta";
    case WideEventType::kAdmission: return "admission";
    case WideEventType::kPlanRotation: return "plan-rotation";
    case WideEventType::kRngCheckpoint: return "rng-checkpoint";
    case WideEventType::kAlert: return "alert";
    case WideEventType::kHotExec: return "hot-exec";
  }
  return "?";
}

void EventHandle::record(std::uint64_t t_ns, std::uint64_t a, std::uint64_t b,
                         std::uint64_t c, std::uint64_t d,
                         std::uint32_t tenant) const noexcept {
  if (recorder_ != nullptr) {
    recorder_->record_raw(type_, stream_, t_ns, a, b, c, d, tenant);
  }
}

FlightRecorder::FlightRecorder(RecorderConfig config) {
  capacity_ = round_up_pow2(std::max<std::size_t>(config.ring_capacity, 2));
  mask_ = capacity_ - 1;
  ring_count_ = std::max<std::size_t>(config.rings, 1);
  rings_ = std::make_unique<Ring[]>(ring_count_);
  for (std::size_t r = 0; r < ring_count_; ++r) {
    rings_[r].slots = std::make_unique<Slot[]>(capacity_);
  }
  name_table_ = std::make_unique<unsigned char[]>(kNameTableBytes);
}

FlightRecorder::~FlightRecorder() {
  // Disarm if this recorder owns the crash hooks: a dump from a destroyed
  // recorder would read freed rings.
  FlightRecorder* self = this;
  g_armed.compare_exchange_strong(self, nullptr, std::memory_order_acq_rel);
}

EventHandle FlightRecorder::event_handle(std::string_view name,
                                         WideEventType type) {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint16_t id = 0;
  bool found = false;
  for (std::size_t i = 0; i < stream_names_.size(); ++i) {
    if (stream_names_[i] == name) {
      id = static_cast<std::uint16_t>(i);
      found = true;
      break;
    }
  }
  if (!found) {
    if (stream_names_.size() >= 0xFFFF) {
      // Stream-id space exhausted: alias onto stream 0 rather than fail.
      return EventHandle(this, type, 0);
    }
    id = static_cast<std::uint16_t>(stream_names_.size());
    stream_names_.emplace_back(name);
    // Append to the pre-rendered (signal-safe) name table if it still fits.
    // Names are id-ordered in the table, so a prefix is always consistent.
    const std::size_t len = std::min<std::size_t>(name.size(), 0xFFFF);
    const std::uint32_t off = name_table_len_.load(std::memory_order_relaxed);
    if (off + 2 + len <= kNameTableBytes) {
      put_u16(name_table_.get() + off, static_cast<std::uint16_t>(len));
      std::memcpy(name_table_.get() + off + 2, name.data(), len);
      name_table_len_.store(off + 2 + static_cast<std::uint32_t>(len),
                            std::memory_order_release);
      name_table_count_.fetch_add(1, std::memory_order_release);
    }
  }
  return EventHandle(this, type, id);
}

void FlightRecorder::record_named(std::string_view name, WideEventType type,
                                  std::uint64_t t_ns, std::uint64_t a,
                                  std::uint64_t b, std::uint64_t c,
                                  std::uint64_t d, std::uint32_t tenant) {
  event_handle(name, type).record(t_ns, a, b, c, d, tenant);
}

void FlightRecorder::record_raw(std::uint16_t type, std::uint16_t stream,
                                std::uint64_t t_ns, std::uint64_t a,
                                std::uint64_t b, std::uint64_t c,
                                std::uint64_t d,
                                std::uint32_t tenant) noexcept {
  Ring& ring = rings_[fr_thread_ordinal() % ring_count_];
  const std::uint64_t idx = ring.head.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = ring.slots[idx & mask_];
  // Invalidate, write payload, publish: readers only accept a slot whose
  // sequence reads idx+1 both before and after the payload copy, so a
  // concurrent overwrite is detected rather than delivered torn.
  slot.seq.store(0, std::memory_order_release);
  slot.words[0].store(t_ns, std::memory_order_relaxed);
  slot.words[1].store(a, std::memory_order_relaxed);
  slot.words[2].store(b, std::memory_order_relaxed);
  slot.words[3].store(c, std::memory_order_relaxed);
  slot.words[4].store(d, std::memory_order_relaxed);
  const std::uint64_t meta = (static_cast<std::uint64_t>(type) << 48) |
                             (static_cast<std::uint64_t>(stream) << 32) |
                             tenant;
  slot.words[5].store(meta, std::memory_order_relaxed);
  slot.seq.store(idx + 1, std::memory_order_release);
}

std::uint64_t FlightRecorder::snapshot_ring(std::uint32_t ring_index,
                                            std::vector<DrainedEvent>& out) const {
  const Ring& ring = rings_[ring_index];
  const std::uint64_t head = ring.head.load(std::memory_order_acquire);
  const std::uint64_t begin = head > capacity_ ? head - capacity_ : 0;
  std::uint64_t torn = 0;
  for (std::uint64_t idx = begin; idx < head; ++idx) {
    const Slot& slot = ring.slots[idx & mask_];
    const std::uint64_t want = idx + 1;
    if (slot.seq.load(std::memory_order_acquire) != want) {
      ++torn;  // in-flight or already overwritten by a newer claim
      continue;
    }
    DrainedEvent ev;
    ev.t_ns = slot.words[0].load(std::memory_order_relaxed);
    ev.a = slot.words[1].load(std::memory_order_relaxed);
    ev.b = slot.words[2].load(std::memory_order_relaxed);
    ev.c = slot.words[3].load(std::memory_order_relaxed);
    ev.d = slot.words[4].load(std::memory_order_relaxed);
    const std::uint64_t meta = slot.words[5].load(std::memory_order_relaxed);
    if (slot.seq.load(std::memory_order_acquire) != want) {
      ++torn;  // overwritten mid-copy
      continue;
    }
    ev.type = static_cast<std::uint16_t>(meta >> 48);
    ev.stream = static_cast<std::uint16_t>((meta >> 32) & 0xFFFF);
    ev.tenant = static_cast<std::uint32_t>(meta);
    ev.ring = ring_index;
    ev.seq = idx;
    out.push_back(ev);
  }
  return torn;
}

std::vector<DrainedEvent> FlightRecorder::drain() const {
  std::vector<DrainedEvent> out;
  out.reserve(256);
  std::uint64_t torn = 0;
  for (std::size_t r = 0; r < ring_count_; ++r) {
    torn += snapshot_ring(static_cast<std::uint32_t>(r), out);
  }
  torn_.store(torn, std::memory_order_relaxed);
  std::sort(out.begin(), out.end(),
            [](const DrainedEvent& x, const DrainedEvent& y) {
              if (x.t_ns != y.t_ns) return x.t_ns < y.t_ns;
              if (x.ring != y.ring) return x.ring < y.ring;
              return x.seq < y.seq;
            });
  return out;
}

std::uint64_t FlightRecorder::dropped() const noexcept {
  std::uint64_t overwritten = 0;
  for (std::size_t r = 0; r < ring_count_; ++r) {
    const std::uint64_t head = rings_[r].head.load(std::memory_order_relaxed);
    if (head > capacity_) overwritten += head - capacity_;
  }
  return overwritten + torn_.load(std::memory_order_relaxed);
}

std::vector<std::string> FlightRecorder::streams() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stream_names_;
}

void FlightRecorder::clear() {
  for (std::size_t r = 0; r < ring_count_; ++r) {
    rings_[r].head.store(0, std::memory_order_relaxed);
    for (std::size_t i = 0; i < capacity_; ++i) {
      rings_[r].slots[i].seq.store(0, std::memory_order_relaxed);
    }
  }
  torn_.store(0, std::memory_order_relaxed);
}

void FlightRecorder::write_dump(std::ostream& os) const {
  const std::vector<DrainedEvent> events = drain();
  unsigned char header[40];
  std::memcpy(header, kMagic, 8);
  put_u32(header + 8, kDumpVersion);
  put_u32(header + 12, kRecordSize);
  put_u64(header + 16, events.size());
  put_u64(header + 24, dropped());
  const std::uint32_t table_len =
      name_table_len_.load(std::memory_order_acquire);
  const std::uint32_t table_count =
      name_table_count_.load(std::memory_order_acquire);
  put_u32(header + 32, table_len);
  put_u32(header + 36, table_count);
  os.write(reinterpret_cast<const char*>(header), sizeof(header));
  os.write(reinterpret_cast<const char*>(name_table_.get()), table_len);
  unsigned char rec[kRecordSize];
  for (const DrainedEvent& ev : events) {
    encode_record(ev, rec);
    os.write(reinterpret_cast<const char*>(rec), sizeof(rec));
  }
}

bool FlightRecorder::dump_to_fd(int fd) const noexcept {
  unsigned char header[40];
  std::memcpy(header, kMagic, 8);
  put_u32(header + 8, kDumpVersion);
  put_u32(header + 12, kRecordSize);
  put_u64(header + 16, kCountUntilEof);
  put_u64(header + 24, dropped());
  const std::uint32_t table_len =
      name_table_len_.load(std::memory_order_acquire);
  const std::uint32_t table_count =
      name_table_count_.load(std::memory_order_acquire);
  put_u32(header + 32, table_len);
  put_u32(header + 36, table_count);
  if (!write_all(fd, header, sizeof(header))) return false;
  if (!write_all(fd, name_table_.get(), table_len)) return false;
  // Per-ring claim order, validated the same way as drain() but with no
  // sort and no heap: the reader orders by the (ring, seq) fields.
  unsigned char rec[kRecordSize];
  for (std::size_t r = 0; r < ring_count_; ++r) {
    const Ring& ring = rings_[r];
    const std::uint64_t head = ring.head.load(std::memory_order_acquire);
    const std::uint64_t begin = head > capacity_ ? head - capacity_ : 0;
    for (std::uint64_t idx = begin; idx < head; ++idx) {
      const Slot& slot = ring.slots[idx & mask_];
      const std::uint64_t want = idx + 1;
      if (slot.seq.load(std::memory_order_acquire) != want) continue;
      DrainedEvent ev;
      ev.t_ns = slot.words[0].load(std::memory_order_relaxed);
      ev.a = slot.words[1].load(std::memory_order_relaxed);
      ev.b = slot.words[2].load(std::memory_order_relaxed);
      ev.c = slot.words[3].load(std::memory_order_relaxed);
      ev.d = slot.words[4].load(std::memory_order_relaxed);
      const std::uint64_t meta = slot.words[5].load(std::memory_order_relaxed);
      if (slot.seq.load(std::memory_order_acquire) != want) continue;
      ev.type = static_cast<std::uint16_t>(meta >> 48);
      ev.stream = static_cast<std::uint16_t>((meta >> 32) & 0xFFFF);
      ev.tenant = static_cast<std::uint32_t>(meta);
      ev.ring = static_cast<std::uint32_t>(r);
      ev.seq = idx;
      encode_record(ev, rec);
      if (!write_all(fd, rec, sizeof(rec))) return false;
    }
  }
  return true;
}

bool FlightRecorder::dump_to_file(const char* path) const noexcept {
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const bool ok = dump_to_fd(fd);
  ::close(fd);
  return ok;
}

void FlightRecorder::arm_crash_dump(const char* path_prefix) {
  std::snprintf(g_armed_path, sizeof(g_armed_path), "%s.%d.frd", path_prefix,
                static_cast<int>(::getpid()));
  g_armed.store(this, std::memory_order_release);
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = aegis_fr_signal_handler;
  sa.sa_flags = SA_RESETHAND;
  sigemptyset(&sa.sa_mask);
  for (int sig : {SIGSEGV, SIGBUS, SIGILL, SIGFPE, SIGABRT}) {
    ::sigaction(sig, &sa, nullptr);
  }
  bool installed = false;
  if (g_terminate_hook_installed.compare_exchange_strong(installed, true)) {
    g_prev_terminate = std::set_terminate(fr_terminate_handler);
  }
}

FlightRecorder* FlightRecorder::armed() noexcept {
  return g_armed.load(std::memory_order_acquire);
}

bool FlightRecorder::trigger_armed_dump() const noexcept {
  if (g_armed.load(std::memory_order_acquire) != this ||
      g_armed_path[0] == '\0') {
    return false;
  }
  return dump_to_file(g_armed_path);
}

std::optional<DumpDocument> read_dump(std::istream& is) {
  unsigned char header[40];
  is.read(reinterpret_cast<char*>(header), sizeof(header));
  if (is.gcount() != sizeof(header)) return std::nullopt;
  if (std::memcmp(header, kMagic, 8) != 0) return std::nullopt;
  DumpDocument doc;
  doc.version = get_u32(header + 8);
  const std::uint32_t record_size = get_u32(header + 12);
  if (doc.version != kDumpVersion || record_size != kRecordSize) {
    return std::nullopt;
  }
  const std::uint64_t count = get_u64(header + 16);
  doc.dropped = get_u64(header + 24);
  const std::uint32_t table_len = get_u32(header + 32);
  const std::uint32_t table_count = get_u32(header + 36);
  // Bound the header's claim before allocating for it: each entry is a u16
  // length plus at most 65535 bytes.
  if (table_len > std::uint64_t{table_count} * (2 + 0xFFFF) ||
      table_len > kMaxNameTableBytes) {
    return std::nullopt;
  }
  std::vector<unsigned char> table(table_len);
  if (table_len > 0) {
    is.read(reinterpret_cast<char*>(table.data()), table_len);
    if (static_cast<std::uint32_t>(is.gcount()) != table_len) {
      return std::nullopt;
    }
  }
  std::size_t off = 0;
  for (std::uint32_t i = 0; i < table_count && off + 2 <= table_len; ++i) {
    const std::uint16_t len = get_u16(table.data() + off);
    off += 2;
    if (off + len > table_len) break;
    doc.streams.emplace_back(reinterpret_cast<const char*>(table.data()) + off,
                             len);
    off += len;
  }
  // Tolerate a truncated record stream: a crash may have cut the tail, and
  // the events that did land are exactly what a flight recorder is for.
  unsigned char rec[kRecordSize];
  for (std::uint64_t i = 0; count == kCountUntilEof || i < count; ++i) {
    is.read(reinterpret_cast<char*>(rec), sizeof(rec));
    if (is.gcount() != sizeof(rec)) break;
    doc.events.push_back(decode_record(rec));
  }
  return doc;
}

std::optional<DumpDocument> read_dump_file(const char* path) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) return std::nullopt;
  std::string bytes;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.append(buf, n);
  }
  std::fclose(f);
  // std::istringstream lives in <sstream>; keep the heavy include local.
  struct MemBuf : std::streambuf {
    explicit MemBuf(std::string& s) {
      setg(s.data(), s.data(), s.data() + s.size());
    }
  };
  MemBuf mem(bytes);
  std::istream is(&mem);
  return read_dump(is);
}

std::vector<CompletedSpan> completed_spans(
    const std::vector<DrainedEvent>& events) {
  constexpr auto kBegin = static_cast<std::uint16_t>(WideEventType::kSpanBegin);
  constexpr auto kEnd = static_cast<std::uint16_t>(WideEventType::kSpanEnd);
  std::map<std::uint64_t, std::size_t> open;  // span id -> begin index
  std::vector<CompletedSpan> spans;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const DrainedEvent& ev = events[i];
    if (ev.type == kBegin) {
      open.try_emplace(ev.a, i);
      continue;
    }
    if (ev.type != kEnd) continue;
    const auto it = open.find(ev.a);
    if (it == open.end() || events[it->second].stream != ev.stream) continue;
    const DrainedEvent& begin = events[it->second];
    CompletedSpan span;
    span.id = begin.a;
    span.parent = begin.c;
    span.arg = begin.b;
    span.begin_ns = begin.t_ns;
    span.end_ns = std::max(begin.t_ns, ev.t_ns);
    span.track = static_cast<std::uint32_t>(begin.d);
    span.stream = begin.stream;
    span.begin_index = it->second;
    span.end_index = i;
    spans.push_back(span);
    open.erase(it);
  }
  std::sort(spans.begin(), spans.end(),
            [](const CompletedSpan& x, const CompletedSpan& y) {
              return x.begin_index < y.begin_index;
            });
  return spans;
}

void write_recorder_trace_json(const DumpDocument& doc, std::ostream& os) {
  const auto name_of = [&doc](std::uint16_t stream) {
    if (stream < doc.streams.size()) return json_escape(doc.streams[stream]);
    return "stream#" + std::to_string(stream);
  };
  const std::vector<CompletedSpan> spans = completed_spans(doc.events);
  std::vector<char> paired_end(doc.events.size(), 0);
  for (const CompletedSpan& span : spans) paired_end[span.end_index] = 1;
  auto next_span = spans.begin();

  os << "{\"traceEvents\": [";
  bool first = true;
  for (std::size_t i = 0; i < doc.events.size(); ++i) {
    if (paired_end[i] != 0) continue;
    const DrainedEvent& ev = doc.events[i];
    os << (first ? "\n" : ",\n");
    first = false;
    if (next_span != spans.end() && next_span->begin_index == i) {
      const CompletedSpan& span = *next_span++;
      os << "  {\"name\": \"" << name_of(span.stream)
         << "\", \"cat\": \"span\", \"ph\": \"X\", \"ts\": "
         << fmt_double(us(span.begin_ns))
         << ", \"dur\": " << fmt_double(us(span.end_ns - span.begin_ns))
         << ", \"pid\": 1, \"tid\": " << span.track
         << ", \"args\": {\"id\": " << span.id << ", \"parent\": "
         << span.parent << ", \"arg\": " << span.arg << "}}";
    } else if (ev.type ==
               static_cast<std::uint16_t>(WideEventType::kAdmission)) {
      os << "  {\"name\": \"epsilon tenant " << ev.tenant
         << "\", \"cat\": \"admission\", \"ph\": \"C\", \"ts\": "
         << fmt_double(us(ev.t_ns))
         << ", \"pid\": 1, \"tid\": 0, \"args\": {\"epsilon\": "
         << fmt_payload_double(ev.d) << "}}";
    } else {
      os << "  {\"name\": \"" << name_of(ev.stream) << "\", \"cat\": \""
         << to_string(static_cast<WideEventType>(ev.type))
         << "\", \"ph\": \"i\", \"s\": \"t\", \"ts\": "
         << fmt_double(us(ev.t_ns)) << ", \"pid\": 1, \"tid\": " << ev.ring
         << ", \"args\": {\"a\": " << ev.a << ", \"b\": " << ev.b
         << ", \"c\": " << ev.c << ", \"d\": " << ev.d
         << ", \"tenant\": " << ev.tenant << ", \"seq\": " << ev.seq << "}}";
    }
  }
  os << (first ? "]" : "\n]") << ", \"displayTimeUnit\": \"ms\"}\n";
}

}  // namespace aegis::telemetry
