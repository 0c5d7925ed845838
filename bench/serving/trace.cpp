#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <string_view>
#include <utility>

namespace serving {

std::vector<std::uint64_t> self_times(std::span<const Span> spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int32_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < i) {
      children[static_cast<std::size_t>(p)].emplace_back(spans[i].start_ns,
                                                         spans[i].end_ns);
    }
  }
  std::vector<std::uint64_t> out(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    std::uint64_t covered = 0;
    std::uint64_t cursor = s.start_ns;
    for (const auto& [begin, end] : kids) {
      const std::uint64_t lo = std::max(begin, cursor);
      const std::uint64_t hi = std::min(end, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    const std::uint64_t duration = s.duration_ns();
    out[i] = duration > covered ? duration - covered : 0;
  }
  return out;
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

std::uint64_t Tracer::now_ns() const noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

Tracer::ThreadLog& Tracer::local() {
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    auto fresh = std::make_unique<ThreadLog>();
    fresh->spans.reserve(1 << 16);
    log = fresh.get();
    const std::lock_guard lock(logs_mutex_);
    logs_.push_back(std::move(fresh));
  }
  return *log;
}

std::int32_t Tracer::open(const char* name, std::uint32_t node) {
  if (!enabled() && local().stack.empty()) return -1;
  ThreadLog& log = local();
  Span span;
  span.name = name;
  span.parent = log.stack.empty() ? -1 : log.stack.back();
  span.node = node;
  span.request_id = log.request_id;
  span.start_ns = now_ns();
  const auto index = static_cast<std::int32_t>(log.spans.size());
  log.spans.push_back(span);
  log.stack.push_back(index);
  return index;
}

void Tracer::close(std::int32_t index) {
  if (index < 0) return;
  ThreadLog& log = local();
  log.spans[static_cast<std::size_t>(index)].end_ns = now_ns();
  // Spans close in LIFO order on one thread; pop through `index` so an
  // exception that skipped an inner close cannot leave the stack skewed.
  while (!log.stack.empty()) {
    const std::int32_t top = log.stack.back();
    log.stack.pop_back();
    if (top == index) break;
  }
}

void Tracer::record(const char* name, std::uint64_t start_ns,
                    std::uint64_t end_ns) {
  if (!enabled()) return;
  ThreadLog& log = local();
  Span span;
  span.name = name;
  span.request_id = log.request_id;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  log.spans.push_back(span);
}

std::vector<const Tracer::ThreadLog*> Tracer::logs() const {
  const std::lock_guard lock(logs_mutex_);
  std::vector<const ThreadLog*> out;
  out.reserve(logs_.size());
  for (const auto& log : logs_) out.push_back(log.get());
  return out;
}

bool Tracer::write_csv(const std::string& path, std::size_t max_spans) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread,index,parent,name,node,request_id,start_ns,end_ns\n");
  std::size_t written = 0;
  const auto all = logs();
  for (std::size_t t = 0; t < all.size() && written < max_spans; ++t) {
    const auto& spans = all[t]->spans;
    for (std::size_t i = 0; i < spans.size() && written < max_spans;
         ++i, ++written) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu,%zu,%d,%s,%u,%llu,%llu,%llu\n", t, i, s.parent,
                   s.name, s.node, static_cast<unsigned long long>(s.request_id),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

const char* envelope_verb(const std::string& envelope) noexcept {
  // "CLSTR/1 <verb> ..." — the verb set is closed, so match known names
  // and hand back static strings the spans can keep.
  constexpr std::string_view kMagic = "CLSTR/1 ";
  const std::string_view wire(envelope);
  if (wire.substr(0, kMagic.size()) != kMagic) return "?";
  const std::string_view rest = wire.substr(kMagic.size());
  for (const char* verb : {"wsnp", "repl", "pull", "ingest", "state", "ok"}) {
    const std::string_view v(verb);
    if (rest.size() > v.size() && rest.substr(0, v.size()) == v &&
        rest[v.size()] == ' ') {
      return verb;
    }
  }
  return "?";
}

namespace {
thread_local waldo::cluster::NodeId t_last_wsnp_target = 0;
}  // namespace

waldo::cluster::NodeId last_wsnp_target() noexcept {
  return t_last_wsnp_target;
}

std::string TimingTransport::send(waldo::cluster::NodeId to,
                                  const std::string& envelope) {
  const char* verb = envelope_verb(envelope);
  if (verb[0] == 'w') t_last_wsnp_target = to;
  const ScopedSpan span(verb, to);
  return inner_->send(to, envelope);
}

}  // namespace serving
