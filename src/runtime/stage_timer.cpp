#include "waldo/runtime/stage_timer.hpp"

#include <cstdio>

namespace waldo::runtime {

void StageTimer::record(const std::string& name, double seconds,
                        std::uint64_t items) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Stage& stage = stages_[name];
  stage.seconds += seconds;
  stage.calls += 1;
  stage.items += items;
}

std::map<std::string, StageTimer::Stage> StageTimer::stages() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stages_;
}

std::string StageTimer::report() const {
  const auto snapshot = stages();
  if (snapshot.empty()) return {};
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-28s %10s %8s %12s\n", "stage",
                "seconds", "calls", "items");
  out += line;
  for (const auto& [name, stage] : snapshot) {
    std::snprintf(line, sizeof(line), "%-28s %10.3f %8llu %12llu\n",
                  name.c_str(), stage.seconds,
                  static_cast<unsigned long long>(stage.calls),
                  static_cast<unsigned long long>(stage.items));
    out += line;
  }
  return out;
}

StageTimer& StageTimer::global() {
  static StageTimer timer;
  return timer;
}

}  // namespace waldo::runtime
