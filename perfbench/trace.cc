#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t index = next.fetch_add(1);
  return index;
}

std::string_view Trace::Intern(std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& n : names_) {
    if (n == name) return n;
  }
  names_.push_back(std::move(name));
  return names_.back();
}

void Trace::Append(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

void Trace::Append(const std::vector<Span>& spans) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.insert(spans_.end(), spans.begin(), spans.end());
}

std::vector<Span> Trace::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, double> Trace::SelfSeconds() const {
  const std::vector<Span> all = spans();
  std::unordered_map<uint64_t, std::vector<size_t>> children;
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i].parent != 0) children[all[i].parent].push_back(i);
  }

  std::vector<std::string_view> names;
  std::unordered_map<std::string_view, size_t> name_index;
  struct Event {
    int64_t t;
    int delta;
    size_t name;
  };
  std::vector<Event> events;
  auto emit = [&](int64_t begin, int64_t end, size_t name) {
    if (end <= begin) return;
    events.push_back({begin, +1, name});
    events.push_back({end, -1, name});
  };

  // Self intervals: each span's interval minus the union of its children.
  std::vector<std::pair<int64_t, int64_t>> kids;
  for (const Span& s : all) {
    auto [it, inserted] = name_index.try_emplace(s.name, names.size());
    if (inserted) names.push_back(s.name);
    kids.clear();
    if (auto c = children.find(s.id); c != children.end()) {
      for (size_t k : c->second) {
        kids.emplace_back(std::max(all[k].start_ns, s.start_ns),
                          std::min(all[k].end_ns, s.end_ns));
      }
    }
    std::sort(kids.begin(), kids.end());
    int64_t cursor = s.start_ns;
    for (const auto& [b, e] : kids) {
      if (b > cursor) emit(cursor, b, it->second);
      cursor = std::max(cursor, e);
    }
    emit(cursor, s.end_ns, it->second);
  }

  // Sweep: every instant is shared equally among the self intervals
  // active then.
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.t < b.t; });
  std::vector<int> active(names.size(), 0);
  std::vector<double> share(names.size(), 0.0);
  int total = 0;
  int64_t prev = events.empty() ? 0 : events.front().t;
  for (const Event& e : events) {
    if (total > 0 && e.t > prev) {
      const double dt = static_cast<double>(e.t - prev) * 1e-9;
      for (size_t n = 0; n < names.size(); ++n) {
        if (active[n] > 0) share[n] += dt * active[n] / total;
      }
    }
    active[e.name] += e.delta;
    total += e.delta;
    prev = e.t;
  }

  std::map<std::string, double> out;
  for (size_t n = 0; n < names.size(); ++n) {
    out[std::string(names[n])] += share[n];
  }
  return out;
}

bool Trace::WriteChromeJson(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = 0;
  if (!all.empty()) {
    origin = std::min_element(all.begin(), all.end(),
                              [](const Span& a, const Span& b) {
                                return a.start_ns < b.start_ns;
                              })
                 ->start_ns;
  }
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "{\"name\":\"%.*s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"query\":%lld}}%s\n",
                 static_cast<int>(s.name.size()), s.name.data(), s.thread,
                 static_cast<double>(s.start_ns - origin) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<long long>(s.query),
                 i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
