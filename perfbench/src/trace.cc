#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

int64_t Tracer::Begin(const char* name, int64_t parent, uint64_t request) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, NowNs(), 0, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
}

int64_t Tracer::Add(const char* name, int64_t start_ns, int64_t end_ns,
                    int64_t parent, uint64_t request) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::Merge(const Tracer& other) {
  const int64_t base = static_cast<int64_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(std::move(s));
  }
}

std::map<std::string, Tracer::Totals> Tracer::Aggregate() const {
  // Child spans of one parent do not overlap (each recorder is one
  // thread), so the covered part is the sum of child durations.
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, Totals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Totals& t = out[s.name];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    ++t.count;
    t.total_ns += dur;
    t.self_ns += std::max(0.0, dur - child_ns[i]);
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%lld,\"request\":%llu}%s\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 i + 1 == spans_.size() ? "" : ",");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
