// In-memory span recorder for the traced run.
//
// A span is (name, start, end, parent, request id). Spans are kept in
// memory for the whole run and written out once at the end, so tracing
// costs two clock reads and one vector append per span. One Tracer per
// thread; Merge() folds the per-thread recorders into one before the
// aggregation and the write-out.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the parent span in the same recorder, -1 for a root.
  int64_t parent = -1;
  uint64_t request = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its id (-1 when tracing is off).
  int64_t Begin(const char* name, int64_t parent = -1, uint64_t request = 0);
  void End(int64_t id);
  /// Records a span whose interval the caller measured already.
  int64_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int64_t parent = -1, uint64_t request = 0);

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, int64_t parent = -1,
          uint64_t request = 0)
        : tracer_(tracer), id_(tracer.Begin(name, parent, request)) {}
    ~Scope() { tracer_.End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int64_t id() const { return id_; }

   private:
    Tracer& tracer_;
    int64_t id_;
  };

  /// Appends another recorder's spans (parent ids re-based).
  void Merge(const Tracer& other);

  struct Totals {
    uint64_t count = 0;
    double total_ns = 0;
    /// Duration minus the part of it covered by child spans.
    double self_ns = 0;
  };
  /// Per span name: count, total and self time.
  std::map<std::string, Totals> Aggregate() const;

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes the spans as a JSON array; false when the file cannot be
  /// written.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
