// Small statistics and reporting helpers for the benchmark binary.
#ifndef PERFBENCH_SRC_METRICS_H_
#define PERFBENCH_SRC_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/timed_stores.h"

namespace perfbench {

// Quantile with linear interpolation between closest ranks; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

// Resident set size of this process right now, in MB (0 if unreadable).
double CurrentRssMb();
// Bytes the allocator has handed out and not had back, in MB. Unlike RSS it
// does not include free memory glibc's arenas keep, which made RSS differ by
// up to 70% between identical runs.
double HeapInUseMb();

// Spans whose end falls inside [start_ns, end_ns], grouped by name.
struct SpanGroup {
  std::vector<double> ms;  // durations
  uint64_t items = 0;
  uint64_t bytes = 0;
  size_t calls() const { return ms.size(); }
};
std::map<std::string, SpanGroup> GroupSpans(const std::vector<Span>& spans,
                                            const std::vector<std::string>& names,
                                            uint64_t start_ns, uint64_t end_ns);

// Ordered name -> (value, unit) list that renders as the result line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  // Human-readable "name value unit" lines.
  void Print() const;
  // The result object: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
  std::string Json(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_METRICS_H_
