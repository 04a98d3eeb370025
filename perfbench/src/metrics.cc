#include "perfbench/src/metrics.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0;
  }
  double sum = 0;
  for (double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

double CurrentRssMb() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0;
  }
  unsigned long long size = 0, resident = 0;
  int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (n != 2) {
    return 0;
  }
  return static_cast<double>(resident) * static_cast<double>(::sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

double HeapInUseMb() {
  struct mallinfo2 info = ::mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

std::map<std::string, SpanGroup> GroupSpans(const std::vector<Span>& spans,
                                            const std::vector<std::string>& names,
                                            uint64_t start_ns, uint64_t end_ns) {
  std::map<std::string, SpanGroup> out;
  for (const Span& s : spans) {
    if (s.end_ns < start_ns || s.end_ns > end_ns || s.name >= names.size()) {
      continue;
    }
    SpanGroup& g = out[names[s.name]];
    g.ms.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    g.items += s.items;
    g.bytes += s.bytes;
  }
  return out;
}

void Report::Add(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) {
    value = 0;
  }
  entries_.push_back({name, value, unit});
}

void Report::Print() const {
  for (const Entry& e : entries_) {
    std::printf("  %-40s %14.6g %s\n", e.name.c_str(), e.value, e.unit.c_str());
  }
}

std::string Report::Json(bool correct, uint64_t attempted, uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    std::snprintf(buf, sizeof(buf), "%.17g", e.value);
    out += (i == 0 ? "\"" : ", \"") + e.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           e.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
