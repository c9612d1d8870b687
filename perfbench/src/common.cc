#include "common.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/json_writer.h"

namespace perfbench {

double NowSeconds() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

bool ResetPeakRss() {
  // Hand freed heap pages back first, so the new mark starts from what the
  // process still holds rather than from what malloc kept cached.
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

uint64_t LastLevelCacheBytes() {
  uint64_t best = 0;
  for (int index = 0; index < 8; ++index) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                     std::to_string(index) + "/size");
    std::string text;
    if (!(in >> text) || text.empty()) continue;
    uint64_t mult = 1;
    const char suffix = text.back();
    if (suffix == 'K') mult = 1024;
    if (suffix == 'M') mult = 1024 * 1024;
    const uint64_t n = std::strtoull(text.c_str(), nullptr, 10) * mult;
    best = std::max(best, n);
  }
  return best;
}

double RelDiff(double a, double b) {
  return std::fabs(a - b) / std::max(std::fabs(b), 1e-300);
}

Tracer::Scope::Scope(Tracer* tracer, const char* name)
    : tracer_(tracer), start_(NowSeconds()) {
  if (!tracer_->enabled_) return;
  Span span;
  span.id = static_cast<int>(tracer_->spans_.size());
  span.parent = tracer_->current_;
  span.name = name;
  span.start = start_;
  id_ = span.id;
  saved_parent_ = tracer_->current_;
  tracer_->current_ = id_;
  tracer_->spans_.push_back(std::move(span));
}

double Tracer::Scope::Stop() {
  if (seconds_ >= 0.0) return seconds_;
  const double end = NowSeconds();
  seconds_ = end - start_;
  if (id_ >= 0) {
    tracer_->spans_[static_cast<size_t>(id_)].end = end;
    tracer_->current_ = saved_parent_;
  }
  return seconds_;
}

double SpanCostSeconds() {
  constexpr int kSpans = 20000;
  Tracer probe(true, "probe");
  const double start = NowSeconds();
  for (int i = 0; i < kSpans; ++i) Tracer::Scope span(&probe, "probe");
  return (NowSeconds() - start) / kSpans;
}

double Tracer::InclusiveSeconds(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.end - s.start;
  }
  return total;
}

int64_t Tracer::Count(const std::string& name) const {
  int64_t n = 0;
  for (const Span& s : spans_) n += s.name == name ? 1 : 0;
  return n;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end - s.start);
  }
  return out;
}

haten2::Status Tracer::WriteJson(const std::string& path) const {
  haten2::JsonWriter w;
  w.BeginObject();
  w.Key("run_id").Value(run_id_);
  w.Key("spans").BeginArray();
  for (const Span& s : spans_) {
    w.BeginObject();
    w.Key("run").Value(run_id_);
    w.Key("id").Value(s.id);
    w.Key("parent").Value(s.parent);
    w.Key("name").Value(s.name);
    w.Key("start").Value(s.start);
    w.Key("end").Value(s.end);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return haten2::WriteTextFile(path, w.str());
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit, int64_t samples) {
  metrics_[name] = Metric{value, unit, samples};
}

bool Report::Attempt(bool ok, const std::string& what,
                     const std::string& detail) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::printf("FAILED %s%s%s\n", what.c_str(), detail.empty() ? "" : ": ",
                detail.c_str());
  }
  return ok;
}

void Report::RecordCounts(const std::map<std::string, double>& counts) {
  if (!has_counts_) {
    counts_ = counts;
    has_counts_ = true;
    return;
  }
  std::string drift;
  for (const auto& [name, value] : counts) {
    auto it = counts_.find(name);
    if (it == counts_.end() || it->second != value) {
      drift += " " + name;
    }
  }
  Attempt(drift.empty() && counts.size() == counts_.size(),
          "deterministic counts repeat within the run", "drift in" + drift);
}

void Report::Info(const std::string& key, const std::string& value) {
  info_[key] = value;
}

haten2::Status Report::WriteJson(const std::string& path) const {
  haten2::JsonWriter w;
  w.BeginObject();
  w.Key("attempted").Value(attempted_);
  w.Key("failed").Value(failed_);
  w.Key("metrics").BeginObject();
  for (const auto& [name, m] : metrics_) {
    w.Key(name).BeginObject();
    w.Key("value").Value(m.value);
    w.Key("unit").Value(m.unit);
    w.Key("samples").Value(m.samples);
    w.EndObject();
  }
  w.EndObject();
  w.Key("counts").BeginObject();
  for (const auto& [name, value] : counts_) w.Key(name).Value(value);
  w.EndObject();
  w.Key("info").BeginObject();
  for (const auto& [key, value] : info_) w.Key(key).Value(value);
  w.EndObject();
  w.EndObject();
  return haten2::WriteTextFile(path, w.str());
}

}  // namespace perfbench
