#include "util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void SpanLog::add(std::string name, std::uint64_t request, SteadyClock::time_point start,
                  double count) {
  const auto end = SteadyClock::now();
  Span s{std::move(name), request,
         std::chrono::duration<double, std::micro>(start - origin_).count(),
         std::chrono::duration<double, std::micro>(end - start).count(), count};
  std::lock_guard lock(mu_);
  spans_.push_back(std::move(s));
}

void SpanLog::add_us(std::string name, std::uint64_t request, double dur_us, double count) {
  Span s{std::move(name), request,
         std::chrono::duration<double, std::micro>(SteadyClock::now() - origin_).count() -
             dur_us,
         dur_us, count};
  std::lock_guard lock(mu_);
  spans_.push_back(std::move(s));
}

double SpanLog::total_us(const std::string& name) const {
  std::lock_guard lock(mu_);
  double sum = 0;
  for (const auto& s : spans_)
    if (s.name == name) sum += s.dur_us;
  return sum;
}

double SpanLog::total_count(const std::string& name) const {
  std::lock_guard lock(mu_);
  double sum = 0;
  for (const auto& s : spans_)
    if (s.name == name) sum += s.count;
  return sum;
}

std::vector<double> SpanLog::durations(const std::string& name) const {
  std::lock_guard lock(mu_);
  std::vector<double> out;
  for (const auto& s : spans_)
    if (s.name == name) out.push_back(s.dur_us);
  return out;
}

std::vector<double> SpanLog::counts(const std::string& name) const {
  std::lock_guard lock(mu_);
  std::vector<double> out;
  for (const auto& s : spans_)
    if (s.name == name) out.push_back(s.count);
  return out;
}

void SpanLog::write_json(const std::string& path) const {
  std::lock_guard lock(mu_);
  std::ofstream out(path);
  out << std::setprecision(12) << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\":\"" << s.name << "\",\"request\":" << s.request
        << ",\"start_us\":" << s.start_us << ",\"dur_us\":" << s.dur_us
        << ",\"count\":" << s.count << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

void PhaseResult::merge_missing(const PhaseResult& other) {
  for (const auto& [k, v] : other.e2e) e2e.emplace(k, v);
  for (const auto& [k, v] : other.layer) layer.emplace(k, v);
  attempted += other.attempted;
  failed += other.failed;
  errors.insert(errors.end(), other.errors.begin(), other.errors.end());
}

}  // namespace perfbench
