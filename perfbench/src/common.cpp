#include "common.hpp"

#include <malloc.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (!what.empty() && errors.size() < 8) errors.push_back(what);
}

void Report::note(std::string name, double value, std::string unit,
                  std::string n) {
  table.push_back({std::move(name), value, std::move(unit), std::move(n)});
}

void Report::layer(std::string name, double value, std::string unit,
                   std::string n) {
  layers.push_back({std::move(name), value, std::move(unit), std::move(n)});
}

double peak_rss_mb() {
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

void reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  if (!out) throw std::runtime_error("cannot reset VmHWM via /proc/self/clear_refs");
}

Snapshot Snapshot::take() { return Snapshot{obs::registry().snapshot()}; }

std::uint64_t Snapshot::counter(const std::string& name) const {
  return snap.counter_or(name, 0);
}

std::map<std::uint64_t, std::uint64_t> Snapshot::histogram(
    const std::string& name) const {
  std::map<std::uint64_t, std::uint64_t> out;
  for (const auto& h : snap.histograms) {
    if (h.name != name) continue;
    for (const auto& [floor, count] : h.buckets) out[floor] = count;
  }
  return out;
}

std::pair<std::uint64_t, std::uint64_t> Snapshot::histogram_count_sum(
    const std::string& name) const {
  for (const auto& h : snap.histograms) {
    if (h.name == name) return {h.count, h.sum};
  }
  return {0, 0};
}

BucketBound bucket_quantile(
    const std::map<std::uint64_t, std::uint64_t>& buckets, double q) {
  BucketBound out;
  for (const auto& [floor, count] : buckets) out.samples += count;
  if (out.samples == 0) return out;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(out.samples))));
  std::uint64_t seen = 0;
  for (const auto& [floor, count] : buckets) {
    seen += count;
    if (seen >= rank) {
      out.lo = floor;
      out.hi = floor == 0 ? 1 : floor * 2;
      break;
    }
  }
  return out;
}

std::string fmt_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void fresh_dir(const std::string& path) {
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
}

std::size_t segment_files(const std::string& dir) {
  std::size_t n = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".sgpc") ++n;
  }
  return n;
}

}  // namespace perfbench
