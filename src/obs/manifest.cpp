#include "obs/manifest.hpp"

#include <fstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace sgp::obs {

RunManifest::RunManifest(std::string tool) : tool_(std::move(tool)) {}

RunManifest::Section& RunManifest::section_of(const std::string& name) {
  for (auto& s : sections_) {
    if (s.name == name) return s;
  }
  sections_.push_back(Section{name, {}});
  return sections_.back();
}

void RunManifest::add(const std::string& section, const std::string& key,
                      const std::string& value) {
  section_of(section).entries.push_back(Entry{key, json_quote(value)});
}

void RunManifest::add(const std::string& section, const std::string& key,
                      const char* value) {
  add(section, key, std::string(value));
}

void RunManifest::add(const std::string& section, const std::string& key,
                      double value) {
  section_of(section).entries.push_back(Entry{key, json_number(value)});
}

void RunManifest::add(const std::string& section, const std::string& key,
                      std::uint64_t value) {
  section_of(section).entries.push_back(Entry{key, json_number(value)});
}

void RunManifest::add(const std::string& section, const std::string& key,
                      std::int64_t value) {
  const bool neg = value < 0;
  // Negate in unsigned space: -INT64_MIN overflows int64_t.
  const auto mag = neg ? ~static_cast<std::uint64_t>(value) + 1
                       : static_cast<std::uint64_t>(value);
  std::string text = neg ? "-" : "";
  text += json_number(mag);
  section_of(section).entries.push_back(Entry{key, std::move(text)});
}

void RunManifest::add(const std::string& section, const std::string& key,
                      bool value) {
  section_of(section).entries.push_back(
      Entry{key, value ? "true" : "false"});
}

std::string RunManifest::to_json(const MetricsSnapshot& metrics) const {
  std::string out = "{\n";
  out += "  \"schema\": \"sgp.run-manifest.v1\",\n";
  out += "  \"tool\": " + json_quote(tool_);
  for (const auto& s : sections_) {
    out += ",\n  " + json_quote(s.name) + ": {";
    bool first = true;
    for (const auto& e : s.entries) {
      out += first ? "\n" : ",\n";
      out += "    " + json_quote(e.key) + ": " + e.json_value;
      first = false;
    }
    out += first ? "}" : "\n  }";
  }
  out += ",\n  \"metrics\": " + Registry::to_json(metrics);
  out += "\n}\n";
  if (const auto err = json_error(out)) {
    throw std::logic_error("RunManifest produced invalid JSON: " + *err);
  }
  return out;
}

void RunManifest::write(const std::string& path,
                        const MetricsSnapshot& metrics) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("RunManifest: cannot open " + path);
  f << to_json(metrics);
  if (!f) throw std::runtime_error("RunManifest: write failed for " + path);
}

}  // namespace sgp::obs
