// Run manifests: one JSON per bench/CLI invocation stamping what ran,
// on what, with what configuration and what it counted — the file a
// later analysis (or a CI diff) joins against the CSV artifacts
// written next to it.
//
// The writer is deliberately generic: sections of typed key/value
// pairs plus an embedded metrics snapshot. Where the time went is the
// trace's job (--trace, the phase:<name> spans), not the manifest's. The
// callers (bench_common, suite_cli) decide the vocabulary — machine
// fingerprints, engine counters, argv — so this layer depends on
// nothing above std.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace sgp::obs {

class RunManifest {
 public:
  explicit RunManifest(std::string tool);

  /// Adds one key under `section` (sections render as nested JSON
  /// objects, keys in insertion order). Re-adding a key appends — the
  /// writer does not deduplicate, and to_json's self-check then
  /// rejects the duplicate key, so callers add each key once.
  void add(const std::string& section, const std::string& key,
           const std::string& value);
  void add(const std::string& section, const std::string& key,
           const char* value);
  void add(const std::string& section, const std::string& key,
           double value);
  void add(const std::string& section, const std::string& key,
           std::uint64_t value);
  void add(const std::string& section, const std::string& key,
           std::int64_t value);
  void add(const std::string& section, const std::string& key,
           bool value);

  /// The complete manifest as a JSON object, embedding `metrics`.
  /// Guaranteed well-formed: the renderer self-checks with json_error
  /// and throws std::logic_error if it ever produced invalid JSON.
  std::string to_json(const MetricsSnapshot& metrics) const;

  /// Renders and writes; throws std::runtime_error on I/O failure.
  void write(const std::string& path,
             const MetricsSnapshot& metrics) const;

 private:
  struct Entry {
    std::string key;
    std::string json_value;  ///< pre-rendered JSON token
  };
  struct Section {
    std::string name;
    std::vector<Entry> entries;
  };

  Section& section_of(const std::string& name);

  std::string tool_;
  std::vector<Section> sections_;  ///< insertion order
};

}  // namespace sgp::obs
