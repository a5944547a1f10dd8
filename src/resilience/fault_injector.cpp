#include "resilience/fault_injector.hpp"

#include <functional>
#include <stdexcept>

namespace sgp::resilience {

namespace {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t next = text.find(sep, pos);
    if (next == std::string_view::npos) {
      out.emplace_back(text.substr(pos));
      break;
    }
    out.emplace_back(text.substr(pos, next - pos));
    pos = next + 1;
  }
  return out;
}

double parse_number(const std::string& text, const char* what) {
  try {
    std::size_t used = 0;
    const double v = std::stod(text, &used);
    if (used != text.size()) throw std::invalid_argument(text);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument(std::string("FaultPlan: bad ") + what +
                                " '" + text + "'");
  }
}

int parse_triggers(const std::string& text) {
  const double v = parse_number(text, "trigger count");
  const int n = static_cast<int>(v);
  if (v != n || n < 1) {
    throw std::invalid_argument("FaultPlan: trigger count must be a "
                                "positive integer, got '" + text + "'");
  }
  return n;
}

}  // namespace

void FaultPlan::add(FaultSpec spec) {
  if (spec.site.empty()) {
    throw std::invalid_argument("FaultPlan: empty site name");
  }
  if (spec.kind == FaultKind::None) {
    throw std::invalid_argument("FaultPlan: spec for '" + spec.site +
                                "' has no fault kind");
  }
  if (spec.probability <= 0.0 || spec.probability > 1.0) {
    throw std::invalid_argument("FaultPlan: probability for '" +
                                spec.site + "' must be in (0, 1]");
  }
  if (spec.max_triggers == 0 || spec.max_triggers < -1) {
    throw std::invalid_argument("FaultPlan: max_triggers for '" +
                                spec.site + "' must be -1 or >= 1");
  }
  specs_.push_back(std::move(spec));
}

FaultPlan FaultPlan::parse(std::string_view text) {
  FaultPlan plan;
  for (const auto& entry : split(text, ',')) {
    if (entry.empty()) continue;
    const auto fields = split(entry, ':');
    if (fields.size() < 2) {
      throw std::invalid_argument("FaultPlan: expected 'site:kind', got '" +
                                  entry + "'");
    }
    FaultSpec spec;
    spec.site = fields[0];

    // The kind token may carry an '@probability' suffix.
    std::string kind = fields[1];
    const auto at = kind.find('@');
    if (at != std::string::npos) {
      spec.probability = parse_number(kind.substr(at + 1), "probability");
      kind = kind.substr(0, at);
    }

    if (kind == "torn") {
      spec.kind = FaultKind::TornWrite;
    } else if (kind == "enospc") {
      spec.kind = FaultKind::NoSpace;
    } else if (kind == "bitflip") {
      spec.kind = FaultKind::BitFlipRead;
    } else if (kind == "renamefail") {
      spec.kind = FaultKind::RenameFail;
    } else {
      throw std::invalid_argument(
          "FaultPlan: unknown fault kind '" + kind +
          "' (torn | enospc | bitflip | renamefail)");
    }
    if (fields.size() > 3) {
      throw std::invalid_argument("FaultPlan: trailing fields in '" + entry +
                                  "'");
    }
    if (fields.size() == 3) spec.max_triggers = parse_triggers(fields[2]);
    plan.add(std::move(spec));
  }
  return plan;
}

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t seed) {
  // Fold the 64-bit seed into the mt19937's 32-bit state; seeds below
  // 2^32 fold to themselves, preserving historical fault sequences.
  const unsigned folded = static_cast<unsigned>(seed ^ (seed >> 32));
  for (auto& spec : plan.specs()) {
    State st;
    st.spec = spec;
    st.remaining = spec.max_triggers;
    // Per-site stream: the same plan + seed always faults the same
    // operations regardless of other sites' draws.
    st.rng.seed(folded ^ static_cast<unsigned>(
                             std::hash<std::string>{}(spec.site)));
    states_.push_back(std::move(st));
  }
}

ArmedFault FaultInjector::arm(std::string_view site) {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& st : states_) {
    if (st.spec.site != site && st.spec.site != "*") continue;
    if (st.remaining == 0) continue;
    if (st.spec.probability < 1.0) {
      std::bernoulli_distribution fire(st.spec.probability);
      if (!fire(st.rng)) continue;
    }
    if (st.remaining > 0) --st.remaining;
    ++st.armed;
    std::uint64_t entropy = 0;
    if (st.spec.kind == FaultKind::TornWrite ||
        st.spec.kind == FaultKind::BitFlipRead) {
      // Two 32-bit draws keep the position/length deterministic for a
      // given (plan, seed) regardless of how other specs drew.
      entropy = (static_cast<std::uint64_t>(st.rng()) << 32) | st.rng();
    }
    return ArmedFault{st.spec.kind, entropy};
  }
  return ArmedFault{};
}

int FaultInjector::armed_count(std::string_view site) const {
  std::lock_guard<std::mutex> lk(mu_);
  int n = 0;
  for (const auto& st : states_) {
    if (st.spec.site == site || st.spec.site == "*") n += st.armed;
  }
  return n;
}

}  // namespace sgp::resilience
