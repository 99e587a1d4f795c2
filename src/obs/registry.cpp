#include "obs/registry.hpp"

#include <cstdio>
#include <map>
#include <sstream>

namespace svsim::obs {

Registry& Registry::global() {
  static Registry r;
  return r;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
}

std::vector<std::pair<std::string, std::uint64_t>> Registry::counter_values() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c->value());
  return out;
}

std::vector<std::pair<std::string, double>> Registry::gauge_values() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.emplace_back(name, g->value());
  return out;
}

namespace {

/// Prometheus metric names allow [a-zA-Z0-9_:]; map the registry's dotted
/// names ("runs.single") onto underscores.
std::string prom_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// Prometheus label-value escaping: backslash, double quote, and newline
/// must be escaped inside `label="..."`.
std::string prom_label_escape(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

} // namespace

std::string Registry::write_prom() const {
  // Exposition-format conformance: `# HELP`/`# TYPE` exactly once per
  // metric family. Distinct registry names that sanitize to the same
  // family ("a.b" and "a_b") therefore share one header and carry a
  // `name="<original>"` label to keep their samples distinct; a family
  // with a single source keeps the plain unlabeled form.
  std::ostringstream os;
  std::map<std::string, std::vector<std::pair<std::string, std::uint64_t>>>
      counter_fams;
  for (const auto& [name, v] : counter_values()) {
    counter_fams["svsim_" + prom_name(name) + "_total"].emplace_back(name, v);
  }
  for (const auto& [m, members] : counter_fams) {
    os << "# HELP " << m << " svsim cumulative counter\n";
    os << "# TYPE " << m << " counter\n";
    for (const auto& [name, v] : members) {
      os << m;
      if (members.size() > 1) {
        os << "{name=\"" << prom_label_escape(name) << "\"}";
      }
      os << ' ' << v << '\n';
    }
  }
  char buf[64];
  std::map<std::string, std::vector<std::pair<std::string, double>>>
      gauge_fams;
  for (const auto& [name, v] : gauge_values()) {
    gauge_fams["svsim_" + prom_name(name)].emplace_back(name, v);
  }
  for (const auto& [m, members] : gauge_fams) {
    os << "# HELP " << m << " svsim instantaneous gauge\n";
    os << "# TYPE " << m << " gauge\n";
    for (const auto& [name, v] : members) {
      os << m;
      if (members.size() > 1) {
        os << "{name=\"" << prom_label_escape(name) << "\"}";
      }
      std::snprintf(buf, sizeof(buf), "%.9g", v);
      os << ' ' << buf << '\n';
    }
  }
  return os.str();
}

} // namespace svsim::obs
