#include "obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

#include "common/logging.hpp"
#include "obs/metrics.hpp"

namespace swraman::obs {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string attrs_json(const std::vector<Attr>& attrs) {
  std::string out;
  out += '{';
  bool first = true;
  for (const Attr& a : attrs) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(a.key);
    out += "\":";
    if (a.numeric) {
      out += json_num(a.num);
    } else {
      out += '"';
      out += json_escape(a.str);
      out += '"';
    }
  }
  out += '}';
  return out;
}

std::vector<PhaseNode> aggregate_phases(
    const std::vector<SpanRecord>& spans) {
  std::map<std::string, PhaseNode> by_path;
  std::set<std::pair<std::string, std::uint32_t>> path_on_tid;
  for (const SpanRecord& s : spans) {
    path_on_tid.emplace(s.path, s.tid);
    PhaseNode& node = by_path[s.path];
    if (node.count == 0) {
      node.path = s.path;
      node.name = s.name;
      node.depth = s.depth;
      node.first_start_ns = s.start_ns;
    }
    node.first_start_ns = std::min(node.first_start_ns, s.start_ns);
    ++node.count;
    node.wall_s += 1e-9 * static_cast<double>(s.dur_ns);
    for (const Attr& a : s.attrs) {
      if (a.numeric) node.attr_sums[a.key] += a.num;
    }
  }

  // Self time: wall minus the wall of direct children that ran on the
  // parent's thread. A child span whose thread never opened its parent's
  // path was forked off to another thread; it overlaps the parent instead
  // of nesting inside its time.
  std::map<std::string, double> nested_wall_s;  // by child path
  for (const SpanRecord& s : spans) {
    const std::size_t cut = s.path.rfind('/');
    if (cut != std::string::npos &&
        path_on_tid.count({s.path.substr(0, cut), s.tid}) != 0) {
      nested_wall_s[s.path] += 1e-9 * static_cast<double>(s.dur_ns);
    }
  }
  for (auto& [path, node] : by_path) node.self_s = node.wall_s;
  for (const auto& [path, wall_s] : nested_wall_s) {
    const auto parent = by_path.find(path.substr(0, path.rfind('/')));
    if (parent != by_path.end()) parent->second.self_s -= wall_s;
  }

  // Depth-first order: children follow their parent, siblings by first
  // occurrence — the pipeline order a reader expects (relax, SCF, DFPT...).
  std::map<std::string, std::vector<const PhaseNode*>> children;
  std::vector<const PhaseNode*> roots;
  for (const auto& [path, node] : by_path) {
    const std::size_t cut = path.rfind('/');
    const std::string parent =
        cut == std::string::npos ? std::string() : path.substr(0, cut);
    if (!parent.empty() && by_path.count(parent) != 0) {
      children[parent].push_back(&node);
    } else {
      roots.push_back(&node);
    }
  }
  const auto by_start = [](const PhaseNode* a, const PhaseNode* b) {
    return a->first_start_ns < b->first_start_ns;
  };
  std::sort(roots.begin(), roots.end(), by_start);
  for (auto& [parent, list] : children) {
    std::sort(list.begin(), list.end(), by_start);
  }

  std::vector<PhaseNode> out;
  out.reserve(by_path.size());
  std::vector<const PhaseNode*> work(roots.rbegin(), roots.rend());
  while (!work.empty()) {
    const PhaseNode* node = work.back();
    work.pop_back();
    out.push_back(*node);
    const auto it = children.find(node->path);
    if (it != children.end()) {
      for (auto c = it->second.rbegin(); c != it->second.rend(); ++c) {
        work.push_back(*c);
      }
    }
  }
  return out;
}

std::string chrome_trace_json(const std::vector<SpanRecord>& spans) {
  std::string out;
  out.reserve(spans.size() * 128 + 64);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& s : spans) {
    if (!first) out += ',';
    first = false;
    char buf[96];
    out += "{\"name\":\"";
    out += json_escape(s.name);
    out += "\",\"cat\":\"swraman\",\"ph\":\"";
    out += s.instant ? "i" : "X";
    out += '"';
    if (s.instant) out += ",\"s\":\"t\"";
    std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f", 1e-3 * static_cast<double>(s.start_ns));
    out += buf;
    if (!s.instant) {
      std::snprintf(buf, sizeof(buf), ",\"dur\":%.3f",
                    1e-3 * static_cast<double>(s.dur_ns));
      out += buf;
    }
    std::snprintf(buf, sizeof(buf), ",\"pid\":1,\"tid\":%u,\"args\":",
                  s.tid);
    out += buf;
    out += attrs_json(s.attrs);
    out += '}';
  }
  out += "]}\n";
  return out;
}

std::string perf_report_json(const std::vector<SpanRecord>& spans,
                             double total_wall_s) {
  const std::vector<PhaseNode> phases = aggregate_phases(spans);
  Registry& reg = Registry::instance();

  std::string out;
  out.reserve(phases.size() * 160 + 512);
  out += "{\n  \"schema\": \"swraman-perf-v1\",\n";
  out += "  \"generated\": \"" + json_escape(log::timestamp_utc_now()) +
         "\",\n";
  out += "  \"total_wall_s\": " + json_num(total_wall_s) + ",\n";
  out += "  \"spans\": " + std::to_string(spans.size()) + ",\n";
  out += "  \"spans_dropped\": " + std::to_string(dropped()) + ",\n";

  out += "  \"phases\": [\n";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseNode& p = phases[i];
    out += "    {\"path\": \"" + json_escape(p.path) + "\", \"name\": \"" +
           json_escape(p.name) + "\", \"depth\": " +
           std::to_string(p.depth) + ", \"count\": " +
           std::to_string(p.count) + ", \"wall_s\": " + json_num(p.wall_s) +
           ", \"self_s\": " + json_num(p.self_s) + ", \"attrs\": {";
    bool first = true;
    for (const auto& [key, v] : p.attr_sums) {
      if (!first) out += ", ";
      first = false;
      out += '"';
      out += json_escape(key);
      out += "\": ";
      out += json_num(v);
    }
    out += "}}";
    out += (i + 1 < phases.size()) ? ",\n" : "\n";
  }
  out += "  ],\n";

  out += "  \"metrics\": {\n    \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : reg.counter_values()) {
    out += first ? "" : ", ";
    first = false;
    out += '"';
    out += json_escape(name);
    out += "\": ";
    out += json_num(v);
  }
  out += "},\n    \"gauges\": {";
  first = true;
  for (const auto& [name, v] : reg.gauge_values()) {
    out += first ? "" : ", ";
    first = false;
    out += '"';
    out += json_escape(name);
    out += "\": ";
    out += json_num(v);
  }
  out += "},\n    \"histograms\": {";
  first = true;
  for (const auto& [name, h] : reg.histogram_values()) {
    out += first ? "" : ", ";
    first = false;
    out += '"';
    out += json_escape(name);
    out += "\": {\"count\": ";
    out += std::to_string(h.count);
    out += ", \"sum\": ";
    out += json_num(h.sum);
    out += ", \"min\": ";
    out += json_num(h.min);
    out += ", \"max\": ";
    out += json_num(h.max);
    out += ", \"mean\": ";
    out += json_num(h.mean());
    out += ", \"p50\": ";
    out += json_num(quantile(h, 0.50));
    out += ", \"p95\": ";
    out += json_num(quantile(h, 0.95));
    out += ", \"p99\": ";
    out += json_num(quantile(h, 0.99));
    out += '}';
  }
  out += "}\n  }\n}\n";
  return out;
}

std::string phase_tree_text(const std::vector<PhaseNode>& phases) {
  std::ostringstream os;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%-52s %12s %12s %10s", "phase",
                "wall (s)", "self (s)", "count");
  os << buf << '\n';
  for (const PhaseNode& p : phases) {
    std::string label(static_cast<std::size_t>(2) * p.depth, ' ');
    label += p.name;
    if (label.size() > 52) label.resize(52);
    std::snprintf(buf, sizeof(buf), "%-52s %12.4f %12.4f %10llu",
                  label.c_str(), p.wall_s, p.self_s,
                  static_cast<unsigned long long>(p.count));
    os << buf << '\n';
  }
  return os.str();
}

void log_phase_tree() {
  const std::string text = phase_tree_text(aggregate_phases(snapshot()));
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) log::info("obs: ", line);
}

bool write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    log::warn("obs: cannot open ", path, " for writing");
    return false;
  }
  out << content;
  out.flush();
  if (!out) {
    log::warn("obs: write to ", path, " failed");
    return false;
  }
  return true;
}

void write_env_reports() {
  const auto path_from_env = [](const char* var, const char* fallback) {
    const char* v = std::getenv(var);
    return std::string(v != nullptr ? v : fallback);
  };
  const std::vector<SpanRecord> spans = snapshot();
  const std::string trace_path =
      path_from_env("SWRAMAN_TRACE_FILE", "swraman_trace.json");
  if (!trace_path.empty() &&
      write_text_file(trace_path, chrome_trace_json(spans))) {
    log::info("obs: wrote ", spans.size(), " spans to ", trace_path);
  }
  const std::string perf_path =
      path_from_env("SWRAMAN_PERF_FILE", "swraman_perf.json");
  if (!perf_path.empty() &&
      write_text_file(
          perf_path,
          perf_report_json(spans, 1e-9 * static_cast<double>(now_ns())))) {
    log::info("obs: wrote perf report to ", perf_path);
  }
  if (!spans.empty()) log_phase_tree();
}

}  // namespace swraman::obs
