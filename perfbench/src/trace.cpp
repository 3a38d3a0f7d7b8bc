#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

std::string layer_of(const char* name) {
  const std::string s(name);
  const auto dot = s.find('.');
  return dot == std::string::npos ? s : s.substr(0, dot);
}

}  // namespace

std::map<std::string, double> Tracer::self_time_by_layer(
    const std::string& under) const {
  auto record = [this](SpanId id) -> const SpanRecord& {
    return buffers_[static_cast<std::size_t>(id >> 32)]
        .spans()[static_cast<std::size_t>(id & 0xffffffffu)];
  };
  auto is_below = [&](const SpanRecord& r) {
    for (SpanId p = r.parent; p != kNoSpan; p = record(p).parent) {
      if (under == record(p).name) return true;
    }
    return false;
  };
  // Children's intervals per parent span.
  std::unordered_map<SpanId, std::vector<std::pair<std::uint64_t,
                                                   std::uint64_t>>>
      children;
  for (const TraceBuffer& b : buffers_) {
    for (const SpanRecord& r : b.spans()) {
      if (r.parent != kNoSpan) {
        children[r.parent].emplace_back(r.start_ns, r.end_ns);
      }
    }
  }
  std::map<std::string, double> self;
  std::uint32_t bi = 0;
  for (const TraceBuffer& b : buffers_) {
    for (std::size_t i = 0; i < b.spans().size(); ++i) {
      const SpanRecord& r = b.spans()[i];
      if (!under.empty() && !is_below(r)) continue;
      std::uint64_t covered = 0;
      auto it = children.find((SpanId{bi} << 32) | i);
      if (it != children.end()) {
        auto& iv = it->second;
        std::sort(iv.begin(), iv.end());
        std::uint64_t lo = 0;
        std::uint64_t hi = 0;
        bool open = false;
        for (auto [s, e] : iv) {
          s = std::clamp(s, r.start_ns, r.end_ns);
          e = std::clamp(e, r.start_ns, r.end_ns);
          if (open && s <= hi) {
            hi = std::max(hi, e);
            continue;
          }
          if (open) covered += hi - lo;
          lo = s;
          hi = e;
          open = true;
        }
        if (open) covered += hi - lo;
      }
      self[layer_of(r.name)] +=
          static_cast<double>(r.end_ns - r.start_ns - covered) * 1e-9;
    }
    ++bi;
  }
  return self;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"self_s\": {");
  bool first = true;
  for (const auto& [layer, s] : self_time_by_layer()) {
    std::fprintf(f, "%s\"%s\": %.9f", first ? "" : ", ", layer.c_str(), s);
    first = false;
  }
  std::fprintf(f, "},\n\"spans\": [\n");
  first = true;
  std::uint32_t bi = 0;
  for (const TraceBuffer& b : buffers_) {
    for (std::size_t i = 0; i < b.spans().size(); ++i) {
      const SpanRecord& r = b.spans()[i];
      const long long parent =
          r.parent == kNoSpan ? -1 : static_cast<long long>(r.parent);
      std::fprintf(f,
                   "%s{\"id\": %llu, \"thread\": %u, \"name\": \"%s\", "
                   "\"start_ns\": %llu, \"end_ns\": %llu, \"parent\": %lld}",
                   first ? "" : ",\n",
                   static_cast<unsigned long long>((SpanId{bi} << 32) | i), bi,
                   r.name, static_cast<unsigned long long>(r.start_ns),
                   static_cast<unsigned long long>(r.end_ns), parent);
      first = false;
    }
    ++bi;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
