#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <set>
#include <system_error>

#include "bench.hpp"

namespace perfbench {

void Checks::expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures_;
  if (failures_ <= 20) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
}

RssProbe::RssProbe() {
  fd_ = ::open("/proc/self/statm", O_RDONLY | O_CLOEXEC);
  const long page = ::sysconf(_SC_PAGESIZE);
  if (page > 0) page_ = static_cast<std::uint64_t>(page);
}

RssProbe::~RssProbe() {
  if (fd_ >= 0) ::close(fd_);
}

std::uint64_t RssProbe::rss_bytes() const {
  if (fd_ < 0) return 0;
  char buf[128];
  const ssize_t n = ::pread(fd_, buf, sizeof(buf) - 1, 0);
  if (n <= 0) return 0;
  buf[n] = '\0';
  unsigned long long size = 0;
  unsigned long long resident = 0;
  if (std::sscanf(buf, "%llu %llu", &size, &resident) != 2) return 0;
  return resident * page_;
}

void RssProbe::reset() {
  // Hand freed heap pages back first, so the growth measured next is the
  // engine's own and not recycled memory of earlier rounds.
  ::malloc_trim(0);
  baseline_ = rss_bytes();
  peak_ = baseline_;
}

void RssProbe::sample() { peak_ = std::max(peak_, rss_bytes()); }

double RssProbe::peak_growth_mb() const {
  return static_cast<double>(peak_ - baseline_) / (1024.0 * 1024.0);
}

bool same_matches(const std::vector<ComplexEvent>& a,
                  const std::vector<ComplexEvent>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const ComplexEvent& x = a[i];
    const ComplexEvent& y = b[i];
    if (x.window != y.window || x.detection_ts != y.detection_ts ||
        x.constituents.size() != y.constituents.size()) {
      return false;
    }
    for (std::size_t c = 0; c < x.constituents.size(); ++c) {
      const Constituent& p = x.constituents[c];
      const Constituent& q = y.constituents[c];
      if (p.element != q.element || p.position != q.position ||
          !same_event(p.event, q.event)) {
        return false;
      }
    }
  }
  return true;
}

namespace {

std::vector<std::uint64_t> identity(const ComplexEvent& m) {
  std::vector<std::uint64_t> id;
  id.reserve(m.constituents.size() + 1);
  id.push_back(m.window);
  for (const Constituent& c : m.constituents) id.push_back(c.event.seq);
  return id;
}

}  // namespace

std::uint64_t count_common(const std::vector<ComplexEvent>& got,
                           const std::vector<ComplexEvent>& reference) {
  std::set<std::vector<std::uint64_t>> ref;
  for (const ComplexEvent& m : reference) ref.insert(identity(m));
  std::uint64_t n = 0;
  for (const ComplexEvent& m : got) n += ref.count(identity(m));
  return n;
}

SubstreamIndex index_substreams(
    std::span<const Event> in_order,
    const std::function<std::size_t(const Event&)>& substream_of) {
  SubstreamIndex idx;
  idx.substream.resize(in_order.size());
  idx.offset.resize(in_order.size());
  std::vector<std::uint32_t> next;
  for (const Event& e : in_order) {
    const std::size_t s = substream_of(e);
    if (s >= next.size()) next.resize(s + 1, 0);
    idx.substream[e.seq] = static_cast<std::uint32_t>(s);
    idx.offset[e.seq] = next[s]++;
  }
  return idx;
}

namespace {

bool direction_ok(DirectionFilter filter, const Event& e) {
  if (filter == DirectionFilter::kRising) return e.value > 0.0;
  if (filter == DirectionFilter::kFalling) return e.value < 0.0;
  return true;
}

bool element_ok(const ElementSpec& spec, const Event& e) {
  return spec.types.matches(e.type) && direction_ok(spec.direction, e);
}

bool match_ok(const ComplexEvent& m, const Pattern& pattern,
              const WindowSpec& window, const SubstreamIndex& index) {
  const auto& cs = m.constituents;
  if (cs.size() != pattern.match_width()) return false;
  for (std::size_t i = 0; i < cs.size(); ++i) {
    if (cs[i].event.seq >= index.substream.size()) return false;
    if (i > 0 && cs[i].event.seq <= cs[i - 1].event.seq) return false;
    if (index.substream[cs[i].event.seq] !=
        index.substream[cs[0].event.seq]) {
      return false;
    }
  }
  // Types and directions.
  if (pattern.kind == PatternKind::kSequence) {
    for (std::size_t i = 0; i < cs.size(); ++i) {
      if (cs[i].element != i ||
          !element_ok(pattern.elements[i], cs[i].event)) {
        return false;
      }
    }
  } else {
    if (cs[0].element != 0 || !element_ok(pattern.elements[0], cs[0].event)) {
      return false;
    }
    std::set<EventTypeId> types;
    for (std::size_t i = 1; i < cs.size(); ++i) {
      const Event& e = cs[i].event;
      if (cs[i].element != 1 || !pattern.any_candidates.matches(e.type) ||
          !direction_ok(pattern.any_direction, e)) {
        return false;
      }
      types.insert(e.type);
    }
    if (pattern.any_distinct_types && types.size() != cs.size() - 1) {
      return false;
    }
  }
  // One window.
  if (window.span_kind == WindowSpan::kCount &&
      window.open_kind == WindowOpen::kCountSlide) {
    // Window w of a substream covers offsets [w * slide, w * slide + span);
    // a constituent's position is its offset from the window's start.
    const std::uint64_t begin = m.window * window.slide_events;
    for (const Constituent& c : cs) {
      const std::uint64_t off = index.offset[c.event.seq];
      if (off < begin || off >= begin + window.span_events ||
          c.position != off - begin) {
        return false;
      }
    }
  } else if (window.span_kind == WindowSpan::kTime) {
    double lo = cs[0].event.ts;
    double hi = cs[0].event.ts;
    for (const Constituent& c : cs) {
      lo = std::min(lo, c.event.ts);
      hi = std::max(hi, c.event.ts);
    }
    if (!(hi - lo < window.span_seconds)) return false;
  } else {
    return false;  // no workload uses other window kinds
  }
  return true;
}

}  // namespace

std::uint64_t property_violations(const std::vector<ComplexEvent>& matches,
                                  const Pattern& pattern,
                                  const WindowSpec& window,
                                  const SubstreamIndex& index) {
  std::uint64_t bad = 0;
  for (const ComplexEvent& m : matches) {
    if (!match_ok(m, pattern, window, index)) ++bad;
  }
  return bad;
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

void remove_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t key_for_shard(std::uint64_t from, std::size_t target,
                            std::size_t shards) {
  std::uint64_t k = from;
  while (StreamEngine::shard_index(k, shards) != target) ++k;
  return k;
}

}  // namespace perfbench
