#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>

namespace perfbench {

namespace {

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Open spans of the calling thread, innermost last, tagged by recorder so
/// several recorders (the self-tests make many) never see each other's.
thread_local std::vector<std::pair<const SpanRecorder*, std::uint32_t>>
    t_open;

std::uint32_t innermost(const SpanRecorder* rec) {
  for (auto it = t_open.rbegin(); it != t_open.rend(); ++it) {
    if (it->first == rec) return it->second;
  }
  return 0;
}

void pop_open(const SpanRecorder* rec, std::uint32_t id) {
  for (auto it = t_open.rbegin(); it != t_open.rend(); ++it) {
    if (it->first == rec && it->second == id) {
      t_open.erase(std::next(it).base());
      return;
    }
  }
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), t0_(steady_seconds()) {}

double SpanRecorder::now() const { return steady_seconds() - t0_; }

std::uint32_t SpanRecorder::begin(std::string_view layer,
                                  std::string_view kind,
                                  std::uint64_t bytes) {
  if (!enabled_) return 0;
  std::uint32_t parent = innermost(this);
  if (parent == 0) parent = op_root_.load(std::memory_order_acquire);
  std::uint32_t id = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    Span s;
    id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.id = id;
    s.parent = parent;
    s.op = parent ? spans_[parent - 1].op : id;
    s.layer = layer;
    s.kind = kind;
    s.bytes = bytes;
    s.start = now();
    spans_.push_back(std::move(s));
  }
  t_open.emplace_back(this, id);
  return id;
}

void SpanRecorder::end(std::uint32_t id) {
  if (!enabled_ || id == 0) return;
  const double t = now();
  pop_open(this, id);
  std::lock_guard<std::mutex> lk(mu_);
  if (id <= spans_.size()) spans_[id - 1].end = t;
}

std::uint32_t SpanRecorder::begin_op(std::string_view layer,
                                     std::string_view kind) {
  if (!enabled_) return 0;
  std::uint32_t id = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    Span s;
    id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.id = id;
    s.op = id;
    s.layer = layer;
    s.kind = kind;
    s.start = now();
    spans_.push_back(std::move(s));
  }
  t_open.emplace_back(this, id);
  op_root_.store(id, std::memory_order_release);
  return id;
}

void SpanRecorder::end_op(std::uint32_t id) {
  if (!enabled_ || id == 0) return;
  op_root_.store(0, std::memory_order_release);
  end(id);
}

void SpanRecorder::set_kind(std::uint32_t id, std::string_view kind) {
  if (!enabled_ || id == 0) return;
  std::lock_guard<std::mutex> lk(mu_);
  if (id <= spans_.size()) spans_[id - 1].kind = kind;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

void SpanRecorder::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  spans_.clear();
  op_root_.store(0, std::memory_order_release);
}

std::string SpanRecorder::to_jsonl() const {
  std::string out;
  char buf[160];
  for (const Span& s : spans()) {
    std::snprintf(buf, sizeof(buf),
                  "{\"id\":%u,\"parent\":%u,\"op\":%u,\"start\":%.9f,"
                  "\"end\":%.9f,\"bytes\":%llu,",
                  s.id, s.parent, s.op, s.start, s.end,
                  static_cast<unsigned long long>(s.bytes));
    out += buf;
    out += "\"layer\":\"" + json_escape(s.layer) + "\",\"kind\":\"" +
           json_escape(s.kind) + "\"}\n";
  }
  return out;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  // Children grouped under their parent's index.
  std::vector<std::vector<std::size_t>> kids(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint32_t p = spans[i].parent;
    if (p != 0 && p <= spans.size()) kids[p - 1].push_back(i);
  }
  std::vector<double> self(spans.size(), 0.0);
  std::vector<std::pair<double, double>> iv;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double dur = std::max(0.0, s.end - s.start);
    iv.clear();
    for (std::size_t k : kids[i]) {
      const double a = std::max(s.start, spans[k].start);
      const double b = std::min(s.end, spans[k].end);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur_a = 0.0, cur_b = -1.0;
    for (const auto& [a, b] : iv) {
      if (a > cur_b) {
        if (cur_b > cur_a) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) covered += cur_b - cur_a;
    self[i] = std::max(0.0, dur - covered);
  }
  return self;
}

std::string check_tree(const std::vector<Span>& spans) {
  std::map<std::uint32_t, int> roots_per_op;
  for (const Span& s : spans) {
    if (s.end < s.start) return "span " + std::to_string(s.id) + " not closed";
    if (s.parent == 0) {
      if (s.op != s.id) {
        return "root " + std::to_string(s.id) + " is not its own operation";
      }
      ++roots_per_op[s.op];
      continue;
    }
    if (s.parent >= s.id || s.parent > spans.size()) {
      return "span " + std::to_string(s.id) + " has a bad parent";
    }
    const Span& p = spans[s.parent - 1];
    if (s.start < p.start || s.end > p.end) {
      return "span " + std::to_string(s.id) + " (" + s.layer +
             ") lies outside its parent " + std::to_string(p.id) + " (" +
             p.layer + ")";
    }
    if (s.op != p.op) {
      return "span " + std::to_string(s.id) + " left its parent's operation";
    }
  }
  for (const Span& s : spans) {
    if (roots_per_op[s.op] != 1) {
      return "operation " + std::to_string(s.op) + " has " +
             std::to_string(roots_per_op[s.op]) + " roots";
    }
  }
  return {};
}

}  // namespace perfbench
