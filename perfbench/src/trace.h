// In-memory span recorder for the traced benchmark run.
//
// Spans are opened around the benchmark's own calls into each layer; each
// carries a name, start, end, parent and request id. They stay in memory
// and are written out (chrome://tracing JSON) when the run ends. A null
// Tracer* means tracing is off and every Scope is a no-op.
//
// Only the client thread opens spans, so the recorder needs no lock.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name;
  std::uint64_t request;
  std::int64_t parent;  ///< index into the span list, -1 for a root
  double t0, t1;        ///< seconds since the tracer started
};

class Tracer {
 public:
  Tracer() : origin_(clock::now()) {}

  double now() const {
    return std::chrono::duration<double>(clock::now() - origin_).count();
  }

  /// RAII span: opened on construction, closed on destruction.
  class Scope {
   public:
    Scope(Tracer* t, const char* name, std::uint64_t request) : t_(t) {
      if (t_ == nullptr) return;
      index_ = t_->spans_.size();
      const std::int64_t parent =
          t_->open_.empty() ? -1 : static_cast<std::int64_t>(t_->open_.back());
      t_->spans_.push_back(Span{name, request, parent, t_->now(), 0.0});
      t_->open_.push_back(index_);
    }
    ~Scope() {
      if (t_ == nullptr) return;
      t_->spans_[index_].t1 = t_->now();
      t_->open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    std::size_t index_ = 0;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name in milliseconds: each span's duration minus
  /// the part of it its children cover.
  std::map<std::string, double> self_ms() const;

  /// Writes every span as a chrome://tracing complete event.
  bool write_chrome(const std::string& path) const;

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

}  // namespace perfbench
