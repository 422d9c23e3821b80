#include "trace.h"

#include <cstdio>

namespace perfbench {

std::map<std::string, double> Tracer::self_ms() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
  std::map<std::string, double> out;
  for (std::size_t k = 0; k < spans_.size(); ++k)
    out[spans_[k].name] += (spans_[k].t1 - spans_[k].t0 - child[k]) * 1e3;
  return out;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    const Span& s = spans_[k];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"request\": %llu, "
                 "\"span\": %zu, \"parent\": %lld}}%s\n",
                 s.name, s.t0 * 1e6, (s.t1 - s.t0) * 1e6,
                 static_cast<unsigned long long>(s.request), k,
                 static_cast<long long>(s.parent),
                 k + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
