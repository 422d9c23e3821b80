#include "workload.h"

#include <chrono>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "entry_points.h"
#include "gen.h"
#include "trace.h"

namespace perfbench {
namespace {

using clock = std::chrono::steady_clock;
using lddp::Mode;

double since(clock::time_point t0) {
  return std::chrono::duration<double>(clock::now() - t0).count();
}

template <class T>
void shuffle(std::vector<T>& v, std::uint64_t& s) {
  for (std::size_t k = v.size(); k > 1; --k)
    std::swap(v[k - 1],
              v[static_cast<std::size_t>(gen::uniform(
                  s, 0, static_cast<std::int64_t>(k) - 1))]);
}

/// `orders` orders of w.unit: the unit itself, then reshuffles within each
/// block of `block` consecutive requests (which keeps blocks balanced).
void make_orders(Workload& w, std::size_t orders, std::size_t block,
                 std::uint64_t& s) {
  w.orders.assign(1, w.unit);
  for (std::size_t k = 1; k < orders; ++k) {
    std::vector<Request> o = w.unit;
    for (std::size_t a = 0; a < o.size(); a += block) {
      const auto first = o.begin() + static_cast<std::ptrdiff_t>(a);
      const auto last = o.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(a + block, o.size()));
      std::vector<Request> part(first, last);
      shuffle(part, s);
      std::copy(part.begin(), part.end(), first);
    }
    w.orders.push_back(std::move(o));
  }
}

std::uint64_t next_request_id() {
  static std::uint64_t id = 0;
  return ++id;
}

constexpr Kind kSequenceKinds[] = {Kind::kLevenshtein,     Kind::kLcs,
                                   Kind::kNeedlemanWunsch, Kind::kSmithWaterman,
                                   Kind::kGotoh,           Kind::kDtw};

/// Nominal side shortened by a seeded 4..16 cells: the simulated makespan
/// then depends on the seed, and no side is a power of two (whose cache
/// aliasing would make some seeds outliers).
std::size_t near(std::size_t side, std::uint64_t& s) {
  return side - 4 * static_cast<std::size_t>(gen::uniform(s, 1, 4));
}

/// The solo rotation: four canonical patterns plus one symmetry case.
void make_solo_large(Workload& w, std::uint64_t& s) {
  const std::pair<Kind, std::size_t> kinds[] = {
      {Kind::kLevenshtein, 4096},  {Kind::kNeedlemanWunsch, 2048},
      {Kind::kDither, 2048},       {Kind::kCheckerboard, 2048},
      {Kind::kMaxNw, 2048},        {Kind::kColumnMin, 2048}};
  for (const auto& [kind, side] : kinds)
    w.inputs.push_back({kind, near(side, s), gen::splitmix(s), nullptr});
  // Tiers alternate request by request; within each tier every
  // (problem, mode) pair appears once per cycle, in a seeded order.
  std::vector<Request> tiers[2];
  for (int t = 0; t < 2; ++t) {
    for (std::size_t in = 0; in < w.inputs.size(); ++in)
      for (Mode m : {Mode::kCpuParallel, Mode::kGpu, Mode::kHeterogeneous})
        tiers[t].push_back(Request{
            in, m, t == 0 ? Tier::kFull : Tier::kFrontier,
            w.inputs[in].kind == Kind::kNeedlemanWunsch});
    shuffle(tiers[t], s);
  }
  for (std::size_t k = 0; k < tiers[0].size(); ++k) {
    w.unit.push_back(tiers[0][k]);
    w.unit.push_back(tiers[1][k]);
  }
  make_orders(w, 1, w.unit.size(), s);
  w.setup_reps = 3;
  w.min_samples = 100;
  w.tail_percentile = 0.90;
}

/// Stratified small requests in blocks: each block holds every (kind, side
/// bin) pair once, in a seeded order, and across the blocks every pair
/// takes every mode slot once. Sides are seeded within +-16 of the bin
/// centre, so every window of one block asks for about the same work.
void add_small(Workload& w, std::uint64_t& s, std::size_t bins,
               const std::vector<Mode>& modes) {
  const std::size_t width = 448 / bins;
  for (std::size_t block = 0; block < modes.size(); ++block) {
    std::vector<Request> reqs;
    for (std::size_t k = 0; k < std::size(kSequenceKinds); ++k)
      for (std::size_t b = 0; b < bins; ++b) {
        const std::size_t side =
            64 + b * width + width / 2 - 16 +
            static_cast<std::size_t>(gen::uniform(s, 0, 32));
        w.inputs.push_back(
            {kSequenceKinds[k], side, gen::splitmix(s), nullptr});
        reqs.push_back(Request{w.inputs.size() - 1,
                               modes[(block + k + b) % modes.size()],
                               Tier::kFull, false});
      }
    shuffle(reqs, s);
    w.unit.insert(w.unit.end(), reqs.begin(), reqs.end());
  }
}

void make_batch_small(Workload& w, std::uint64_t& s) {
  w.batch = true;
  // Mostly auto (resolves to CPU and is lane-eligible at these sizes),
  // two in five on the accelerator modes so cross-solve packing fires.
  add_small(w, s, 8,
            {Mode::kAuto, Mode::kAuto, Mode::kAuto, Mode::kGpu,
             Mode::kHeterogeneous});
  w.engine.sched = lddp::BatchSched::kFifo;
  w.engine.admission = lddp::BatchAdmission::kWait;
  w.engine.concurrency = 4;
  w.engine.queue_capacity = 32;
  w.engine.threads_per_solve = 1;
  make_orders(w, 7, 48, s);
  w.min_samples = 1000;
  w.tail_percentile = 0.99;
}

void make_batch_mixed(Workload& w, std::uint64_t& s) {
  w.batch = true;
  add_small(w, s, 4,
            {Mode::kAuto, Mode::kGpu, Mode::kHeterogeneous, Mode::kGpu,
             Mode::kHeterogeneous});
  // A few large frontier-tier solves spread through the stream.
  const std::size_t stride = w.unit.size() / 6;
  std::size_t slot = 0;
  for (Kind kind : {Kind::kLevenshtein, Kind::kLcs})
    for (std::size_t side : {2048, 3072, 4096}) {
      w.inputs.push_back({kind, near(side, s), gen::splitmix(s), nullptr});
      const Mode m = slot % 2 == 0 ? Mode::kAuto : Mode::kGpu;
      const std::size_t at =
          slot * stride +
          static_cast<std::size_t>(
              gen::uniform(s, 0, static_cast<std::int64_t>(stride) - 1)) +
          slot;
      w.unit.insert(w.unit.begin() + static_cast<std::ptrdiff_t>(at),
                    Request{w.inputs.size() - 1, m, Tier::kFrontier, false});
      ++slot;
    }
  w.engine.sched = lddp::BatchSched::kFifo;
  w.engine.admission = lddp::BatchAdmission::kWait;
  w.engine.concurrency = 2;
  w.engine.queue_capacity = 32;
  w.engine.threads_per_solve = 2;
  // Tight enough that a large table is deferred beside a large small one.
  w.engine.memory_budget_bytes = 3u << 20;
  make_orders(w, 5, 25, s);
  w.min_samples = 1000;
  w.tail_percentile = 0.99;
}

/// Hands submitted batch requests to a completion thread, which stamps
/// when each future became ready and collects its answer. It blocks on the
/// oldest open request (FIFO requests mostly finish in order) and rescans
/// the others at least every millisecond, so out-of-order completions are
/// stamped within a millisecond.
class Completions {
 public:
  struct Item {
    std::unique_ptr<Pending> pending;
    clock::time_point submitted;
    std::size_t input;
  };

  Completions() : thread_([this] { loop(); }) {}
  ~Completions() {
    if (thread_.joinable()) finish();
  }
  Completions(const Completions&) = delete;
  Completions& operator=(const Completions&) = delete;

  void push(Item item) {
    std::lock_guard<std::mutex> lock(mu_);
    incoming_.push_back(std::move(item));
  }

  /// Waits until every pushed request has completed.
  void finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    thread_.join();
  }

  std::vector<double> latency_ms;
  std::vector<std::pair<std::size_t, Answer>> answers;
  std::size_t exceptions = 0;

 private:
  void loop() {
    std::deque<Item> open;  // submission order
    for (;;) {
      bool closed;
      {
        std::lock_guard<std::mutex> lock(mu_);
        for (Item& it : incoming_) open.push_back(std::move(it));
        incoming_.clear();
        closed = closed_;
      }
      if (open.empty()) {
        if (closed) return;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        continue;
      }
      open.front().pending->wait_for(std::chrono::milliseconds(1));
      for (auto it = open.begin(); it != open.end();) {
        if (!it->pending->wait_for(std::chrono::microseconds(0))) {
          ++it;
          continue;
        }
        const auto now = clock::now();
        try {
          answers.emplace_back(it->input, it->pending->get());
          latency_ms.push_back(
              std::chrono::duration<double>(now - it->submitted).count() *
              1e3);
        } catch (...) {
          ++exceptions;
        }
        it = open.erase(it);
      }
    }
  }

  std::mutex mu_;
  std::vector<Item> incoming_;
  bool closed_ = false;
  std::thread thread_;
};

double run_solo_unit(Session& s, const std::vector<Request>& requests,
                     Phase& ph, Ledger& ledger, Tracer* tracer,
                     LayerLog* log) {
  if (log != nullptr && !log->stats.empty()) log = nullptr;  // one unit
  double sim_s = 0.0;
  for (const Request& r : requests) {
    const Input& in = s.w.inputs[r.input];
    lddp::RunConfig rc = s.w.config(r);
    std::unique_ptr<lddp::sim::Timeline> timeline;
    if (log != nullptr) {
      timeline = std::make_unique<lddp::sim::Timeline>();
      rc.record_timeline = timeline.get();
    }
    const std::uint64_t id = next_request_id();
    ++ledger.attempted;
    const auto t0 = clock::now();
    try {
      SolveOutcome out;
      {
        Tracer::Scope span(tracer, "request", id);
        out = ops(in.kind).solve(in.problem.get(), rc, r.tier, r.traceback,
                                 tracer, id);
      }
      ph.latency_ms.push_back(since(t0) * 1e3);
      ++ph.solves;
      ph.cells += static_cast<double>(s.w.cells(r));
      sim_s += out.stats.sim_seconds;
      ledger.answers.emplace_back(r.input, out.answer);
      if (log != nullptr) {
        log->stats.push_back(out.stats);
        log->timelines.push_back(timeline.get());
        log->owned.push_back(std::move(timeline));
        log->cells += static_cast<double>(s.w.cells(r));
      }
    } catch (...) {
      ++ledger.exceptions;
    }
  }
  return sim_s * 1e3;
}

double run_batch_unit(Session& s, const std::vector<Request>& requests,
                      Phase& ph, Ledger& ledger, Tracer* tracer,
                      LayerLog* log) {
  Completions done;
  for (const Request& r : requests) {
    const Input& in = s.w.inputs[r.input];
    const std::uint64_t id = next_request_id();
    ++ledger.attempted;
    const auto t0 = clock::now();
    double submit_s = 0.0;
    std::unique_ptr<Pending> pending;
    try {
      Tracer::Scope span(tracer, "request", id);
      pending = ops(in.kind).submit(*s.engine, in.problem.get(),
                                    s.w.config(r), r.tier, tracer, id,
                                    &submit_s);
    } catch (...) {
      ++ledger.exceptions;
      continue;
    }
    if (pending == nullptr) {
      ++ledger.refused;
      continue;
    }
    if (log != nullptr) log->submit_us.push_back(submit_s * 1e6);
    done.push({std::move(pending), t0, r.input});
  }
  lddp::BatchReport report;
  {
    Tracer::Scope span(tracer, "core.batch_engine.wait", 0);
    const auto t0 = clock::now();
    report = entry::wait(*s.engine);
    if (log != nullptr) log->wait_ms.push_back(since(t0) * 1e3);
  }
  done.finish();
  ledger.exceptions += done.exceptions;
  for (auto& a : done.answers) {
    ph.cells += static_cast<double>(s.w.inputs[a.first].side *
                                    s.w.inputs[a.first].side);
    ledger.answers.push_back(a);
  }
  ph.solves += done.answers.size();
  ph.latency_ms.insert(ph.latency_ms.end(), done.latency_ms.begin(),
                       done.latency_ms.end());
  if (log != nullptr) {
    if (log->stats.empty())
      for (const auto& item : report.items) {
        log->stats.push_back(item.solve);
        log->cells += static_cast<double>(item.solve.cells);
      }
    log->reports.push_back(std::move(report));
    return log->reports.back().sim_makespan * 1e3;
  }
  return report.sim_makespan * 1e3;
}

}  // namespace

bool Workload::known(const std::string& name) {
  return name == "solo_large" || name == "batch_small" ||
         name == "batch_mixed";
}

Workload Workload::make(const std::string& name, std::uint64_t seed) {
  if (!known(name)) throw std::invalid_argument("unknown workload " + name);
  Workload w;
  w.name = name;
  w.seed = seed;
  std::uint64_t s = seed ^ gen::fnv(name.data(), name.size());
  if (name == "solo_large") make_solo_large(w, s);
  if (name == "batch_small") make_batch_small(w, s);
  if (name == "batch_mixed") make_batch_mixed(w, s);
  return w;
}

void Workload::generate() {
  for (Input& in : inputs) in.problem = ops(in.kind).make(in.side, in.seed);
}

std::uint64_t Workload::digest() const {
  std::uint64_t h = gen::fnv(name.data(), name.size());
  for (const Input& in : inputs) {
    const std::uint64_t v[3] = {static_cast<std::uint64_t>(in.kind), in.side,
                                ops(in.kind).digest(in.problem.get())};
    h = gen::fnv(v, sizeof v, h);
  }
  for (const Request& r : unit) {
    const std::uint64_t v[4] = {r.input, static_cast<std::uint64_t>(r.mode),
                                static_cast<std::uint64_t>(r.tier),
                                r.traceback};
    h = gen::fnv(v, sizeof v, h);
  }
  return h;
}

lddp::RunConfig Workload::config(const Request& r) const {
  lddp::RunConfig rc;
  rc.mode = r.mode;
  // Solo solves run on the process-wide shared executor; the batch engine
  // owns the substrate of the requests it admits.
  if (!batch) rc.schedule = lddp::cpu::Schedule::kStealing;
  return rc;
}

Session set_up(const std::string& name, std::uint64_t seed) {
  Session s;
  s.w = Workload::make(name, seed);
  s.w.generate();
  if (s.w.batch) s.engine = std::make_unique<lddp::BatchEngine>(s.w.engine);
  // Warm-up: one whole unit, so allocator, executor and engine caches are
  // filled before the first timed request.
  Phase ph;
  Ledger ledger;
  if (s.w.batch)
    run_batch_unit(s, s.w.unit, ph, ledger, nullptr, nullptr);
  else
    run_solo_unit(s, s.w.unit, ph, ledger, nullptr, nullptr);
  return s;
}

void Phase::add(const Phase& o) {
  wall_s += o.wall_s;
  units += o.units;
  solves += o.solves;
  cells += o.cells;
  latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                    o.latency_ms.end());
  for (auto [to, from] : {std::pair{&unit_wall_s, &o.unit_wall_s},
                          std::pair{&unit_samples, &o.unit_samples},
                          std::pair{&unit_solves, &o.unit_solves}})
    to->insert(to->end(), from->begin(), from->end());
  order_sim_ms.resize(std::max(order_sim_ms.size(), o.order_sim_ms.size()),
                      -1.0);
  for (std::size_t k = 0; k < o.order_sim_ms.size(); ++k) {
    if (o.order_sim_ms[k] < 0) continue;
    if (order_sim_ms[k] >= 0 && order_sim_ms[k] != o.order_sim_ms[k])
      sim_stable = false;
    order_sim_ms[k] = o.order_sim_ms[k];
  }
  sim_stable = sim_stable && o.sim_stable;
}

double Phase::sim_makespan_ms() const {
  double sum = 0.0;
  std::size_t n = 0;
  for (double v : order_sim_ms)
    if (v >= 0) sum += v, ++n;
  return n > 0 ? sum / static_cast<double>(n) : -1.0;
}

Phase run_phase(Session& s, double seconds, std::size_t units,
                Ledger& ledger, Tracer* tracer, LayerLog* log) {
  Phase ph;
  ph.order_sim_ms.assign(s.w.orders.size(), -1.0);
  const auto t0 = clock::now();
  for (;;) {
    const std::size_t order = s.next_unit++ % s.w.orders.size();
    const std::vector<Request>& requests = s.w.orders[order];
    const auto u0 = clock::now();
    const std::size_t samples0 = ph.latency_ms.size(), solves0 = ph.solves;
    const double sim_ms =
        s.w.batch ? run_batch_unit(s, requests, ph, ledger, tracer, log)
                  : run_solo_unit(s, requests, ph, ledger, tracer, log);
    ph.unit_wall_s.push_back(since(u0));
    ph.unit_samples.push_back(
        static_cast<double>(ph.latency_ms.size() - samples0));
    ph.unit_solves.push_back(static_cast<double>(ph.solves - solves0));
    if (ph.order_sim_ms[order] >= 0 && ph.order_sim_ms[order] != sim_ms)
      ph.sim_stable = false;
    ph.order_sim_ms[order] = sim_ms;
    ++ph.units;
    if (units > 0 ? ph.units >= units
                  : since(t0) >= seconds &&
                        ph.latency_ms.size() >= s.w.min_samples &&
                        ph.units >= s.w.orders.size())
      break;
  }
  ph.wall_s = since(t0);
  return ph;
}

std::vector<Answer> references(const Workload& w) {
  std::vector<Answer> out;
  out.reserve(w.inputs.size());
  lddp::RunConfig rc;
  rc.mode = Mode::kCpuSerial;
  for (const Input& in : w.inputs)
    out.push_back(ops(in.kind)
                      .solve(in.problem.get(), rc, Tier::kFull,
                             in.kind == Kind::kNeedlemanWunsch, nullptr, 0)
                      .answer);
  return out;
}

}  // namespace perfbench
