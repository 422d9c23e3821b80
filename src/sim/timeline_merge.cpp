#include "sim/timeline_merge.h"

#include <algorithm>

#include "sim/kernel.h"

namespace lddp::sim {

std::size_t TimelineMerger::add(const Timeline& recorded, double release,
                                OpId release_dep, bool packable) {
  Job job;
  job.recorded = &recorded;
  job.release = release;
  job.release_dep = release_dep;
  job.packable = packable;
  job.shared_ids.assign(recorded.op_count(), kNoOp);
  job.resource_map.resize(recorded.resource_count());
  for (Timeline::ResourceId r = 0; r < recorded.resource_count(); ++r) {
    const Timeline::ResourceId shared_r =
        shared_->find_resource(recorded.resource_name(r));
    LDDP_CHECK_MSG(shared_r != Timeline::kNoResource,
                   "merge: shared timeline lacks resource "
                       << recorded.resource_name(r));
    job.resource_map[r] = shared_r;
  }
  remaining_ += recorded.op_count();
  if (recorded.op_count() > 0) {
    load_head(job);
    active_.push_back(jobs_.size());
    // Each placed op maps its recorded deps plus the release gate; size the
    // shared timeline for everything still to come so the merge does not
    // reallocate it op by op.
    remaining_deps_ += recorded.dep_count() + recorded.op_count();
    shared_->reserve(shared_->op_count() + remaining_,
                     shared_->dep_count() + remaining_deps_);
  }
  jobs_.push_back(std::move(job));
  return jobs_.size() - 1;
}

void TimelineMerger::load_head(Job& job) const {
  const OpId op = static_cast<OpId>(job.next);
  job.head_res = job.resource_map[job.recorded->op_resource(op)];
  double t = job.release;
  for (OpId d : job.recorded->op_deps(op)) {
    // Recorded order is causally consistent, so every dependency has
    // already been placed in the shared timeline.
    LDDP_CHECK_MSG(job.shared_ids[d] != kNoOp,
                   "merge: recorded op depends on a later op");
    t = std::max(t, shared_->end_time(job.shared_ids[d]));
  }
  job.head_ready = t;
}

double TimelineMerger::feasible_start(const Job& job) const {
  return std::max(job.head_ready, shared_->resource_free_at(job.head_res));
}

void TimelineMerger::place(std::size_t rank, double duration) {
  Job& job = jobs_[rank];
  const OpId op = static_cast<OpId>(job.next);
  // Map the recorded dependencies into the shared timeline, append the
  // release gate and pass the release time (slot release plus any retry
  // backoff) as the not-before bound; Timeline::record then reproduces
  // exactly feasible_start (or, for a pack rider, the end of the previous
  // segment — the shared resource serializes the pack's segments back to
  // back).
  deps_.clear();
  for (OpId d : job.recorded->op_deps(op)) deps_.push_back(job.shared_ids[d]);
  deps_.push_back(job.release_dep);
  remaining_deps_ -= deps_.size();
  const OpId placed = shared_->record(job.head_res, duration, deps_,
                                      job.recorded->op_label(op),
                                      job.release);
  job.shared_ids[op] = placed;
  if (job.next == 0) job.start = shared_->start_time(placed);
  if (shared_->end_time(placed) >= job.end) {
    job.end = shared_->end_time(placed);
    job.last_op = placed;
  }
  ++job.next;
  --remaining_;
  if (job.next < job.recorded->op_count()) {
    load_head(job);
  } else {
    active_.erase(std::lower_bound(active_.begin(), active_.end(), rank));
    finished_.push_back(rank);
  }
}

std::size_t TimelineMerger::step() {
  // A pack can complete several jobs in one placement; surplus completions
  // drain one per call so the caller's one-completion-per-step loop holds.
  if (finished_head_ < finished_.size()) return finished_[finished_head_++];
  LDDP_CHECK_MSG(!active_.empty(), "merge: step() with nothing to schedule");

  // Each active head's feasible start, computed once: the rider search
  // below reuses these values, and it runs before anything is placed, so
  // they still hold. Strict < keeps the lowest rank on ties.
  starts_.resize(active_.size());
  std::size_t best = 0;  // index into active_
  for (std::size_t a = 0; a < active_.size(); ++a) {
    starts_[a] = feasible_start(jobs_[active_[a]]);
    if (starts_[a] < starts_[best]) best = a;
  }
  const std::size_t pick = active_[best];
  const double pick_start = starts_[best];

  // Pack window: head ops of other packable jobs that are co-ready on the
  // same shared resource and carry an amortizable-submission annotation.
  // Gathered before the head is placed (placing it moves the resource's
  // free time), in admission-rank order for determinism.
  riders_.clear();
  if (packing_ && jobs_[pick].packable) {
    const Timeline::ResourceId head_res = jobs_[pick].head_res;
    for (std::size_t a = 0; a < active_.size(); ++a) {
      if (a == best || starts_[a] != pick_start) continue;
      const Job& job = jobs_[active_[a]];
      if (!job.packable || job.head_res != head_res) continue;
      if (job.recorded->op_pack_overhead(static_cast<OpId>(job.next)) <= 0.0)
        continue;
      riders_.push_back(active_[a]);
    }
  }

  const Job& head = jobs_[pick];
  const OpId head_op = static_cast<OpId>(head.next);
  const double head_dur = head.recorded->op_duration(head_op);
  if (riders_.empty()) {
    place(pick, head_dur);
    LDDP_DCHECK(shared_->start_time(jobs_[pick].shared_ids[head_op]) ==
                pick_start);
  } else {
    PackedKernel pack(pack_spec_);
    pack.add_segment(head_dur, head.recorded->op_pack_overhead(head_op));
    shared_->begin_group();
    place(pick, head_dur);
    LDDP_DCHECK(shared_->start_time(jobs_[pick].shared_ids[head_op]) ==
                pick_start);
    for (std::size_t k : riders_) {
      const Job& rider = jobs_[k];
      const OpId op = static_cast<OpId>(rider.next);
      const double priced = pack.add_segment(
          rider.recorded->op_duration(op),
          rider.recorded->op_pack_overhead(op));
      place(k, priced);
    }
    shared_->end_group();
    ++pack_count_;
    packed_ops_ += riders_.size();
    pack_saved_ += pack.saved_seconds();
  }

  if (finished_head_ < finished_.size()) return finished_[finished_head_++];
  return kNone;
}

}  // namespace lddp::sim
