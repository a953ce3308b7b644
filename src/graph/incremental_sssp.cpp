#include "graph/incremental_sssp.hpp"

#include <atomic>

namespace gncg {

void IncrementalSssp::reset(const std::vector<double>& dist,
                            std::uint64_t search) {
  // Same shrink policy as DijkstraBuffers: release capacities left over
  // from a much larger previous search.  Log/heap needs are *decaying peak
  // estimates* -- the estimate is the previous search's peak, floored at
  // 7/8 of the prior estimate -- so a workload alternating small probes
  // and large floods never shrink-then-regrows, while a genuine downshift
  // still releases within a logarithmic number of searches (11 for a 4x
  // drop).  The branches of one search (same nonzero token) take one step
  // together: a best-response search's late branches are small by
  // construction, so a step per branch would release buffers within the
  // search that the next search regrows.
  if (search == 0 || search != search_) {
    log_need_ = std::max(log_peak_, log_need_ - log_need_ / 8);
    heap_need_ = std::max(heap_peak_, heap_need_ - heap_need_ / 8);
    detail::release_excess(dist_, dist.size());
    detail::release_excess(log_, log_need_);
    detail::release_excess(heap_, heap_need_);
    log_peak_ = 0;
    heap_peak_ = 0;
    search_ = search;
  }
  dist_ = dist;
  log_.clear();
  heap_.clear();
}

std::uint64_t IncrementalSssp::new_search_token() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void IncrementalSssp::rollback(Checkpoint mark) {
  GNCG_DASSERT(mark <= log_.size());
  GNCG_COUNT_N(kSsspRollbackEntries, log_.size() - mark);
  while (log_.size() > mark) {
    const auto& [node, old_dist] = log_.back();
    dist_[static_cast<std::size_t>(node)] = old_dist;
    log_.pop_back();
  }
}

}  // namespace gncg
