#include "exec/thread_backend.hpp"

#include <utility>

namespace apxa::exec {

void ThreadBackend::add_process(std::unique_ptr<net::Process> p) {
  net_.add_process(std::move(p));
}

void ThreadBackend::mark_byzantine(ProcessId p) { net_.mark_byzantine(p); }

void ThreadBackend::crash_after_sends(ProcessId p, std::uint64_t count) {
  net_.crash_after_sends(p, count);
}

void ThreadBackend::set_multicast_order(ProcessId p, std::vector<ProcessId> order) {
  net_.set_multicast_order(p, std::move(order));
}

void ThreadBackend::enable_batching(std::uint32_t max_frames) {
  net_.enable_batching(max_frames);
}

ExecResult ThreadBackend::run(const ExecOptions& opts) {
  net_.set_done_predicate(opts.done);
  const bool completed = net_.run(opts.timeout);

  const auto n = net_.params().n;
  ExecResult res;
  res.status = completed ? net::RunStatus::kPredicateSatisfied
                         : net::RunStatus::kTimedOut;
  res.all_correct_output = net_.all_correct_output();
  res.vector_outputs = net_.correct_vector_outputs();
  res.metrics = net_.metrics();
  res.exec_stats = net_.exec_stats();
  res.correct.resize(n);
  res.output_times.resize(n);
  for (ProcessId p = 0; p < n; ++p) {
    res.correct[p] = net_.is_correct(p);
    res.output_times[p] = net_.output_time(p);
  }
  return res;
}

}  // namespace apxa::exec
