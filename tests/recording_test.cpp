// RecordingScheduler: execution logs, delay audits, drop accounting.
#include <gtest/gtest.h>

#include <memory>

#include "core/bounds.hpp"
#include "crash_round.hpp"
#include "net/sim.hpp"
#include "sched/random_scheduler.hpp"
#include "sched/recording_scheduler.hpp"

namespace apxa::sched {
namespace {

TEST(Recording, CapturesEverySendAndDelivery) {
  const SystemParams p{4, 1};
  auto rec = std::make_unique<RecordingScheduler>(
      std::make_unique<RandomScheduler>(7));
  RecordingScheduler* handle = rec.get();

  net::SimNetwork net(p, std::move(rec));
  add_parties(net, crash_round(p, id_inputs(p.n), 3));
  net.start();
  net.run();

  // 3 rounds x 4 parties x 3 receivers.
  EXPECT_EQ(handle->sends().size(), 36u);
  EXPECT_EQ(handle->delivers().size(), 36u);
  EXPECT_EQ(handle->undelivered(), 0u);
  EXPECT_LE(handle->max_delay(), 1.0);
  EXPECT_GT(handle->max_delay(), 0.0);
  for (const auto& s : handle->sends()) {
    EXPECT_NE(s.from, s.to);
    EXPECT_GT(s.payload_bytes, 0u);
  }
}

TEST(Recording, CountsDropsAtCrashedReceivers) {
  const SystemParams p{4, 1};
  auto rec = std::make_unique<RecordingScheduler>(
      std::make_unique<RandomScheduler>(7));
  RecordingScheduler* handle = rec.get();

  net::SimNetwork net(p, std::move(rec));
  add_parties(net, crash_round(p, id_inputs(p.n), 2));
  net.crash_at_time(3, 0.0);  // party 3 never receives anything
  net.start();
  net.run();
  EXPECT_GT(handle->undelivered(), 0u);
  for (const auto& d : handle->delivers()) EXPECT_NE(d.to, 3u);
}

TEST(Recording, SequencesAreMonotoneInLog) {
  const SystemParams p{3, 1};
  auto rec = std::make_unique<RecordingScheduler>(
      std::make_unique<RandomScheduler>(1));
  RecordingScheduler* handle = rec.get();
  net::SimNetwork net(p, std::move(rec));
  add_parties(net, crash_round(p, std::vector<double>(p.n, 0.5), 2));
  net.start();
  net.run();
  for (std::size_t i = 1; i < handle->sends().size(); ++i) {
    EXPECT_GT(handle->sends()[i].seq, handle->sends()[i - 1].seq);
  }
}

TEST(Recording, RejectsNullInner) {
  EXPECT_THROW(RecordingScheduler(nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace apxa::sched
