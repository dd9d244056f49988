#include "dht/churn.h"

#include <cstddef>

namespace pierstack::dht {

ChurnDriver::ChurnDriver(DhtDeployment* deployment, uint64_t seed,
                         sim::FaultPlan* plan)
    : deployment_(deployment), rng_(seed), plan_(plan) {}

void ChurnDriver::Schedule(const std::vector<sim::ChurnEvent>& timeline) {
  // Churn events mutate topology and may touch any node, so they are
  // driver events: a sharded backend runs them serialized at epoch
  // barriers with every worker parked (sim/shard.h).
  sim::Executor* s = deployment_->node(0)->network()->executor();
  for (const sim::ChurnEvent& e : timeline) {
    s->ScheduleAt(sim::kDriverHost, e.time,
                  [this, kind = e.kind]() { Execute(kind); });
  }
}

void ChurnDriver::Execute(sim::ChurnEvent::Kind kind) {
  if (kind == sim::ChurnEvent::kJoin) {
    deployment_->AddNodeDynamic(rng_.Next());
    ++stats_.joins;
    if (plan_ != nullptr) plan_->CountChurn(sim::ChurnEvent::kJoin);
    return;
  }
  if (kind == sim::ChurnEvent::kRestart) {
    // Revive a node this driver previously crashed, under its original
    // identity, recovering its durable image. The RNG pick mirrors the
    // crash path so a fixed seed yields the same victim sequence.
    if (crashed_.empty()) {
      ++stats_.skipped;
      return;
    }
    size_t slot = rng_.NextBelow(crashed_.size());
    size_t pick = crashed_[slot];
    crashed_.erase(crashed_.begin() + static_cast<ptrdiff_t>(slot));
    deployment_->node(pick)->Restart(deployment_->node(0)->host());
    ++stats_.restarts;
    if (plan_ != nullptr) plan_->CountChurn(sim::ChurnEvent::kRestart);
    return;
  }
  // Crash a random live node. Node 0 is spared: it is the join bootstrap,
  // and killing it would turn every later kJoin into a no-op rather than
  // modeling churn.
  std::vector<size_t> live;
  for (size_t i = 1; i < deployment_->size(); ++i) {
    if (deployment_->node(i)->joined()) live.push_back(i);
  }
  if (live.empty()) {
    ++stats_.skipped;
    return;
  }
  size_t pick = live[rng_.NextBelow(live.size())];
  deployment_->node(pick)->Crash();
  crashed_.push_back(pick);
  ++stats_.crashes;
  if (plan_ != nullptr) plan_->CountChurn(sim::ChurnEvent::kCrash);
}

}  // namespace pierstack::dht
