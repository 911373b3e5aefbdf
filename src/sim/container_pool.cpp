#include "sim/container_pool.h"

#include <algorithm>

namespace libra::sim {

void ContainerPool::evict_expired(std::vector<SimTime>& stack,
                                  SimTime now) const {
  // Warm containers idle longer than keep_alive are reclaimed by the node.
  stack.erase(std::remove_if(stack.begin(), stack.end(),
                             [&](SimTime paused_at) {
                               return now - paused_at > cfg_.keep_alive;
                             }),
              stack.end());
}

void ContainerPool::sweep(SimTime now) {
  if (now - last_sweep_ < cfg_.keep_alive) return;
  last_sweep_ = now;
  // LIBRA_LINT_ALLOW(unordered-iteration): each function's stack is pruned on its own; nothing carries from one entry to the next
  for (auto it = warm_.begin(); it != warm_.end();) {
    evict_expired(it->second, now);
    if (it->second.empty())
      it = warm_.erase(it);
    else
      ++it;
  }
}

ContainerPool::Acquisition ContainerPool::acquire(FunctionId func,
                                                  SimTime now) {
  sweep(now);
  auto it = warm_.find(func);
  if (it != warm_.end()) {
    evict_expired(it->second, now);
    if (!it->second.empty()) {
      it->second.pop_back();
      if (it->second.empty()) warm_.erase(it);
      ++warm_starts_;
      return {cfg_.warm_start_delay, false};
    }
    warm_.erase(it);
  }
  ++cold_starts_;
  return {cfg_.cold_start_delay, true};
}

void ContainerPool::release(FunctionId func, SimTime now) {
  sweep(now);
  auto& stack = warm_[func];
  evict_expired(stack, now);
  if (static_cast<int>(stack.size()) < cfg_.max_warm_per_function)
    stack.push_back(now);
  if (stack.empty()) warm_.erase(func);
}

int ContainerPool::warm_count(FunctionId func, SimTime now) const {
  auto it = warm_.find(func);
  if (it == warm_.end()) return 0;
  int live = 0;
  for (SimTime paused_at : it->second)
    if (now - paused_at <= cfg_.keep_alive) ++live;
  return live;
}

}  // namespace libra::sim
