#include "sim/node.h"

#include <stdexcept>

#include "util/audit.h"

namespace libra::sim {

Node::Node(NodeId id, Resources capacity, int num_shards,
           ContainerPoolConfig pool_cfg)
    : id_(id),
      capacity_(capacity),
      num_shards_(num_shards),
      shard_allocated_(static_cast<size_t>(num_shards)),
      containers_(pool_cfg) {
  if (num_shards <= 0) throw std::invalid_argument("Node: num_shards <= 0");
  if (capacity.cpu <= 0 || capacity.mem <= 0)
    throw std::invalid_argument("Node: non-positive capacity");
}

Resources Node::shard_free(ShardId shard) const {
  const auto& used = shard_allocated_.at(static_cast<size_t>(shard));
  return shard_capacity() - used;
}

bool Node::try_reserve(ShardId shard, const Resources& r) {
  if (r.cpu < 0 || r.mem < 0)
    throw std::invalid_argument("Node: negative reservation");
  if (!up_) return false;
  auto& used = shard_allocated_.at(static_cast<size_t>(shard));
  if (!(used + r).fits_in(shard_capacity())) return false;
  used += r;
  allocated_total_ += r;
  touch();
  return true;
}

void Node::release(ShardId shard, const Resources& r) {
  auto& used = shard_allocated_.at(static_cast<size_t>(shard));
  used -= r;
  allocated_total_ -= r;
  if (used.cpu < -1e-6 || used.mem < -1e-6)
    throw std::logic_error("Node: released more than was reserved");
  used = used.clamped_non_negative();
  allocated_total_ = allocated_total_.clamped_non_negative();
  touch();
}

void Node::invocation_finished() {
  if (running_ <= 0)
    throw std::logic_error(
        "Node: invocation_finished with none running (accounting underflow)");
  --running_;
  touch();
}

void Node::check_quiescent() const {
  LIBRA_AUDIT_CHECK(running_ == 0,
                    "invocations survived the crash reap: node=" << id_
                        << " running=" << running_ << " allocated_total="
                        << allocated_total_.to_string());
  LIBRA_AUDIT_CHECK(allocated_total_.cpu < 1e-6 && allocated_total_.mem < 1e-3,
                    "reservations survived the crash reap: node=" << id_
                        << " allocated_total=" << allocated_total_.to_string()
                        << " running=" << running_);
  for (size_t s = 0; s < shard_allocated_.size(); ++s) {
    LIBRA_AUDIT_CHECK(
        shard_allocated_[s].cpu < 1e-6 && shard_allocated_[s].mem < 1e-3,
        "shard reserve/release asymmetry: node="
            << id_ << " shard=" << s << " surviving_share="
            << shard_allocated_[s].to_string() << " allocated_total="
            << allocated_total_.to_string());
  }
}

}  // namespace libra::sim
