#include "sim/node.h"

#include <limits>
#include <stdexcept>

#include "util/audit.h"

namespace libra::sim {

CapacityIndex::CapacityIndex(size_t num_nodes, int num_shards)
    : n_(num_nodes), num_shards_(num_shards) {
  if (num_shards < 0)
    throw std::invalid_argument("CapacityIndex: num_shards < 0");
  const double none = -std::numeric_limits<double>::infinity();
  tree_.assign(static_cast<size_t>(num_shards) * 2 * n_,
               Resources{none, none});
}

void CapacityIndex::update(NodeId id, ShardId shard, const Resources& free) {
  Resources* heap = tree_.data() + static_cast<size_t>(shard) * 2 * n_;
  size_t i = n_ + static_cast<size_t>(id);
  heap[i] = free;
  // A parent whose maximum did not move leaves every ancestor as it was.
  for (i /= 2; i >= 1; i /= 2) {
    const Resources m = Resources::max(heap[2 * i], heap[2 * i + 1]);
    if (m == heap[i]) break;
    heap[i] = m;
  }
}

Node::Node(NodeId id, Resources capacity, int num_shards,
           ContainerPoolConfig pool_cfg)
    : id_(id),
      capacity_(capacity),
      num_shards_(num_shards),
      shard_capacity_(capacity / static_cast<double>(num_shards)),
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

void Node::set_capacity_index(CapacityIndex* index) {
  if (index != nullptr &&
      (static_cast<size_t>(id_) >= index->num_nodes() ||
       index->num_shards() != num_shards_))
    throw std::invalid_argument(
        "Node: capacity index does not cover this node's id and shards");
  capacity_index_ = index;
  for (size_t s = 0; s < shard_allocated_.size(); ++s)
    reindex(static_cast<ShardId>(s), shard_allocated_[s]);
}

bool Node::try_reserve(ShardId shard, const Resources& r) {
  if (r.cpu < 0 || r.mem < 0)
    throw std::invalid_argument("Node: negative reservation");
  if (!up_) return false;
  auto& used = shard_allocated_.at(static_cast<size_t>(shard));
  if (!(used + r).fits_in(shard_capacity())) return false;
  used += r;
  allocated_total_ += r;
  reindex(shard, used);
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
  reindex(shard, used);
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
