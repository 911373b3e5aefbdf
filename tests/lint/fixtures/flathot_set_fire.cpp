// libra-lint fixture: flat-hot-path fires five times on set members under a
// designated hot-path rule path — one member per flavour (set,
// unordered_set, multiset, unordered_multiset) and a hashed set nested in a
// per-node vector. A local scratch set and a sorted-vector member stay clean.
#include <set>
#include <unordered_set>
#include <vector>

namespace fixture {

class Placements {
 public:
  void note(long id) {
    std::unordered_set<long> seen;  // local: clean
    seen.insert(id);
  }

 private:
  std::set<long> ordered_;
  std::unordered_set<long> placed_;
  std::multiset<double> expiries_;
  std::unordered_multiset<int> tenants_;
  std::vector<std::unordered_set<long>> per_node_;
  std::vector<std::vector<long>> sorted_per_node_;  // flat member: clean
};

}  // namespace fixture
