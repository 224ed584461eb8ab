// sias-metric-literal POSITIVE fixture: an uncatalogued name and a
// non-literal name. Each line marked BAD must be flagged, and no other.

#include <string>

namespace sias {
namespace obs {

struct Counter {
  void Increment() {}
};

struct MetricsRegistry {
  static MetricsRegistry& Default();
  Counter* GetCounter(const std::string& name);
};

}  // namespace obs
}  // namespace sias

namespace fixture {

void Observe(const std::string& dynamic_name) {
  sias::obs::MetricsRegistry& reg = sias::obs::MetricsRegistry::Default();
  // Not in the docs/OBSERVABILITY.md catalogue (typo of txn.begin).
  reg.GetCounter("txn.beginz")->Increment();  // BAD
  // A runtime-built name defeats the catalogue check and grep.
  reg.GetCounter(dynamic_name)->Increment();  // BAD
}

}  // namespace fixture
