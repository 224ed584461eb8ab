// sias-epoch-escape POSITIVE fixture: protected pointers reached through a
// receiver, and statics or globals outside the g_ naming convention. Each
// line marked BAD must be flagged, and no other.

#define SIAS_EPOCH_PROTECTED

namespace fixture {

struct Entry {
  int value;
};

struct Map {
  SIAS_EPOCH_PROTECTED const Entry* SlotFor(int vid) const;
};

SIAS_EPOCH_PROTECTED const Entry* LoadEntry();

const Entry* last_seen = nullptr;
const Entry* first_seen = LoadEntry();  // BAD: global initialised from it

void Remember(const Map& map, const Map* other) {
  static const Entry* cached = LoadEntry();  // BAD: static outlives scope
  last_seen = map.SlotFor(1);     // BAD: store into a global
  last_seen = other->SlotFor(2);  // BAD
}

const Entry* Lookup(const Map& map) {
  return map.SlotFor(3);  // BAD: re-published from a non-annotated function
}

}  // namespace fixture
