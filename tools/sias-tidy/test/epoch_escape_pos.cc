// sias-epoch-escape POSITIVE fixture: each line marked BAD must be flagged,
// and no other. Self-contained: compiles standalone with -fsyntax-only.

#define SIAS_EPOCH_PROTECTED

namespace fixture {

struct Entry {
  int value;
};

// Stands in for VidMapV::SlotFor / TuplePayload: the pointer is only valid
// under the caller's epoch guard.
SIAS_EPOCH_PROTECTED const Entry* LoadEntry();

const Entry* g_leaked = nullptr;

struct Cache {
  const Entry* cached_ = nullptr;

  void Fill() {
    const Entry* e = LoadEntry();
    cached_ = e;  // BAD: field store outlives the epoch scope
  }

  void FillGlobal() {
    g_leaked = LoadEntry();  // BAD: global store outlives the epoch scope
  }
};

const Entry* Publish() {
  return LoadEntry();  // BAD: re-published from a non-annotated function
}

}  // namespace fixture
